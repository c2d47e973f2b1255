/// \file parser_fuzz_test.cpp
/// \brief Fixed-seed mutation fuzzing of every parser that reads untrusted
/// bytes: `read_blif`, `json::parse`, and the service's frame reader plus
/// `parse_request`. Valid seed inputs are mutated by byte flips, inserts,
/// deletes and truncations; every mutant must either parse or throw a
/// `std::exception` — no crash, no hang, no foreign exception. The sanitizer
/// ctest job runs the same cases under ASan/UBSan.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/arith.hpp"
#include "core/api.hpp"
#include "network/io.hpp"
#include "obs/json.hpp"
#include "service/protocol.hpp"

namespace t1sfq {
namespace {

constexpr unsigned kCasesPerParser = 3000;

/// Applies 1..4 random edits (flip, insert, delete, truncate) to \p s.
std::string mutate(std::string s, std::mt19937_64& rng) {
  static const char kInteresting[] = {'\0', '\n', ' ', '"', '\\', '{', '}', '[', ']', ':',
                                      ',',  '.',  '-', '0', '9',  'e', '1', '#', '\xff'};
  const unsigned edits = 1 + static_cast<unsigned>(rng() % 4);
  for (unsigned e = 0; e < edits; ++e) {
    const std::size_t at = s.empty() ? 0 : rng() % s.size();
    switch (rng() % 4) {
      case 0:  // flip
        if (!s.empty()) {
          s[at] = static_cast<char>(s[at] ^ (1u << (rng() % 8)));
        }
        break;
      case 1: {  // insert
        const char c = rng() % 2 == 0 ? kInteresting[rng() % sizeof(kInteresting)]
                                      : static_cast<char>(rng() & 0xff);
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      }
      case 2:  // delete
        if (!s.empty()) {
          s.erase(at, 1 + rng() % 3);
        }
        break;
      case 3:  // truncate
        s.resize(at);
        break;
    }
  }
  return s;
}

/// Runs \p parse on \p kCasesPerParser mutants of the seeds; any exception
/// outside the std::exception hierarchy fails the test.
template <typename Parse>
void fuzz(const std::vector<std::string>& seeds, uint64_t seed, Parse parse) {
  std::mt19937_64 rng(seed);
  unsigned accepted = 0;
  for (unsigned i = 0; i < kCasesPerParser; ++i) {
    const std::string input = mutate(seeds[i % seeds.size()], rng);
    try {
      parse(input);
      ++accepted;
    } catch (const std::exception&) {
      // Rejecting malformed input with a typed error is the contract.
    } catch (...) {
      ADD_FAILURE() << "non-std exception on case " << i;
    }
  }
  // The seeds are valid, so a fair share of single-edit mutants still parse;
  // zero would mean the harness never reached the parser's accept paths.
  EXPECT_GT(accepted, 0u);
}

Network seed_network() {
  Network net("fuzz");
  const Word a = add_pi_word(net, 3, "a");
  const Word b = add_pi_word(net, 3, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  const NodeId t1 = net.add_t1(a[0], b[0], a[1]);
  net.add_po(net.add_dff(net.add_t1_port(t1, T1PortFn::CarryN)), "q");
  return net;
}

std::string blif_of(const Network& net) {
  std::ostringstream os;
  write_blif(net, os);
  return os.str();
}

TEST(ParserFuzz, ReadBlifReturnsOrThrows) {
  const std::vector<std::string> seeds = {
      blif_of(seed_network()),
      ".model cover\n.inputs a b c\n.outputs y\n.names a b c y\n11- 1\n-11 1\n1-1 1\n.end\n",
      ".model ooo\n.inputs a\n.outputs y\n.names t y\n0 1\n.names a t\n1 1\n.end\n"};
  fuzz(seeds, 1, [](const std::string& text) {
    std::istringstream is(text);
    read_blif(is);
  });
}

TEST(ParserFuzz, JsonParseReturnsOrThrows) {
  const FlowRequest req = FlowRequest::Builder(seed_network()).session("s1").build();
  const std::vector<std::string> seeds = {
      service::encode_flow_request(req),
      R"({"a": [1, -2.5e3, true, false, null], "b": {"c": "é\n\"x\""}, "d": []})",
      service::encode_error(ErrorCode::InvalidRequest, "bad \"thing\"")};
  fuzz(seeds, 2, [](const std::string& text) { json::parse(text); });
}

TEST(ParserFuzz, FrameReaderAndParseRequestReturnOrThrow) {
  const FlowRequest req = FlowRequest::Builder(seed_network()).session("s1").build();
  std::vector<std::string> seeds;
  for (const std::string& payload :
       {service::encode_flow_request(req), service::encode_batch_request({req, req}, 2),
        service::encode_ping(), service::encode_stats_request()}) {
    std::ostringstream os;
    service::write_frame(os, payload);
    service::write_frame(os, service::encode_ping());
    seeds.push_back(os.str());
  }
  fuzz(seeds, 3, [](const std::string& wire) {
    std::istringstream in(wire);
    std::string payload;
    while (service::read_frame(in, payload)) {
      service::parse_request(payload);
    }
  });
}

}  // namespace
}  // namespace t1sfq
