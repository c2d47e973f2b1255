#include "benchmarks/epfl.hpp"
#include "benchmarks/iscas.hpp"
#include "benchmarks/suite.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/arith.hpp"
#include "benchmarks/runner.hpp"
#include "network/simulation.hpp"

namespace t1sfq {
namespace {

using bench::BenchmarkCase;

/// Checks a generator against its reference model on random vectors.
void check_case(const BenchmarkCase& c, unsigned vectors, uint64_t seed) {
  const Network net = c.generate();
  std::mt19937_64 rng(seed);
  for (unsigned i = 0; i < vectors; ++i) {
    std::vector<bool> in(net.num_pis());
    for (auto&& b : in) {
      b = rng() & 1;
    }
    const auto expect = c.reference(in);
    const auto got = simulate(net, in);
    ASSERT_EQ(got.size(), expect.size()) << c.name;
    EXPECT_EQ(got, expect) << c.name << " vector " << i;
  }
}

TEST(Benchmarks, AdderMatchesReference) {
  check_case(bench::make_suite_scaled(4)[0], 100, 11);
}

TEST(Benchmarks, C7552MatchesReference) {
  check_case(bench::make_suite_scaled(4)[1], 100, 12);
}

TEST(Benchmarks, C6288MatchesReference) {
  check_case(bench::make_suite_scaled(4)[2], 100, 13);
}

TEST(Benchmarks, SinMatchesReference) {
  check_case(bench::make_suite_scaled(2)[3], 100, 14);
}

TEST(Benchmarks, VoterMatchesReference) {
  check_case(bench::make_suite_scaled(8)[4], 100, 15);
}

TEST(Benchmarks, SquareMatchesReference) {
  check_case(bench::make_suite_scaled(4)[5], 100, 16);
}

TEST(Benchmarks, MultiplierMatchesReference) {
  check_case(bench::make_suite_scaled(4)[6], 100, 17);
}

TEST(Benchmarks, Log2MatchesReference) {
  check_case(bench::make_suite_scaled(2)[7], 100, 18);
}

TEST(Benchmarks, AdderFullWidthSpotCheck) {
  // The real 128-bit Table-I adder on a few vectors (word-parallel 64-wide).
  const Network net = bench::epfl_adder(128);
  EXPECT_EQ(net.num_pis(), 256u);
  EXPECT_EQ(net.num_pos(), 129u);
  std::mt19937_64 rng(19);
  std::vector<bool> in(256);
  for (auto&& b : in) {
    b = rng() & 1;
  }
  const auto got = simulate(net, in);
  EXPECT_EQ(got, bench::epfl_adder_ref(128, in));
}

TEST(Benchmarks, SinIsMonotoneOnQuarterWave) {
  // sin on [0, pi/2) is increasing; the fixed-point network must be
  // non-decreasing over increasing inputs.
  const unsigned bits = 8;
  const Network net = bench::epfl_sin(bits);
  uint64_t prev = 0;
  for (uint64_t x = 0; x < 256; x += 5) {
    const uint64_t y = word_to_uint(simulate(net, uint_to_word(x, bits)));
    // Truncating products can jitter by a couple of LSBs near the crest.
    EXPECT_GE(y + 2, prev) << "x=" << x;
    prev = y;
  }
}

TEST(Benchmarks, SinApproximatesTheRealThing) {
  const unsigned bits = 10;
  const Network net = bench::epfl_sin(bits);
  for (uint64_t x = 0; x < (1u << bits); x += 37) {
    const double theta = (static_cast<double>(x) / (1 << bits)) * 1.5707963267948966;
    const double y = static_cast<double>(word_to_uint(simulate(net, uint_to_word(x, bits)))) /
                     (1 << bits);
    EXPECT_NEAR(y, std::sin(theta), 0.02) << "x=" << x;
  }
}

TEST(Benchmarks, Log2ExactOnPowersOfTwo) {
  const unsigned bits = 16, frac = 8;
  const Network net = bench::epfl_log2(bits, frac);
  for (unsigned p = 0; p < bits; ++p) {
    const auto out = simulate(net, uint_to_word(uint64_t{1} << p, bits));
    // Integer part = p, fraction = 0.
    EXPECT_EQ(word_to_uint({out.begin(), out.begin() + 4}), p);
    EXPECT_EQ(word_to_uint({out.begin() + 4, out.end()}), 0u);
  }
}

TEST(Benchmarks, Log2ZeroInputYieldsZero) {
  const Network net = bench::epfl_log2(8, 4);
  const auto out = simulate(net, uint_to_word(0, 8));
  for (const bool b : out) {
    EXPECT_FALSE(b);
  }
}

TEST(Benchmarks, Log2FractionApproximatesMath) {
  const unsigned bits = 12, frac = 6;
  const Network net = bench::epfl_log2(bits, frac);
  for (uint64_t x : {3ull, 7ull, 100ull, 1000ull, 4095ull}) {
    const auto out = simulate(net, uint_to_word(x, bits));
    const unsigned ibits = 4;  // ceil(log2(12))
    const double ipart = static_cast<double>(word_to_uint({out.begin(), out.begin() + ibits}));
    const double fpart =
        static_cast<double>(word_to_uint({out.begin() + ibits, out.end()})) / (1 << frac);
    EXPECT_NEAR(ipart + fpart, std::log2(static_cast<double>(x)), 0.02) << "x=" << x;
  }
}

TEST(Benchmarks, VoterThreshold) {
  const unsigned n = 15;
  const Network net = bench::epfl_voter(n);
  for (unsigned ones = 0; ones <= n; ++ones) {
    std::vector<bool> in(n, false);
    for (unsigned i = 0; i < ones; ++i) {
      in[i] = true;
    }
    EXPECT_EQ(simulate(net, in)[0], ones >= n / 2 + 1) << ones << " ones";
  }
}

TEST(Benchmarks, SuiteHasEightTableRows) {
  const auto suite = bench::make_suite();
  ASSERT_EQ(suite.size(), 8u);
  EXPECT_EQ(suite[0].name, "adder");
  EXPECT_EQ(suite[1].name, "c7552");
  EXPECT_EQ(suite[2].name, "c6288");
  EXPECT_EQ(suite[3].name, "sin");
  EXPECT_EQ(suite[4].name, "voter");
  EXPECT_EQ(suite[5].name, "square");
  EXPECT_EQ(suite[6].name, "multiplier");
  EXPECT_EQ(suite[7].name, "log2");
}

TEST(Benchmarks, ScaledSuiteKeepsOddVoter) {
  for (unsigned s : {2u, 4u, 8u, 16u}) {
    const auto suite = bench::make_suite_scaled(s);
    const Network voter = suite[4].generate();
    EXPECT_EQ(voter.num_pis() % 2, 1u) << "shrink " << s;
  }
}

TEST(Benchmarks, GeneratorsAreDeterministic) {
  const auto a = bench::epfl_multiplier(8);
  const auto b = bench::epfl_multiplier(8);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_TRUE(random_simulation_equal(a, b, 2));
}

TEST(Benchmarks, SquareSharesPartialProducts) {
  // a*a through the generic multiplier still shares and-gates (a_i & a_j).
  const Network sq = bench::epfl_square(8);
  const Network mult = bench::epfl_multiplier(8);
  EXPECT_LT(sq.count_of(GateType::And2) + 2 * sq.num_pis(),
            mult.count_of(GateType::And2) + mult.num_pis());
}

TEST(RunnerReentrancy, NestedRunJobsSerializesInsteadOfStackingPools) {
  EXPECT_FALSE(bench::in_job_pool());

  std::atomic<int> peak{0};
  std::atomic<int> active{0};
  std::vector<int> inner_order;

  std::vector<bench::Job> outer;
  for (int o = 0; o < 2; ++o) {
    outer.push_back([&, o](std::ostream& log) {
      EXPECT_TRUE(bench::in_job_pool());
      std::vector<bench::Job> inner;
      for (int i = 0; i < 4; ++i) {
        inner.push_back([&, o, i](std::ostream&) {
          const int now = ++active;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          // A nested pool would run inner jobs on fresh (unmarked) threads;
          // the guard keeps them on this already-pooled thread.
          EXPECT_TRUE(bench::in_job_pool());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          --active;
          log << "inner " << o << "." << i << "\n";
        });
      }
      std::ostringstream sink;
      bench::run_jobs(std::move(inner), sink, /*threads=*/8);
      log << "outer " << o << " done\n";
    });
  }
  std::ostringstream log;
  bench::run_jobs(std::move(outer), log, /*threads=*/2);

  // Each outer worker ran its inner batch sequentially on itself, so at most
  // the two outer workers were ever concurrently inside inner jobs.
  EXPECT_LE(peak.load(), 2);
  EXPECT_FALSE(bench::in_job_pool());
  // Ordered flush survives nesting.
  const std::string text = log.str();
  EXPECT_LT(text.find("outer 0 done"), text.find("outer 1 done"));
}

TEST(RunnerReentrancy, TopLevelSequentialCallStillAllowsInnerParallelism) {
  // threads=1 runs jobs on the *calling* thread, which is not a pool worker:
  // inner parallel work (e.g. a nested `Server` batch under `bench --jobs 1`)
  // must still be allowed to spawn its own pool.
  std::vector<bench::Job> outer;
  outer.push_back([&](std::ostream&) {
    EXPECT_FALSE(bench::in_job_pool());
  });
  std::ostringstream sink;
  bench::run_jobs(std::move(outer), sink, /*threads=*/1);
}

}  // namespace
}  // namespace t1sfq
