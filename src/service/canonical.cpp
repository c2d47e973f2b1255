#include "service/canonical.hpp"

#include <charconv>
#include <sstream>
#include <string_view>
#include <vector>

namespace t1sfq::service {

uint64_t fnv1a(const std::string& data, uint64_t h) {
  for (const char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// FNV-1a fed piecewise: hashes the same bytes a text rendering would hold
/// without materializing the text.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  Fnv& operator<<(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    return *this;
  }
  Fnv& operator<<(char c) { return *this << std::string_view(&c, 1); }
  Fnv& operator<<(uint64_t v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return *this << std::string_view(buf, static_cast<std::size_t>(res.ptr - buf));
  }
};

}  // namespace

uint64_t exact_signature(const Network& net) {
  Fnv ss;
  ss << "net:" << net.name() << '\n';
  ss << "pi:";
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    ss << ' ' << uint64_t{net.pi(i)} << '=' << net.pi_name(i);
  }
  ss << '\n';
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    const Node& n = net.node(id);
    ss << uint64_t{id} << ':' << to_string(n.type);
    if (n.type == GateType::T1Port) {
      ss << '.' << to_string(n.port);
    }
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      ss << ' ' << uint64_t{n.fanin(i)};
    }
    ss << '\n';
  }
  ss << "po:";
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    ss << ' ' << uint64_t{net.po(i)} << '=' << net.po_name(i);
  }
  ss << '\n';
  return ss.h;
}

std::string canonical_text(const PhysicalNetlist& phys) {
  const Network& net = phys.net;
  // Canonical ids by PO-anchored post-order DFS: POs in order, fanins in slot
  // order. PIs participate like any other node (their canonical id is their
  // first-visit position; their PI index is emitted so two netlists cannot
  // alias PIs). Unreachable nodes are excluded — they are not part of the
  // netlist the schedule drives.
  std::vector<NodeId> canon(net.size(), kNullNode);
  std::vector<NodeId> order;
  order.reserve(net.size());
  std::vector<std::pair<NodeId, unsigned>> stack;  // (node, next fanin slot)
  const auto visit = [&](NodeId root) {
    if (canon[root] != kNullNode) return;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      auto& [id, slot] = stack.back();
      if (canon[id] != kNullNode) {
        stack.pop_back();
        continue;
      }
      const Node& n = net.node(id);
      if (slot < n.num_fanins) {
        const NodeId f = n.fanin(slot++);
        if (canon[f] == kNullNode) {
          stack.push_back({f, 0});
        }
        continue;
      }
      canon[id] = static_cast<NodeId>(order.size());
      order.push_back(id);
      stack.pop_back();
    }
  };
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    visit(net.po(i));
  }

  std::ostringstream ss;
  ss << "phys out=" << phys.output_stage << " dffs=" << phys.num_dffs
     << " splitters=" << phys.num_splitters << '\n';
  std::vector<std::size_t> pi_index(net.size(), ~std::size_t{0});
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    pi_index[net.pi(i)] = i;
  }
  for (const NodeId id : order) {
    const Node& n = net.node(id);
    ss << canon[id] << ':' << to_string(n.type);
    if (n.type == GateType::T1Port) {
      ss << '.' << to_string(n.port);
    }
    if (n.type == GateType::Pi) {
      ss << "#" << pi_index[id];
    }
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      ss << ' ' << canon[n.fanin(i)];
    }
    if (id < phys.stage.size()) {
      ss << " @" << phys.stage[id];
    }
    ss << '\n';
  }
  ss << "po:";
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    ss << ' ' << canon[net.po(i)];
  }
  ss << '\n';
  return ss.str();
}

uint64_t canonical_signature(const PhysicalNetlist& phys) {
  return fnv1a(canonical_text(phys));
}

}  // namespace t1sfq::service
