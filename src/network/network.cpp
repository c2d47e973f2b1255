#include "network/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace t1sfq {

namespace {

bool is_commutative(GateType t) {
  switch (t) {
    case GateType::And2:
    case GateType::Or2:
    case GateType::Xor2:
    case GateType::Nand2:
    case GateType::Nor2:
    case GateType::Xnor2:
    case GateType::And3:
    case GateType::Or3:
    case GateType::Xor3:
    case GateType::Maj3:
    case GateType::T1:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* to_string(GateType type) {
  switch (type) {
    case GateType::Const0: return "const0";
    case GateType::Const1: return "const1";
    case GateType::Pi: return "pi";
    case GateType::Buf: return "buf";
    case GateType::Not: return "not";
    case GateType::And2: return "and2";
    case GateType::Or2: return "or2";
    case GateType::Xor2: return "xor2";
    case GateType::Nand2: return "nand2";
    case GateType::Nor2: return "nor2";
    case GateType::Xnor2: return "xnor2";
    case GateType::And3: return "and3";
    case GateType::Or3: return "or3";
    case GateType::Xor3: return "xor3";
    case GateType::Maj3: return "maj3";
    case GateType::Dff: return "dff";
    case GateType::T1: return "t1";
    case GateType::T1Port: return "t1port";
  }
  return "?";
}

const char* to_string(T1PortFn fn) {
  switch (fn) {
    case T1PortFn::Sum: return "S";
    case T1PortFn::Carry: return "C";
    case T1PortFn::Or: return "Q";
    case T1PortFn::CarryN: return "C*";
    case T1PortFn::OrN: return "Q*";
  }
  return "?";
}

unsigned gate_arity(GateType type) {
  switch (type) {
    case GateType::Const0:
    case GateType::Const1:
    case GateType::Pi:
      return 0;
    case GateType::Buf:
    case GateType::Not:
    case GateType::Dff:
    case GateType::T1Port:
      return 1;
    case GateType::And2:
    case GateType::Or2:
    case GateType::Xor2:
    case GateType::Nand2:
    case GateType::Nor2:
    case GateType::Xnor2:
      return 2;
    case GateType::And3:
    case GateType::Or3:
    case GateType::Xor3:
    case GateType::Maj3:
    case GateType::T1:
      return 3;
  }
  return 0;
}

bool is_clocked(GateType type) {
  switch (type) {
    case GateType::Not:
    case GateType::And2:
    case GateType::Or2:
    case GateType::Xor2:
    case GateType::Nand2:
    case GateType::Nor2:
    case GateType::Xnor2:
    case GateType::And3:
    case GateType::Or3:
    case GateType::Xor3:
    case GateType::Maj3:
    case GateType::Dff:
    case GateType::T1:
      return true;
    default:
      return false;
  }
}

NodeId Network::add_pi(const std::string& name) {
  Node n;
  n.type = GateType::Pi;
  const NodeId id = add_node_(n);
  pis_.push_back(id);
  pi_names_.push_back(name.empty() ? "x" + std::to_string(pis_.size() - 1) : name);
  return id;
}

NodeId Network::get_const0() {
  if (const0_ == kNullNode) {
    Node n;
    n.type = GateType::Const0;
    const0_ = add_node_(n);
  }
  return const0_;
}

NodeId Network::get_const1() {
  if (const1_ == kNullNode) {
    Node n;
    n.type = GateType::Const1;
    const1_ = add_node_(n);
  }
  return const1_;
}

void Network::add_po(NodeId node, const std::string& name) {
  assert(node < nodes_.size());
  pos_.push_back(node);
  po_names_.push_back(name.empty() ? "y" + std::to_string(pos_.size() - 1) : name);
}

NodeId Network::add_node_(Node n) {
  nodes_.push_back(n);
  return static_cast<NodeId>(nodes_.size() - 1);
}

uint64_t Network::strash_key_(GateType type, const std::array<NodeId, 3>& fanins,
                              uint8_t num_fanins, T1PortFn port) const {
  uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(type));
  mix(static_cast<uint64_t>(port));
  for (uint8_t i = 0; i < num_fanins; ++i) {
    mix(fanins[i]);
  }
  return h;
}

std::optional<NodeId> Network::try_fold_(GateType type, const std::vector<NodeId>& f) {
  const auto is_c0 = [this](NodeId x) { return nodes_[x].type == GateType::Const0; };
  const auto is_c1 = [this](NodeId x) { return nodes_[x].type == GateType::Const1; };
  const auto is_const = [&](NodeId x) { return is_c0(x) || is_c1(x); };
  const auto cval = [&](NodeId x) { return is_c1(x); };
  // True if a == NOT b structurally.
  const auto is_compl = [this](NodeId a, NodeId b) {
    return (nodes_[a].type == GateType::Not && nodes_[a].fanin(0) == b) ||
           (nodes_[b].type == GateType::Not && nodes_[b].fanin(0) == a);
  };

  switch (type) {
    case GateType::Buf:
      return f[0];  // JTLs carry no logic; physical buffers are implicit
    case GateType::Not:
      if (is_c0(f[0])) return get_const1();
      if (is_c1(f[0])) return get_const0();
      if (nodes_[f[0]].type == GateType::Not) return nodes_[f[0]].fanin(0);
      return std::nullopt;
    case GateType::And2:
      if (is_c0(f[0]) || is_c0(f[1])) return get_const0();
      if (is_c1(f[0])) return f[1];
      if (is_c1(f[1])) return f[0];
      if (f[0] == f[1]) return f[0];
      if (is_compl(f[0], f[1])) return get_const0();
      return std::nullopt;
    case GateType::Or2:
      if (is_c1(f[0]) || is_c1(f[1])) return get_const1();
      if (is_c0(f[0])) return f[1];
      if (is_c0(f[1])) return f[0];
      if (f[0] == f[1]) return f[0];
      if (is_compl(f[0], f[1])) return get_const1();
      return std::nullopt;
    case GateType::Xor2:
      if (is_c0(f[0])) return f[1];
      if (is_c0(f[1])) return f[0];
      if (is_c1(f[0])) return add_not(f[1]);
      if (is_c1(f[1])) return add_not(f[0]);
      if (f[0] == f[1]) return get_const0();
      if (is_compl(f[0], f[1])) return get_const1();
      return std::nullopt;
    case GateType::Nand2:
      if (auto a = try_fold_(GateType::And2, f)) return add_not(*a);
      return std::nullopt;
    case GateType::Nor2:
      if (auto a = try_fold_(GateType::Or2, f)) return add_not(*a);
      return std::nullopt;
    case GateType::Xnor2:
      if (auto a = try_fold_(GateType::Xor2, f)) return add_not(*a);
      return std::nullopt;
    case GateType::And3: {
      if (is_c0(f[0]) || is_c0(f[1]) || is_c0(f[2])) return get_const0();
      std::vector<NodeId> rest;
      for (NodeId x : f) {
        if (!is_c1(x)) rest.push_back(x);
      }
      if (rest.size() < 3) {
        if (rest.empty()) return get_const1();
        if (rest.size() == 1) return rest[0];
        return add_and(rest[0], rest[1]);
      }
      if (f[0] == f[1]) return add_and(f[0], f[2]);
      if (f[0] == f[2] || f[1] == f[2]) return add_and(f[0], f[1]);
      return std::nullopt;
    }
    case GateType::Or3: {
      if (is_c1(f[0]) || is_c1(f[1]) || is_c1(f[2])) return get_const1();
      std::vector<NodeId> rest;
      for (NodeId x : f) {
        if (!is_c0(x)) rest.push_back(x);
      }
      if (rest.size() < 3) {
        if (rest.empty()) return get_const0();
        if (rest.size() == 1) return rest[0];
        return add_or(rest[0], rest[1]);
      }
      if (f[0] == f[1]) return add_or(f[0], f[2]);
      if (f[0] == f[2] || f[1] == f[2]) return add_or(f[0], f[1]);
      return std::nullopt;
    }
    case GateType::Xor3: {
      if (is_const(f[0]) || is_const(f[1]) || is_const(f[2])) {
        bool inv = false;
        std::vector<NodeId> rest;
        for (NodeId x : f) {
          if (is_const(x)) {
            inv ^= cval(x);
          } else {
            rest.push_back(x);
          }
        }
        NodeId r;
        if (rest.empty()) {
          r = get_const0();
        } else if (rest.size() == 1) {
          r = rest[0];
        } else {
          r = add_xor(rest[0], rest[1]);
        }
        return inv ? add_not(r) : r;
      }
      if (f[0] == f[1]) return f[2];
      if (f[0] == f[2]) return f[1];
      if (f[1] == f[2]) return f[0];
      return std::nullopt;
    }
    case GateType::Maj3: {
      if (f[0] == f[1] || f[0] == f[2]) return f[0];
      if (f[1] == f[2]) return f[1];
      for (unsigned i = 0; i < 3; ++i) {
        if (is_const(f[i])) {
          const NodeId a = f[(i + 1) % 3];
          const NodeId b = f[(i + 2) % 3];
          return cval(f[i]) ? add_or(a, b) : add_and(a, b);
        }
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

NodeId Network::add_gate(GateType type, const std::vector<NodeId>& fanins) {
  if (fanins.size() != gate_arity(type)) {
    throw std::invalid_argument("add_gate: wrong fanin count for " +
                                std::string(to_string(type)));
  }
  for (NodeId f : fanins) {
    if (f >= nodes_.size()) {
      throw std::invalid_argument("add_gate: unknown fanin id");
    }
  }
  if (type == GateType::Pi || type == GateType::Const0 || type == GateType::Const1 ||
      type == GateType::T1 || type == GateType::T1Port) {
    throw std::invalid_argument("add_gate: use the dedicated constructor");
  }

  // DFFs are physical registers: never folded, never shared.
  if (type != GateType::Dff) {
    if (auto folded = try_fold_(type, fanins)) {
      return *folded;
    }
  }

  Node n;
  n.type = type;
  n.num_fanins = static_cast<uint8_t>(fanins.size());
  std::copy(fanins.begin(), fanins.end(), n.fanins.begin());
  if (is_commutative(type)) {
    std::sort(n.fanins.begin(), n.fanins.begin() + n.num_fanins);
  }

  if (type != GateType::Dff) {
    const uint64_t key = strash_key_(type, n.fanins, n.num_fanins, n.port);
    auto& bucket = strash_[key];
    for (NodeId cand : bucket) {
      const Node& c = nodes_[cand];
      if (!c.dead && c.type == type && c.num_fanins == n.num_fanins &&
          std::equal(c.fanins.begin(), c.fanins.begin() + c.num_fanins, n.fanins.begin())) {
        return cand;
      }
    }
    const NodeId id = add_node_(n);
    bucket.push_back(id);
    return id;
  }
  return add_node_(n);
}

NodeId Network::add_raw_gate(GateType type, const std::vector<NodeId>& fanins) {
  if (fanins.size() != gate_arity(type)) {
    throw std::invalid_argument("add_raw_gate: wrong fanin count");
  }
  Node n;
  n.type = type;
  n.num_fanins = static_cast<uint8_t>(fanins.size());
  std::copy(fanins.begin(), fanins.end(), n.fanins.begin());
  return add_node_(n);
}

NodeId Network::add_t1(NodeId a, NodeId b, NodeId c) {
  assert(a < nodes_.size() && b < nodes_.size() && c < nodes_.size());
  Node n;
  n.type = GateType::T1;
  n.num_fanins = 3;
  n.fanins = {a, b, c};
  std::sort(n.fanins.begin(), n.fanins.end());
  return add_node_(n);
}

NodeId Network::add_t1_port(NodeId body, T1PortFn fn) {
  assert(body < nodes_.size() && nodes_[body].type == GateType::T1);
  Node n;
  n.type = GateType::T1Port;
  n.num_fanins = 1;
  n.fanins = {body, kNullNode, kNullNode};
  n.port = fn;
  const uint64_t key = strash_key_(GateType::T1Port, n.fanins, 1, fn);
  auto& bucket = strash_[key];
  for (NodeId cand : bucket) {
    const Node& c = nodes_[cand];
    if (!c.dead && c.type == GateType::T1Port && c.fanin(0) == body && c.port == fn) {
      return cand;
    }
  }
  const NodeId id = add_node_(n);
  bucket.push_back(id);
  return id;
}

std::size_t Network::count_of(GateType type) const {
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    if (!node.dead && node.type == type) {
      ++n;
    }
  }
  return n;
}

std::size_t Network::num_gates() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    if (node.dead) continue;
    switch (node.type) {
      case GateType::Const0:
      case GateType::Const1:
      case GateType::Pi:
      case GateType::T1Port:
        break;
      default:
        ++n;
    }
  }
  return n;
}

std::vector<NodeId> Network::topo_order() const {
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  // When every live node's fanins precede it (any compacted network), the
  // DFS below finds each root's fanins already done: its order is the live
  // ids ascending, produced here without the walk.
  bool fanins_precede = true;
  for (NodeId id = 0; fanins_precede && id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.dead) continue;
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      fanins_precede = fanins_precede && n.fanins[i] < id;
    }
    order.push_back(id);
  }
  if (fanins_precede) {
    return order;
  }
  order.clear();
  // True topological sort: rewriting passes (T1 replacement) may create nodes
  // whose ids are larger than their fanouts', so creation order is not enough.
  std::vector<uint8_t> mark(nodes_.size(), 0);  // 0 = new, 1 = on stack, 2 = done
  std::vector<std::pair<NodeId, uint8_t>> stack;
  for (NodeId root = 0; root < nodes_.size(); ++root) {
    if (nodes_[root].dead || mark[root] == 2) continue;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      auto& [id, next_fanin] = stack.back();
      if (next_fanin == 0) {
        if (mark[id] == 2) {
          stack.pop_back();
          continue;
        }
        mark[id] = 1;
      }
      const Node& n = nodes_[id];
      if (next_fanin < n.num_fanins) {
        const NodeId f = n.fanins[next_fanin++];
        if (mark[f] == 0) {
          assert(!nodes_[f].dead && "live node with dead fanin");
          stack.push_back({f, 0});
        } else {
          assert(mark[f] == 2 && "combinational cycle");
        }
      } else {
        mark[id] = 2;
        order.push_back(id);
        stack.pop_back();
      }
    }
  }
  return order;
}

std::vector<uint32_t> Network::fanout_counts() const {
  std::vector<uint32_t> counts(nodes_.size(), 0);
  for (const Node& n : nodes_) {
    if (n.dead) continue;
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      ++counts[n.fanin(i)];
    }
  }
  for (NodeId po : pos_) {
    ++counts[po];
  }
  return counts;
}

std::vector<std::vector<NodeId>> Network::fanout_lists() const {
  std::vector<std::vector<NodeId>> lists(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.dead) continue;
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      lists[n.fanin(i)].push_back(id);
    }
  }
  return lists;
}

std::vector<uint32_t> Network::levels() const {
  std::vector<uint32_t> lvl(nodes_.size(), 0);
  for (const NodeId id : topo_order()) {
    const Node& n = nodes_[id];
    switch (n.type) {
      case GateType::Const0:
      case GateType::Const1:
      case GateType::Pi:
        lvl[id] = 0;
        break;
      case GateType::Buf:
        lvl[id] = lvl[n.fanin(0)];
        break;
      case GateType::T1Port:
        lvl[id] = lvl[n.fanin(0)];
        break;
      case GateType::T1: {
        // Paper eq. (3): sigma >= max(s1+3, s2+2, s3+1), fanins sorted by stage.
        std::array<uint32_t, 3> s{lvl[n.fanin(0)], lvl[n.fanin(1)], lvl[n.fanin(2)]};
        std::sort(s.begin(), s.end());
        lvl[id] = std::max({s[0] + 3, s[1] + 2, s[2] + 1});
        break;
      }
      default: {
        uint32_t m = 0;
        for (uint8_t i = 0; i < n.num_fanins; ++i) {
          m = std::max(m, lvl[n.fanin(i)]);
        }
        lvl[id] = m + 1;
      }
    }
  }
  return lvl;
}

uint32_t Network::depth() const {
  const auto lvl = levels();
  uint32_t d = 0;
  for (NodeId po : pos_) {
    d = std::max(d, lvl[po]);
  }
  return d;
}

void Network::substitute(NodeId oldNode, NodeId newNode) {
  assert(oldNode < nodes_.size() && newNode < nodes_.size());
  if (oldNode == newNode) {
    return;
  }
  for (Node& n : nodes_) {
    if (n.dead) continue;
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      if (n.fanins[i] == oldNode) {
        n.fanins[i] = newNode;
      }
    }
  }
  for (NodeId& po : pos_) {
    if (po == oldNode) {
      po = newNode;
    }
  }
}

std::size_t Network::sweep_dangling() {
  std::vector<char> reachable(nodes_.size(), 0);
  std::vector<NodeId> stack;
  const auto visit = [&](NodeId id) {
    if (!reachable[id]) {
      reachable[id] = 1;
      stack.push_back(id);
    }
  };
  for (NodeId po : pos_) {
    visit(po);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    for (uint8_t i = 0; i < n.num_fanins; ++i) {
      visit(n.fanin(i));
    }
  }
  std::size_t died = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    Node& n = nodes_[id];
    if (n.dead || reachable[id]) continue;
    // Keep the interface and cached constants alive.
    if (n.type == GateType::Pi || id == const0_ || id == const1_) continue;
    n.dead = true;
    ++died;
  }
  return died;
}

Network Network::cleanup(std::vector<NodeId>* old_to_new) const {
  Network out(name_);
  std::vector<NodeId> map(nodes_.size(), kNullNode);
  std::vector<NodeId> order = topo_order();
  // Keep PIs at the front in interface order (ascending id = creation order),
  // so pi_names_ stays aligned.
  const auto mid = std::stable_partition(
      order.begin(), order.end(),
      [this](NodeId id) { return nodes_[id].type == GateType::Pi; });
  std::sort(order.begin(), mid);
  for (const NodeId id : order) {
    const Node& n = nodes_[id];
    Node copy = n;
    for (uint8_t i = 0; i < copy.num_fanins; ++i) {
      assert(map[n.fanin(i)] != kNullNode && "fanin must precede fanout");
      copy.fanins[i] = map[n.fanin(i)];
    }
    const NodeId nid = out.add_node_(copy);
    map[id] = nid;
    switch (n.type) {
      case GateType::Pi:
        out.pis_.push_back(nid);
        break;
      case GateType::Const0:
        out.const0_ = nid;
        break;
      case GateType::Const1:
        out.const1_ = nid;
        break;
      case GateType::Dff:
        break;  // never strashed
      default: {
        const uint64_t key =
            out.strash_key_(copy.type, copy.fanins, copy.num_fanins, copy.port);
        out.strash_[key].push_back(nid);
      }
    }
  }
  out.pi_names_ = pi_names_;
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    out.pos_.push_back(map[pos_[i]]);
    out.po_names_.push_back(po_names_[i]);
  }
  if (old_to_new) {
    *old_to_new = std::move(map);
  }
  return out;
}

uint64_t Network::eval_word(GateType type, T1PortFn port, uint64_t a, uint64_t b, uint64_t c) {
  switch (type) {
    case GateType::Const0: return 0;
    case GateType::Const1: return ~uint64_t{0};
    case GateType::Pi: return a;
    case GateType::Buf: return a;
    case GateType::Not: return ~a;
    case GateType::And2: return a & b;
    case GateType::Or2: return a | b;
    case GateType::Xor2: return a ^ b;
    case GateType::Nand2: return ~(a & b);
    case GateType::Nor2: return ~(a | b);
    case GateType::Xnor2: return ~(a ^ b);
    case GateType::And3: return a & b & c;
    case GateType::Or3: return a | b | c;
    case GateType::Xor3: return a ^ b ^ c;
    case GateType::Maj3: return (a & b) | (a & c) | (b & c);
    case GateType::Dff: return a;  // logically transparent (path balancing only)
    case GateType::T1: return a ^ b ^ c;  // body value is defined as S for convenience
    case GateType::T1Port:
      switch (port) {
        case T1PortFn::Sum: return a ^ b ^ c;
        case T1PortFn::Carry: return (a & b) | (a & c) | (b & c);
        case T1PortFn::Or: return a | b | c;
        case T1PortFn::CarryN: return ~((a & b) | (a & c) | (b & c));
        case T1PortFn::OrN: return ~(a | b | c);
      }
      return 0;
  }
  return 0;
}

}  // namespace t1sfq
