#include "network/equivalence.hpp"

#include <array>
#include <cassert>
#include <random>
#include <unordered_map>
#include <utility>

#include "network/simulation.hpp"
#include "obs/metrics.hpp"

namespace t1sfq {

namespace {

/// Tseitin clauses for `out <=> AND(x, z)`.
void and2_clauses(SatSolver& s, Lit out, Lit x, Lit z) {
  s.add_clause({negate(out), x});
  s.add_clause({negate(out), z});
  s.add_clause({out, negate(x), negate(z)});
}

/// Tseitin clauses for `out <=> XOR(x, z)`.
void xor2_clauses(SatSolver& s, Lit out, Lit x, Lit z) {
  s.add_clause({negate(out), x, z});
  s.add_clause({negate(out), negate(x), negate(z)});
  s.add_clause({out, negate(x), z});
  s.add_clause({out, x, negate(z)});
}

/// Tseitin clauses for `out <=> MAJ(x, z, w)`.
void maj3_clauses(SatSolver& s, Lit out, Lit x, Lit z, Lit w) {
  s.add_clause({negate(out), x, z});
  s.add_clause({negate(out), x, w});
  s.add_clause({negate(out), z, w});
  s.add_clause({out, negate(x), negate(z)});
  s.add_clause({out, negate(x), negate(w)});
  s.add_clause({out, negate(z), negate(w)});
}

/// Adds clauses forcing `y <=> AND(a, b)` etc. for each cell type.
void encode_gate(SatSolver& s, GateType type, T1PortFn port, Lit y, Lit a, Lit b, Lit c) {
  const auto and2 = [&](Lit out, Lit x, Lit z) { and2_clauses(s, out, x, z); };
  const auto or2 = [&](Lit out, Lit x, Lit z) { and2(negate(out), negate(x), negate(z)); };
  const auto xor2 = [&](Lit out, Lit x, Lit z) { xor2_clauses(s, out, x, z); };
  const auto equal = [&](Lit out, Lit x) {
    s.add_clause({negate(out), x});
    s.add_clause({out, negate(x)});
  };
  const auto and3 = [&](Lit out, Lit x, Lit z, Lit w) {
    s.add_clause({negate(out), x});
    s.add_clause({negate(out), z});
    s.add_clause({negate(out), w});
    s.add_clause({out, negate(x), negate(z), negate(w)});
  };
  const auto xor3 = [&](Lit out, Lit x, Lit z, Lit w) {
    // out = x ^ z ^ w: 8 clauses over the odd-parity condition.
    for (unsigned mask = 0; mask < 8; ++mask) {
      const bool parity = ((mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1)) % 2;
      // Forbid assignments where parity(x,z,w) != out.
      s.add_clause({(mask & 1) ? negate(x) : x, (mask & 2) ? negate(z) : z,
                    (mask & 4) ? negate(w) : w, parity ? out : negate(out)});
    }
  };
  const auto maj3 = [&](Lit out, Lit x, Lit z, Lit w) { maj3_clauses(s, out, x, z, w); };

  switch (type) {
    case GateType::Buf:
    case GateType::Dff:
      equal(y, a);
      break;
    case GateType::Not:
      equal(y, negate(a));
      break;
    case GateType::And2:
      and2(y, a, b);
      break;
    case GateType::Or2:
      or2(y, a, b);
      break;
    case GateType::Xor2:
      xor2(y, a, b);
      break;
    case GateType::Nand2:
      and2(negate(y), a, b);
      break;
    case GateType::Nor2:
      or2(negate(y), a, b);
      break;
    case GateType::Xnor2:
      xor2(negate(y), a, b);
      break;
    case GateType::And3:
      and3(y, a, b, c);
      break;
    case GateType::Or3:
      and3(negate(y), negate(a), negate(b), negate(c));
      break;
    case GateType::Xor3:
      xor3(y, a, b, c);
      break;
    case GateType::Maj3:
      maj3(y, a, b, c);
      break;
    case GateType::T1:
      xor3(y, a, b, c);  // body literal carries the S function
      break;
    case GateType::T1Port:
      switch (port) {
        case T1PortFn::Sum: xor3(y, a, b, c); break;
        case T1PortFn::Carry: maj3(y, a, b, c); break;
        case T1PortFn::Or: and3(negate(y), negate(a), negate(b), negate(c)); break;
        case T1PortFn::CarryN: maj3(negate(y), a, b, c); break;
        case T1PortFn::OrN: and3(y, negate(a), negate(b), negate(c)); break;
      }
      break;
    default:
      assert(false && "encode_gate: not a gate");
  }
}

}  // namespace

std::vector<Lit> encode_network(const Network& net, SatSolver& solver,
                                std::vector<Lit>& pi_lits) {
  if (pi_lits.empty()) {
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      pi_lits.push_back(pos_lit(solver.new_var()));
    }
  }
  assert(pi_lits.size() == net.num_pis());

  std::vector<Lit> lit(net.size(), 0);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    lit[net.pi(i)] = pi_lits[i];
  }
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    switch (n.type) {
      case GateType::Pi:
        break;  // already assigned
      case GateType::Const0: {
        const Lit l = pos_lit(solver.new_var());
        solver.add_clause({negate(l)});
        lit[id] = l;
        break;
      }
      case GateType::Const1: {
        const Lit l = pos_lit(solver.new_var());
        solver.add_clause({l});
        lit[id] = l;
        break;
      }
      case GateType::T1Port: {
        const Node& body = net.node(n.fanin(0));
        const Lit y = pos_lit(solver.new_var());
        encode_gate(solver, GateType::T1Port, n.port, y, lit[body.fanin(0)],
                    lit[body.fanin(1)], lit[body.fanin(2)]);
        lit[id] = y;
        break;
      }
      default: {
        const Lit y = pos_lit(solver.new_var());
        const Lit a = n.num_fanins > 0 ? lit[n.fanin(0)] : 0;
        const Lit b = n.num_fanins > 1 ? lit[n.fanin(1)] : 0;
        const Lit c = n.num_fanins > 2 ? lit[n.fanin(2)] : 0;
        encode_gate(solver, n.type, n.port, y, a, b, c);
        lit[id] = y;
      }
    }
  }
  return lit;
}

namespace {

/// Conflict cap of one sweep proof. A pair that needs more is left unmerged;
/// the output miter still covers it under the caller's budget.
constexpr uint64_t kSweepConflicts = 1000;
/// Simulation words (64 patterns each) that pair up sweep candidates.
constexpr unsigned kSweepWords = 4;

using Signature = std::array<uint64_t, kSweepWords>;

struct SignatureHash {
  std::size_t operator()(const Signature& s) const {
    uint64_t h = 0;
    for (const uint64_t w : s) {
      h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    }
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// And/Xor/Maj graph shared by both sides of the miter (Kuehlmann & Krohm,
/// DAC'97). A graph literal is `2 * node + complement`; node 0 is constant
/// false. Every `GateType` lowers onto the three normal forms over sorted,
/// polarity-normalized fanins, so logic the two networks share lands on the
/// same literal. CNF is added lazily: only the cones a solve asks about.
class StrashMiter {
public:
  using GLit = uint32_t;

  StrashMiter() { nodes_.push_back({Op::Const, {0, 0, 0}}); }

  std::size_t size() const { return nodes_.size(); }

  GLit add_pi() { return new_node_(Op::Pi, {0, 0, 0}); }

  GLit and2(GLit x, GLit y) {
    if (x > y) std::swap(x, y);
    if (x == 0 || x == (y ^ 1)) return 0;
    if (x == 1) return y;
    if (x == y) return x;
    return lookup_(Op::And, {x, y, 0});
  }

  GLit xor2(GLit x, GLit y) {
    const GLit c = (x ^ y) & 1;
    x &= ~GLit{1};
    y &= ~GLit{1};
    if (x > y) std::swap(x, y);
    if (x == y) return c;
    if (x == 0) return y ^ c;
    return lookup_(Op::Xor, {x, y, 0}) ^ c;
  }

  GLit maj3(GLit x, GLit y, GLit z) {
    sort3_(x, y, z);
    if (x == 0) return and2(y, z);
    if (x == 1) return or2(y, z);
    if (x == y || x == (z ^ 1)) return y;
    if (y == z || x == (y ^ 1)) return z;
    if (y == (z ^ 1)) return x;
    // MAJ is self-dual: keep at most one complemented fanin.
    const GLit c = ((x & 1) + (y & 1) + (z & 1)) >= 2 ? 1 : 0;
    x ^= c;
    y ^= c;
    z ^= c;
    sort3_(x, y, z);
    return lookup_(Op::Maj, {x, y, z}) ^ c;
  }

  GLit or2(GLit x, GLit y) { return and2(x ^ 1, y ^ 1) ^ 1; }

  GLit and3(GLit x, GLit y, GLit z) {
    sort3_(x, y, z);
    return and2(and2(x, y), z);
  }

  GLit xor3(GLit x, GLit y, GLit z) {
    const GLit c = (x ^ y ^ z) & 1;
    x &= ~GLit{1};
    y &= ~GLit{1};
    z &= ~GLit{1};
    sort3_(x, y, z);
    return xor2(xor2(x, y), z) ^ c;
  }

  /// Literal of node \p id of \p net, given its fanins' literals in \p lit.
  GLit lower(const Network& net, NodeId id, const std::vector<GLit>& lit) {
    const Node& n = net.node(id);
    const auto f = [&](unsigned i) { return lit[n.fanin(i)]; };
    switch (n.type) {
      case GateType::Const0: return 0;
      case GateType::Const1: return 1;
      case GateType::Buf:
      case GateType::Dff: return f(0);
      case GateType::Not: return f(0) ^ 1;
      case GateType::And2: return and2(f(0), f(1));
      case GateType::Or2: return or2(f(0), f(1));
      case GateType::Xor2: return xor2(f(0), f(1));
      case GateType::Nand2: return and2(f(0), f(1)) ^ 1;
      case GateType::Nor2: return or2(f(0), f(1)) ^ 1;
      case GateType::Xnor2: return xor2(f(0), f(1)) ^ 1;
      case GateType::And3: return and3(f(0), f(1), f(2));
      case GateType::Or3: return and3(f(0) ^ 1, f(1) ^ 1, f(2) ^ 1) ^ 1;
      case GateType::Xor3:
      case GateType::T1: return xor3(f(0), f(1), f(2));  // T1 body carries S
      case GateType::Maj3: return maj3(f(0), f(1), f(2));
      case GateType::T1Port: {
        const Node& body = net.node(n.fanin(0));
        const GLit x = lit[body.fanin(0)], y = lit[body.fanin(1)], z = lit[body.fanin(2)];
        switch (n.port) {
          case T1PortFn::Sum: return xor3(x, y, z);
          case T1PortFn::Carry: return maj3(x, y, z);
          case T1PortFn::Or: return and3(x ^ 1, y ^ 1, z ^ 1) ^ 1;
          case T1PortFn::CarryN: return maj3(x, y, z) ^ 1;
          case T1PortFn::OrN: return and3(x ^ 1, y ^ 1, z ^ 1);
        }
        break;
      }
      case GateType::Pi: break;
    }
    assert(false && "lower: PIs are seeded by the caller");
    return 0;
  }

  /// SAT literal of \p l, encoding its cone on first use.
  Lit sat_lit(GLit l) {
    encode_cone_(l >> 1);
    return pos_lit(sat_var_[l >> 1]) ^ (l & 1);
  }

  /// Model value of \p l after a Sat answer (false when never encoded: the
  /// literal then lies outside every solved cone).
  bool model(GLit l) const {
    const Var v = sat_var_[l >> 1];
    return v != kNoVar && (solver_.model_value(v) ^ (l & 1));
  }

  SatSolver& solver() { return solver_; }

private:
  enum class Op : uint8_t { Const, Pi, And, Xor, Maj };
  using Fanins = std::array<GLit, 3>;
  struct GNode {
    Op op;
    Fanins fanin;
  };
  struct KeyHash {
    std::size_t operator()(const std::pair<Op, Fanins>& k) const {
      uint64_t h = static_cast<uint64_t>(k.first);
      for (const GLit f : k.second) {
        h = (h ^ f) * 0x9e3779b97f4a7c15ull;
      }
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };
  static constexpr Var kNoVar = ~Var{0};

  static void sort3_(GLit& x, GLit& y, GLit& z) {
    if (x > y) std::swap(x, y);
    if (y > z) std::swap(y, z);
    if (x > y) std::swap(x, y);
  }

  GLit new_node_(Op op, const Fanins& fanin) {
    nodes_.push_back({op, fanin});
    sat_var_.resize(nodes_.size(), kNoVar);
    return static_cast<GLit>(2 * (nodes_.size() - 1));
  }

  GLit lookup_(Op op, const Fanins& fanin) {
    const auto [it, inserted] = table_.try_emplace({op, fanin}, 0);
    if (inserted) {
      it->second = new_node_(op, fanin);
    }
    return it->second;
  }

  /// Tseitin clauses for every unencoded node in the cone of \p root.
  /// Nodes are created after their fanins, so index order is topological.
  void encode_cone_(uint32_t root) {
    if (sat_var_[root] != kNoVar) return;
    std::vector<uint32_t> stack{root};
    std::vector<uint32_t> order;
    while (!stack.empty()) {
      const uint32_t id = stack.back();
      stack.pop_back();
      if (sat_var_[id] != kNoVar) continue;
      sat_var_[id] = solver_.new_var();
      order.push_back(id);
      const GNode& g = nodes_[id];
      const unsigned arity =
          g.op == Op::Maj ? 3 : (g.op == Op::Const || g.op == Op::Pi) ? 0 : 2;
      for (unsigned i = 0; i < arity; ++i) {
        stack.push_back(g.fanin[i] >> 1);
      }
    }
    for (const uint32_t id : order) {
      const GNode& g = nodes_[id];
      const Lit y = pos_lit(sat_var_[id]);
      const auto in = [&](unsigned i) {
        return pos_lit(sat_var_[g.fanin[i] >> 1]) ^ (g.fanin[i] & 1);
      };
      switch (g.op) {
        case Op::Const: solver_.add_clause({negate(y)}); break;
        case Op::Pi: break;
        case Op::And: and2_clauses(solver_, y, in(0), in(1)); break;
        case Op::Xor: xor2_clauses(solver_, y, in(0), in(1)); break;
        case Op::Maj: maj3_clauses(solver_, y, in(0), in(1), in(2)); break;
      }
    }
  }

  std::vector<GNode> nodes_;
  std::unordered_map<std::pair<Op, Fanins>, GLit, KeyHash> table_;
  std::vector<Var> sat_var_;
  SatSolver solver_;
};

/// Per-node simulation signatures of \p net over the shared fixed-seed words.
std::vector<Signature> signatures(const Network& net,
                                  const std::vector<std::vector<uint64_t>>& words) {
  std::vector<Signature> sig(net.size());
  for (unsigned w = 0; w < kSweepWords; ++w) {
    const std::vector<uint64_t> value = simulate_all_words(net, words[w]);
    for (std::size_t id = 0; id < net.size(); ++id) {
      sig[id][w] = value[id];
    }
  }
  return sig;
}

/// Normalizes \p s to bit 0 clear (a literal and its complement share one
/// signature); returns the complement that was applied.
uint32_t normalize(Signature& s) {
  const uint32_t flip = s[0] & 1;
  if (flip) {
    for (uint64_t& w : s) w = ~w;
  }
  return flip;
}

}  // namespace

EquivalenceCheck check_equivalence_sat(const Network& a, const Network& b,
                                       uint64_t conflict_budget) {
  using GLit = StrashMiter::GLit;
  EquivalenceCheck out;
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    out.result = EquivalenceResult::NotEquivalent;
    return out;
  }
  uint64_t sat_calls = 0, merged = 0, po_strashed = 0;
  const auto flush_counters = [&] {
    obs::count("equiv.sat_calls", sat_calls);
    obs::count("equiv.sweep.merged", merged);
    obs::count("equiv.po.strashed", po_strashed);
  };

  // Shared fixed-seed words; the first carries the all-0 / all-1 corners.
  std::mt19937_64 rng(0x5eed);
  std::vector<std::vector<uint64_t>> words(kSweepWords, std::vector<uint64_t>(a.num_pis()));
  for (unsigned w = 0; w < kSweepWords; ++w) {
    for (uint64_t& x : words[w]) {
      x = w == 0 ? (rng() & ~uint64_t{3}) | 2 : rng();
    }
  }

  StrashMiter m;
  std::vector<GLit> pis(a.num_pis());
  for (GLit& p : pis) p = m.add_pi();
  std::vector<GLit> la(a.size(), 0), lb(b.size(), 0);
  for (std::size_t i = 0; i < a.num_pis(); ++i) {
    la[a.pi(i)] = pis[i];
    lb[b.pi(i)] = pis[i];
  }

  // Side a: strash it and keep, per normalized signature, the first literal
  // that has it (the constant first of all).
  std::unordered_map<Signature, GLit, SignatureHash> by_sig{{Signature{}, 0}};
  {
    std::vector<Signature> sig = signatures(a, words);
    for (const NodeId id : a.topo_order()) {
      if (a.node(id).type != GateType::Pi) la[id] = m.lower(a, id, la);
      const uint32_t flip = normalize(sig[id]);
      by_sig.try_emplace(sig[id], la[id] ^ flip);
    }
  }
  const std::size_t a_nodes = m.size();

  // Side b, bottom-up: a node that strashes to new logic is proven against
  // the a-side literal with its signature; once proven it becomes an alias,
  // so its fanout re-hashes onto a's structure.
  {
    std::vector<Signature> sig = signatures(b, words);
    // New node -> a-side literal proven equal to its positive literal.
    constexpr GLit kNoMerge = ~GLit{0};
    std::unordered_map<uint32_t, GLit> swept;
    for (const NodeId id : b.topo_order()) {
      if (b.node(id).type == GateType::Pi) continue;
      const GLit l = m.lower(b, id, lb);
      lb[id] = l;
      if ((l >> 1) < a_nodes) continue;
      const uint32_t flip = normalize(sig[id]);
      const GLit x = l ^ flip;  // the polarity the signature describes
      const auto [done, fresh] = swept.try_emplace(l >> 1, kNoMerge);
      if (!fresh) {
        if (done->second != kNoMerge) lb[id] = done->second ^ (l & 1);
        continue;
      }
      const auto candidate = by_sig.find(sig[id]);
      if (candidate == by_sig.end()) continue;
      const GLit y = candidate->second;
      const Lit sx = m.sat_lit(x), sy = m.sat_lit(y);
      SatSolver& s = m.solver();
      ++sat_calls;
      if (s.solve({sx, negate(sy)}, kSweepConflicts) != SatResult::Unsat) continue;
      ++sat_calls;
      if (s.solve({negate(sx), sy}, kSweepConflicts) != SatResult::Unsat) continue;
      s.add_clause({negate(sx), sy});
      s.add_clause({sx, negate(sy)});
      ++merged;
      done->second = y ^ (x & 1);
      lb[id] = y ^ flip;
    }
  }

  // Output miters, only where the literals still differ.
  for (std::size_t p = 0; p < a.num_pos(); ++p) {
    const GLit ya = la[a.po(p)];
    const GLit yb = lb[b.po(p)];
    if (ya == yb) {
      ++po_strashed;
      continue;
    }
    SatSolver& s = m.solver();
    const Lit sa = m.sat_lit(ya), sb = m.sat_lit(yb);
    const Lit diff = pos_lit(s.new_var());
    xor2_clauses(s, diff, sa, sb);
    ++sat_calls;
    const SatResult r = s.solve({diff}, conflict_budget);
    if (r == SatResult::Sat) {
      out.result = EquivalenceResult::NotEquivalent;
      out.failing_output = p;
      for (const GLit pl : pis) {
        out.counterexample.push_back(m.model(pl));
      }
      flush_counters();
      return out;
    }
    if (r == SatResult::Unknown) {
      out.result = EquivalenceResult::Unknown;
      flush_counters();
      return out;
    }
  }
  out.result = EquivalenceResult::Equivalent;
  flush_counters();
  return out;
}

EquivalenceCheck check_equivalence(const Network& a, const Network& b, unsigned sim_rounds,
                                   uint64_t conflict_budget) {
  EquivalenceCheck out;
  if (!random_simulation_equal(a, b, sim_rounds)) {
    out.result = EquivalenceResult::NotEquivalent;
    return out;
  }
  return check_equivalence_sat(a, b, conflict_budget);
}

}  // namespace t1sfq
