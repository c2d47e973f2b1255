#pragma once
/// \file equivalence.hpp
/// \brief Combinational equivalence checking (random simulation + swept SAT miter).
///
/// Every stage of the T1 flow must preserve the combinational function of the
/// network (DFFs are timing-only, T1 ports compute XOR3/MAJ3/OR3). This module
/// provides the two standard checks: fast word-parallel random simulation as a
/// falsifier, and a complete SAT proof.
///
/// The proof is a structurally hashed, SAT-swept miter (Kuehlmann & Krohm,
/// DAC'97; Mishchenko et al., ICCAD'06). Both networks lower onto one
/// AND/XOR/MAJ graph over complemented literals, so logic they share lands on
/// the same literal. The second network's remaining nodes are then proven,
/// bottom-up, against first-network nodes with the same simulation signature
/// and merged, and only outputs whose literals still differ get a miter. The
/// cost therefore follows the difference between the networks, not their
/// size: a pass guard comparing a network before and after a local edit
/// proves little more than the edit.

#include <optional>
#include <vector>

#include "network/network.hpp"
#include "solver/sat.hpp"

namespace t1sfq {

/// Tseitin-encodes the network into \p solver. Returns per-node literals;
/// PIs get fresh variables (shared via \p pi_lits if non-empty, so two
/// networks can be encoded over the same inputs for a miter).
std::vector<Lit> encode_network(const Network& net, SatSolver& solver,
                                std::vector<Lit>& pi_lits);

enum class EquivalenceResult { Equivalent, NotEquivalent, Unknown };

struct EquivalenceCheck {
  EquivalenceResult result = EquivalenceResult::Unknown;
  /// When NotEquivalent: a PI assignment on which the networks differ.
  std::vector<bool> counterexample;
  std::size_t failing_output = 0;
};

/// Complete check: the swept miter described above. Sweep proofs run under a
/// small internal conflict cap; a pair they cannot settle stays unmerged and
/// is covered by its outputs' miters. \p conflict_budget caps each output
/// miter (0 = unlimited); the first output that exhausts it makes the result
/// Unknown. Work is counted in the `equiv.*` obs counters.
EquivalenceCheck check_equivalence_sat(const Network& a, const Network& b,
                                       uint64_t conflict_budget = 0);

/// Two-tier convenience: random simulation first (fast falsification), then a
/// SAT proof. Returns Equivalent only when SAT proved it.
EquivalenceCheck check_equivalence(const Network& a, const Network& b,
                                   unsigned sim_rounds = 8, uint64_t conflict_budget = 0);

}  // namespace t1sfq
