#pragma once
/// \file simulation.hpp
/// \brief Word-parallel functional simulation of networks.
///
/// Simulation serves three purposes in this library: verifying benchmark
/// generators against bit-exact software models, checking that every flow
/// stage preserves the combinational function, and computing cut functions
/// during T1 detection. DFFs are treated as transparent (they only balance
/// timing), and T1 ports evaluate their XOR3/MAJ3/OR3 output functions.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "network/network.hpp"

namespace t1sfq {

/// Evaluates the network on one assignment of 64 parallel input patterns:
/// `pi_words[i]` holds 64 values for PI i. Returns one word per PO.
std::vector<uint64_t> simulate_words(const Network& net, const std::vector<uint64_t>& pi_words);

/// Evaluates the network on a single Boolean input vector.
std::vector<bool> simulate(const Network& net, const std::vector<bool>& pi_values);

/// Node values (one word per node) for one word-parallel assignment;
/// used by passes that need internal values, not just POs. \p topo_order is
/// `net.topo_order()` when the caller already holds it (multi-round signature
/// builders compute it once); empty computes it here.
std::vector<uint64_t> simulate_all_words(const Network& net,
                                         const std::vector<uint64_t>& pi_words,
                                         std::span<const NodeId> topo_order = {});

/// Exhaustive simulation: requires `num_pis() <= 16`. Returns, per PO, the
/// complete truth table over the PIs (PI 0 is variable 0).
std::vector<TruthTable> simulate_truth_tables(const Network& net);

/// Draws `rounds` word-parallel random assignments (64*rounds vectors) and
/// returns true iff the two networks agree on every PO for all of them.
/// Networks must have matching PI/PO counts.
bool random_simulation_equal(const Network& a, const Network& b, unsigned rounds = 16,
                             uint64_t seed = 0x5eed);

}  // namespace t1sfq
