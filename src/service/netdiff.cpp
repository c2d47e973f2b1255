#include "service/netdiff.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

namespace t1sfq::service {

namespace {

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Per-node accumulated simulation signature over `pi_words[w][i]` rounds.
/// All rounds are simulated in one topological walk (round r of node v at
/// value[v * rounds + r]), folding the same per-round values in round order
/// as one `simulate_all_words` per round would.
std::vector<uint64_t> node_signatures(const Network& net,
                                      const std::vector<std::vector<uint64_t>>& pi_words) {
  const std::size_t rounds = pi_words.size();
  std::vector<uint64_t> value(net.size() * rounds, 0);
  for (std::size_t r = 0; r < rounds; ++r) {
    if (pi_words[r].size() != net.num_pis()) {
      throw std::invalid_argument("simulate: wrong number of PI words");
    }
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      value[net.pi(i) * rounds + r] = pi_words[r][i];
    }
  }
  const auto word = [&](NodeId v, std::size_t r) { return value[v * rounds + r]; };
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    uint64_t* out = &value[id * rounds];
    if (n.type == GateType::Pi) continue;  // seeded above
    if (n.type == GateType::T1Port) {
      const Node& body = net.node(n.fanin(0));
      for (std::size_t r = 0; r < rounds; ++r) {
        out[r] = Network::eval_word(GateType::T1Port, n.port, word(body.fanin(0), r),
                                    word(body.fanin(1), r), word(body.fanin(2), r));
      }
      continue;
    }
    for (std::size_t r = 0; r < rounds; ++r) {
      const uint64_t a = n.num_fanins > 0 ? word(n.fanin(0), r) : 0;
      const uint64_t b = n.num_fanins > 1 ? word(n.fanin(1), r) : 0;
      const uint64_t c = n.num_fanins > 2 ? word(n.fanin(2), r) : 0;
      out[r] = Network::eval_word(n.type, n.port, a, b, c);
    }
  }
  std::vector<uint64_t> acc(net.size(), 0xcbf29ce484222325ull);
  for (NodeId id = 0; id < net.size(); ++id) {
    for (std::size_t r = 0; r < rounds; ++r) {
      acc[id] = mix(acc[id], word(id, r));
    }
  }
  return acc;
}

/// Key grouping nodes that could possibly correspond: signature + cell kind.
uint64_t match_key(uint64_t sig, const Node& n) {
  uint64_t h = mix(sig, static_cast<uint64_t>(n.type));
  h = mix(h, static_cast<uint64_t>(n.port));
  return mix(h, n.num_fanins);
}

bool same_kind(const Node& a, const Node& b) {
  return a.type == b.type && a.num_fanins == b.num_fanins &&
         (a.type != GateType::T1Port || a.port == b.port);
}

}  // namespace

NetDiff diff_networks(const Network& base, const Network& edited,
                      unsigned sim_words, uint64_t seed) {
  NetDiff d;
  d.old_to_new.assign(base.size(), kNullNode);
  d.new_to_old.assign(edited.size(), kNullNode);
  if (base.num_pis() != edited.num_pis() || base.num_pos() != edited.num_pos()) {
    return d;
  }
  for (std::size_t i = 0; i < base.num_pis(); ++i) {
    if (base.pi_name(i) != edited.pi_name(i)) return d;
  }
  d.comparable = true;

  const auto match = [&](NodeId o, NodeId n) {
    d.old_to_new[o] = n;
    d.new_to_old[n] = o;
  };
  const auto unmatch = [&](NodeId o) {
    d.new_to_old[d.old_to_new[o]] = kNullNode;
    d.old_to_new[o] = kNullNode;
  };

  // PIs correspond by index — the edit model fixes the interface.
  for (std::size_t i = 0; i < base.num_pis(); ++i) {
    match(base.pi(i), edited.pi(i));
  }

  // --- Signature-anchored candidate matching --------------------------------
  std::vector<std::vector<uint64_t>> pi_words(sim_words);
  uint64_t state = seed;
  for (auto& words : pi_words) {
    words.resize(base.num_pis());
    for (auto& w : words) w = splitmix64(state);
  }
  const std::vector<uint64_t> sig_old = node_signatures(base, pi_words);
  const std::vector<uint64_t> sig_new = node_signatures(edited, pi_words);

  // Candidates grouped by match key: an open-addressed table of keys, each
  // slot heading a chain (`next_in_bucket`) of its nodes in id order.
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(16, 2 * edited.size()));
  std::vector<uint64_t> slot_key(slots, 0);
  std::vector<NodeId> slot_head(slots, kNullNode);
  std::vector<NodeId> slot_tail(slots, kNullNode);
  std::vector<NodeId> next_in_bucket(edited.size(), kNullNode);
  const auto slot_of = [&](uint64_t key) {
    std::size_t i = key & (slots - 1);
    while (slot_head[i] != kNullNode && slot_key[i] != key) i = (i + 1) & (slots - 1);
    return i;
  };
  for (NodeId n = 0; n < edited.size(); ++n) {
    if (edited.is_dead(n) || edited.node(n).type == GateType::Pi) continue;
    const uint64_t key = match_key(sig_new[n], edited.node(n));
    const std::size_t i = slot_of(key);
    if (slot_head[i] == kNullNode) {
      slot_key[i] = key;
      slot_head[i] = n;
    } else {
      next_in_bucket[slot_tail[i]] = n;
    }
    slot_tail[i] = n;
  }

  // Old nodes in id order: fanins are visited before fanouts, so the
  // fanin-correspondence score below sees settled matches.
  for (NodeId o = 0; o < base.size(); ++o) {
    if (base.is_dead(o) || base.node(o).type == GateType::Pi) continue;
    const Node& no = base.node(o);
    NodeId best = kNullNode;
    int best_score = -1;
    for (NodeId n = slot_head[slot_of(match_key(sig_old[o], no))]; n != kNullNode;
         n = next_in_bucket[n]) {
      if (d.new_to_old[n] != kNullNode) continue;
      const Node& nn = edited.node(n);
      if (!same_kind(no, nn)) continue;  // hash-collision guard
      int score = 0;
      for (uint8_t s = 0; s < no.num_fanins; ++s) {
        if (d.old_to_new[no.fanin(s)] == nn.fanin(s)) ++score;
      }
      if (score > best_score) {
        best_score = score;
        best = n;
      }
    }
    if (best != kNullNode) match(o, best);
  }

  // --- Structural match propagation -----------------------------------------
  // A function edit changes the simulated values of its entire transitive
  // fanout, so signature matching strands the whole downstream cone as
  // unmatched. Structure rescues it: walking old nodes in id (= topo) order
  // with the correspondence Φ (matches extended across replacement bridges),
  // an unmatched old node whose Φ-image fanins identify exactly one unmatched
  // new node of the same kind is the *same cell* — only its input values
  // changed — and is matched. A unique candidate of a different kind is the
  // edited cell itself: Φ bridges through it so its consumers keep
  // propagating, while the pair stays unmatched (dirty + dead + replacement).
  {
    std::vector<NodeId> phi = d.old_to_new;
    const auto fanin_key = [](const Node& n) {
      uint64_t h = 0x9e3779b97f4a7c15ull;
      h = mix(h, n.num_fanins);
      for (uint8_t s = 0; s < n.num_fanins; ++s) h = mix(h, n.fanin(s));
      return h;
    };
    std::unordered_map<uint64_t, std::vector<NodeId>> by_fanins;
    for (NodeId n = 0; n < edited.size(); ++n) {
      if (edited.is_dead(n) || d.new_to_old[n] != kNullNode) continue;
      const Node& nn = edited.node(n);
      if (nn.type == GateType::Pi || nn.num_fanins == 0) continue;
      by_fanins[fanin_key(nn)].push_back(n);
    }
    for (NodeId o = 0; o < base.size(); ++o) {
      if (base.is_dead(o)) continue;
      if (d.old_to_new[o] != kNullNode) {
        phi[o] = d.old_to_new[o];
        continue;
      }
      const Node& no = base.node(o);
      if (no.type == GateType::Pi || no.num_fanins == 0) continue;
      Node image = no;  // the fanin vector this node has on the edited side
      bool determined = true;
      for (uint8_t s = 0; determined && s < no.num_fanins; ++s) {
        const NodeId f = phi[no.fanin(s)];
        if (f == kNullNode) determined = false;
        image.fanins[s] = f;
      }
      if (!determined) continue;
      const auto it = by_fanins.find(fanin_key(image));
      if (it == by_fanins.end()) continue;
      NodeId same = kNullNode, other = kNullNode;
      unsigned same_count = 0, other_count = 0;
      for (const NodeId n : it->second) {
        if (d.new_to_old[n] != kNullNode) continue;
        const Node& nn = edited.node(n);
        if (nn.num_fanins != no.num_fanins) continue;
        bool exact = true;
        for (uint8_t s = 0; exact && s < no.num_fanins; ++s) {
          exact = nn.fanin(s) == image.fanins[s];
        }
        if (!exact) continue;
        if (same_kind(no, nn)) {
          same = n;
          ++same_count;
        } else {
          other = n;
          ++other_count;
        }
      }
      if (same_count == 1) {
        match(o, same);
        phi[o] = same;
      } else if (same_count == 0 && other_count == 1) {
        phi[o] = other;  // the edit itself: bridge, stays a replacement pair
      }
    }
  }

  // --- Structural verification to a fixed point -----------------------------
  // A surviving pair must agree on kind, and every fanin/PO edge must be a
  // matched correspondence or a single consistent replacement per source.
  std::vector<NodeId> repl_target;
  for (bool changed = true; changed;) {
    changed = false;
    repl_target.assign(base.size(), kNullNode);
    for (NodeId o = 0; o < base.size(); ++o) {
      const NodeId n = d.old_to_new[o];
      if (base.is_dead(o) || n == kNullNode) continue;
      const Node& no = base.node(o);
      if (no.type == GateType::Pi) continue;
      const Node& nn = edited.node(n);
      bool ok = same_kind(no, nn);
      for (uint8_t s = 0; ok && s < no.num_fanins; ++s) {
        const NodeId fo = no.fanin(s);
        const NodeId fn = nn.fanin(s);
        if (d.old_to_new[fo] == fn) continue;
        if (d.old_to_new[fo] == kNullNode) {
          if (repl_target[fo] == kNullNode) {
            repl_target[fo] = fn;
          } else if (repl_target[fo] != fn) {
            ok = false;  // one source cannot be rerouted to two targets
          }
        } else {
          ok = false;  // fanin moved between surviving nodes
        }
      }
      if (!ok) {
        unmatch(o);
        changed = true;
      }
    }
    if (changed) continue;  // demotions invalidate this round's replacements

    d.po_reroute = false;
    for (std::size_t i = 0; i < base.num_pos(); ++i) {
      const NodeId po_old = base.po(i);
      const NodeId po_new = edited.po(i);
      if (d.old_to_new[po_old] == po_new) continue;
      if (d.old_to_new[po_old] == kNullNode) {
        if (repl_target[po_old] == kNullNode) {
          repl_target[po_old] = po_new;
        } else if (repl_target[po_old] != po_new) {
          d.po_reroute = true;
        }
      } else {
        d.po_reroute = true;  // driver survives but this PO left it
      }
    }
  }

  for (NodeId n = 0; n < edited.size(); ++n) {
    if (!edited.is_dead(n) && d.new_to_old[n] == kNullNode) {
      d.dirty_new.push_back(n);
    }
  }
  for (NodeId o = 0; o < base.size(); ++o) {
    if (!base.is_dead(o) && d.old_to_new[o] == kNullNode) {
      d.dead_old.push_back(o);
      if (repl_target[o] != kNullNode) {
        d.replacements.push_back({o, repl_target[o]});
      }
    }
  }
  return d;
}

}  // namespace t1sfq::service
