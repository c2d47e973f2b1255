#pragma once
/// \file t1_detection.hpp
/// \brief Stage 1 of the flow: T1-FF detection and network rewrite (paper §II-A).
///
/// Cut enumeration (3-leaf priority cuts) followed by Boolean matching: every
/// set of 2..5 cuts that share the same three leaves and compute
/// T1-implementable functions is a candidate. The candidate's base gain is
///
///     ΔA = Σ A(MFFC(u_i)) − A_T1(C)                (paper eq. 2)
///
/// i.e. the area of everything that disappears when the roots are rerouted to
/// T1 ports, minus the cell (plus inverters for C*/Q*). On raw generator
/// netlists that difference is large and eq. 2 alone recovers the paper's
/// Table I. After pre-mapping optimization it is razor thin — an optimized
/// full adder is a xor3+maj3 pair at 28 JJ against the 29 JJ T1 body — and
/// raw eq. 2 silently converts nothing. `dff_aware` therefore extends the
/// gain with the terms the unified cost model (cost/cost_model.hpp) can see
/// locally:
///   * clock-network shares — k dying clocked cells fund one clocked T1 body,
///   * splitter collapse — leaves feeding several cone gates feed the
///     time-multiplexed T1 inputs exactly once,
///   * phase alignment — dying interior/root DFF spines, minus the eq.-3
///     landing chains the T1 inputs need (landing DFFs that cannot ride an
///     existing spine are charged only when `charge_dedicated_landings`).
/// Candidates with ΔA > 0 are committed greedily in descending-gain order; a
/// candidate is skipped when a previous commitment consumed any of its roots,
/// cone nodes or leaves ("found" vs "used" in Table I).
///
/// Detection runs up to `max_rounds` times: every committed T1 reshapes the
/// stage landscape (a carry port lands slot-aligned for free in the next
/// adder), so gains that were negative in one round turn positive in the
/// next and chain fusion cascades through ripple structures.

#include <cstdint>
#include <vector>

#include "cost/cost_model.hpp"
#include "network/network.hpp"
#include "sfq/cell_library.hpp"

namespace t1sfq {

class IncrementalView;

/// How the phase-alignment DFF delta enters the detection gain.
enum class T1DffPricing {
  Off,      ///< raw eq. 2 terms only (no DFF arithmetic)
  /// Net DFF savings count, charges never veto a structural win
  /// (max(0, delta)). Recommended: per-candidate charges at ASAP stages
  /// assume the neighbours stay unconverted, which systematically
  /// overprices chain fusion — measured on the 16-bit seed adder, full
  /// charging converts 8/15 full adders for 1459 JJ where savings-only
  /// converts 15/15 for 1165 JJ.
  Savings,
  Full,     ///< signed delta incl. dedicated landing DFFs (paper eq. 4)
};

struct T1DetectionParams {
  unsigned max_cuts = 16;           ///< priority cuts kept per node
  bool require_positive_gain = true;  ///< commit only when ΔA > 0
  unsigned min_cuts_per_group = 2;  ///< paper: 2 <= n <= 5
  unsigned max_cuts_per_group = 5;
  /// Extend eq. 2 with the unified-model clock-share and splitter-collapse
  /// terms (false reproduces the paper's raw gate-area pricing).
  bool dff_aware = true;
  /// DFF-alignment term mode (only meaningful when `dff_aware`).
  T1DffPricing dff_pricing = T1DffPricing::Savings;
  /// Detection rounds (each re-enumerates cuts on the rewritten network);
  /// 1 reproduces single-shot detection.
  unsigned max_rounds = 3;
  /// Schedule-aware guard: when the ASAP estimate alone would reject a
  /// candidate, run bounded coordinate-descent sweeps (ScheduleRefiner)
  /// around the new body and accept if the refined schedule recovers the
  /// loss. ASAP stages cannot align voter-class landings; a few local sweeps
  /// can — the final phase assignment then realizes the refined schedule.
  /// Only active when the guard is (`require_positive_gain && dff_aware`).
  /// Default on: the full acceptance rule (refined estimate + the DFF-lambda
  /// premium below + the counterfactual latency envelope) plus the
  /// keep-the-better-result fallback make the rescue an improvement or a
  /// no-op by construction — on the shrink-8 suite it converts the
  /// voter-class majority trees the ASAP guard declines (67 -> 92 T1, area
  /// 7400 -> 7210 JJ at +5 DFFs, depth unchanged) and leaves every other
  /// Table-I figure alone (unpriced, the raw rescue bought that win with +30
  /// landing DFFs and one extra pipeline cycle).
  bool schedule_aware_guard = true;
  unsigned guard_sweeps = 2;  ///< refiner sweeps per rescued candidate
  unsigned guard_radius = 3;  ///< BFS radius of the refiner's movable set
  /// DFF-trade term of the rescue's acceptance rule, mirroring the rewrite
  /// ranking's `jj + dff_marginal * depth` idea: a rescued candidate is
  /// charged `guard_dff_lambda * dff_jj` for every planned DFF its commit
  /// adds to the maintained (ASAP) plan. The refined estimate alone is
  /// optimistic — each rescue's scratch descent assumes the network realigns
  /// around it, and the final assignment cannot realize every rescue's
  /// private schedule at once — so the landing chains a rescue actually
  /// commits must be paid for at a premium: they stretch the spines later
  /// candidates price against. Calibrated on the shrink-8 suite: 4.0 keeps
  /// every voter-class fusion win while cutting the raw rescue's DFF bloat
  /// roughly in half. 0 restores the raw refined-estimate rule.
  double guard_dff_lambda = 4.0;
  /// Latency budget of the schedule-aware acceptance rule: with the rescue
  /// active, no commit (rescued or plain) may push the balanced sink more
  /// than this many clock cycles past where the *ASAP-only counterfactual*
  /// flow ends. The counterfactual is measured, not assumed — the same
  /// detection with the rescue off — and whichever result ends with the
  /// better unified-JJ estimate and no deeper sink is kept. The estimate
  /// prices area only; fusion cascades on rescue-reshaped landscapes
  /// otherwise spend whole pipeline cycles for single-digit JJ margins
  /// (measured: the optimized voter pays +1 cycle for 2 JJ), which Table-I
  /// reports as a depth regression. The default 0 makes the rescue
  /// latency-neutral by construction: it may fuse freely inside the latency
  /// the ASAP-only guard would have spent anyway.
  ///
  /// The counterfactual is the primary run, and the schedule-aware run only
  /// executes when it could end differently. Both start from the same
  /// network and price the same candidates; the schedule-aware guard decides
  /// a commit differently only (a) when it accepts past the latency cap, or
  /// (b) when the ASAP estimate rejects and the rescue (the same refiner
  /// call, which never mutates the view) accepts within the cap. The primary
  /// run logs both kinds — it asks the rescue only for rejects within the
  /// round's entry cycle, which every cap admits, and logs a reject past it
  /// as a possible rescue — so once its final latency fixes the cap a log
  /// with neither proves the schedule-aware run would repeat it decision for
  /// decision, and the keep-the-better comparison would keep that identical
  /// result. Only otherwise does the schedule-aware run execute (from a copy
  /// of the input, reusing the primary run's rescue verdicts through the
  /// first divergence; `detect.guard.reruns`). The result is bit-identical
  /// to always running both.
  unsigned guard_latency_budget = 0;
  /// Gate bound of the measured counterfactual: it only runs when the
  /// network has at most this many gates. Above the bound the latency
  /// envelope is instead anchored at the *maintained* incremental depth
  /// bound — the persistent view's output stage at round entry, the same
  /// anchor `detect_round` ratchets the cap to anyway — with
  /// `guard_latency_budget` cycles on top, detection runs once in
  /// schedule-aware mode, and the keep-the-better-result fallback is
  /// skipped. Strictly more conservative than the counterfactual (commits
  /// may not deepen the sink past the *input* latency instead of past the
  /// ASAP-only *result* latency), so the no-depth-regression guarantee is
  /// preserved on large netlists without a possible second run.
  ///
  /// Measured on an 80k-gate planted-cone random net (T1 flow, optimizer
  /// off, five gate numberings): with no bound the counterfactual's log
  /// triggers the schedule-aware run (4 detection rounds instead of 2, 840
  /// candidates instead of 400), detection takes 2.1x as long and the whole
  /// flow 1.5x, for 822-824 fewer JJ (0.005%) and about 170 fewer DFFs at
  /// the same depth. The bound keeps that time.
  std::size_t guard_probe_max_gates = 20000;
};

struct T1DetectionStats {
  std::size_t found = 0;      ///< profitable candidate groups before conflicts
  std::size_t used = 0;       ///< T1 cells actually instantiated
  int64_t estimated_gain = 0; ///< Σ ΔA over the committed groups (unified JJ)
};

/// Rewrites \p net in place and compacts it (node ids are NOT stable across
/// the call); returns statistics. The \p model supplies the unified JJ
/// pricing (library, splitter/clock accounting, clocking for the spine
/// arithmetic) — pass the flow's own model so detection prices at the phase
/// count that will actually be scheduled.
T1DetectionStats detect_and_replace_t1(Network& net, const CostModel& model,
                                       const T1DetectionParams& params = {});

/// As above, but detection maintains the caller's \p reuse_view (over \p net)
/// instead of building a private one, and *keeps it alive* across the final
/// compaction by translating it through the cleanup remap
/// (`IncrementalView::rebind_after_cleanup`) — so the assignment stage can
/// inherit the detection-built view, dirty set and all, instead of paying a
/// fresh O(n) build. Identical decisions and network results. The view
/// should be plan-tracking when the commit guard is active
/// (`require_positive_gain && dff_aware`); a view without plan tracking is
/// not adopted but rebuilt from the final network before returning, so the
/// caller's view is valid either way.
T1DetectionStats detect_and_replace_t1(Network& net, const CostModel& model,
                                       const T1DetectionParams& params,
                                       IncrementalView* reuse_view);

/// Convenience overload for library-only callers (tests, examples): prices
/// with default accounting and 4-phase clocking. Do not use from a flow with
/// a different phase count — the DFF-aware terms and the commit gatekeeper
/// would be evaluated at the wrong clocking.
T1DetectionStats detect_and_replace_t1(Network& net, const CellLibrary& lib,
                                       const T1DetectionParams& params = {});

}  // namespace t1sfq
