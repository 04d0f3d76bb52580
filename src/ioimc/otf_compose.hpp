#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ioimc/bisimulation.hpp"
#include "ioimc/model.hpp"

namespace imcdft {
class WorkerPool;  // common/worker_pool.hpp
}

/// \file otf_compose.hpp
/// The fused compose-and-minimize engine: parallel composition that never
/// materializes the full reachable product.
///
/// otfComposeAggregate(a, b, hidden, opts) computes — in one pass — what
/// the classic per-step chain
///
///     aggregate(collapseUnobservableSinks(hide(compose(a, b), hidden)))
///
/// computes in four, while keeping only a shrinking *live region* of the
/// product in memory:
///
///  1. the synchronized product is explored breadth-first, with the
///     to-be-hidden outputs already internal (so the weak bisimulation has
///     its tau structure from the start);
///  2. every time the live region doubles, a signature-based refinement
///     runs over the visited states with all unexpanded frontier states
///     pinned to singleton classes (otf_partition.hpp).  Multi-member
///     classes — necessarily all expanded, with identical futures even
///     beyond the frontier — collapse onto their lowest-id member;
///  3. edges into collapsed states are redirected to the representative,
///     the collapsed states' subtrees are dropped, and frontier states
///     that became unreachable are pruned from the work queue: only class
///     representatives are ever expanded further;
///  4. the final live graph goes through the *existing* sink-collapse and
///     weak-quotient machinery, is canonically renumbered, and re-verified
///     as a fixpoint of the existing refinement.
///
/// Because each collapse merges genuinely weakly-bisimilar product states
/// (see otf_partition.hpp) and the final model is the canonical form of
/// the minimal quotient, the result is byte-identical to the classic
/// chain's — every downstream measure is bit-identical — while the peak
/// number of live states/transitions stays at the scale of the running
/// quotient instead of the full product.  Any invariant failure is
/// reported (never silently absorbed) so the caller can fall back to the
/// classic path; the engine wires this as EngineOptions::onTheFly.

namespace imcdft::ioimc::otf {

struct OtfOptions {
  WeakOptions weak;
  /// Apply collapseUnobservableSinks to the reduced graph (must mirror
  /// EngineOptions::collapseSinks of the classic path being replaced).
  bool collapseSinks = true;
  /// Run the first refinement when this many states are live.  Products
  /// smaller than this are simply explored whole (the classic quotient
  /// then still shrinks them at the end).
  std::size_t refineThreshold = 256;
  /// Adaptive refinement cadence: after a pass leaves L states live, the
  /// next pass runs when the live region reaches cadence * L.  An
  /// unproductive pass (it removed almost nothing) backs the working
  /// cadence off (doubling, capped at 8x this base); a productive pass
  /// resets it.  2.0 with no backoff is the old fixed-doubling policy.
  /// The cadence decides only *when* passes run, never what they compute:
  /// the final quotient + canonical renumbering is the same for every
  /// value (the engine's tail reaches the minimal quotient regardless), so
  /// this knob trades peak live states against wall time bit-neutrally.
  double refineCadence = 2.0;
  /// Caller-owned pool for the per-iteration signature encoding inside the
  /// partial refinement, reused across composition steps so a chain of
  /// fused steps does not respawn worker threads per step.  Null is the
  /// sequential reference path; any pool yields the same bytes (see
  /// otf_partition.hpp).  The quotient tail takes its pool from
  /// weak.encodePool.  Must outlive the call.  Not owned.
  WorkerPool* encodePool = nullptr;
  /// Safety valve: fail (so the caller falls back) when the live region
  /// exceeds this many states.  0 = unlimited.
  std::size_t maxLiveStates = 0;
};

struct OtfStats {
  /// Peak size of the live region — the fused step's peak-memory proxy,
  /// comparable against the classic path's full product size.
  std::size_t peakLiveStates = 0;
  std::size_t peakLiveTransitions = 0;
  /// Distinct product states ever visited (including re-expansions of
  /// revived states).
  std::size_t statesVisited = 0;
  std::size_t refinementRounds = 0;     ///< refinement passes actually run
  /// Passes the old fixed-doubling policy would have run but the adaptive
  /// cadence deferred (the knob's effect, measurable per step).
  std::size_t refinePassesSkipped = 0;
  /// Workers of the intra-step encoding pool (0 = never went parallel).
  unsigned intraWorkers = 0;
  std::size_t statesMerged = 0;         ///< collapsed into a representative
  std::size_t statesSinkCollapsed = 0;  ///< absorbed by the inline sink collapse
  std::size_t statesPruned = 0;         ///< became unreachable, dropped
  /// Wall-time breakdown of the fused step.  expand covers the frontier
  /// loop minus in-loop reductions; refine covers the partial weak
  /// refinement + reachability pruning; collapse covers the inline and
  /// final sink collapses; renumber covers the final renumbering plus the
  /// quotient tail (aggregation and its fixpoint verification).
  double expandSeconds = 0.0;
  double refineSeconds = 0.0;
  double collapseSeconds = 0.0;
  double renumberSeconds = 0.0;
};

struct OtfResult {
  bool ok = false;
  /// Set when !ok: why the fused engine gave up (the caller's Diagnostic).
  std::string failureReason;
  /// The aggregated composite (byte-identical to the classic chain).
  std::optional<IOIMC> model;
  OtfStats stats;
};

/// Runs the fused engine.  \p hiddenOutputs are the composite outputs the
/// classic path would hide right after this composition (they must all be
/// outputs of the composite signature).  Incompatible operands surface as
/// !ok with the compose() error text — the classic fallback then throws
/// the identical error.
OtfResult otfComposeAggregate(const IOIMC& a, const IOIMC& b,
                              const std::vector<ActionId>& hiddenOutputs,
                              const OtfOptions& opts = {});

}  // namespace imcdft::ioimc::otf
