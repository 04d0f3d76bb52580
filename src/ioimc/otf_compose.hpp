#pragma once

#include <vector>

#include "ioimc/bisimulation.hpp"
#include "ioimc/model.hpp"

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
///  1. the synchronized product is explored depth-first (LIFO), with the
///     to-be-hidden outputs already internal (so the weak bisimulation has
///     its tau structure from the start);
///  2. every time the live region doubles, the engine copies it into a
///     dense IOIMC snapshot (frontier states with empty rows) and runs the
///     whole-model kernels on it: the sink collapse's observability
///     marking (ops.hpp, detail::observableStates) and the weak refinement
///     (bisimulation.hpp, detail::weakBisimulationPinned), each with every
///     unexpanded frontier state pinned — observable, alone in its class,
///     never stable.  Multi-member classes — necessarily all expanded, with
///     identical futures even beyond the frontier — collapse onto their
///     lowest-id member;
///  3. edges into collapsed states are redirected to the representative,
///     the collapsed states' subtrees are dropped, and frontier states
///     that became unreachable are pruned from the work queue: only class
///     representatives are ever expanded further;
///  4. the final live graph goes through the *existing* sink-collapse and
///     weak-quotient machinery, is canonically renumbered, and re-verified
///     as a fixpoint of the existing refinement.
///
/// The pinning makes a collapse final before exploration ends: two
/// expanded states only share a class when their signatures agree
/// *including* the singleton classes of the frontier states they reach, so
/// everything still unknown about the product lies behind the same
/// frontier states for both, and the partition (extended with singletons
/// for the unvisited remainder) is a weak bisimulation of the full
/// product.  Because each collapse merges genuinely weakly-bisimilar
/// product states and the final model is the canonical form of the minimal
/// quotient, the result is byte-identical to the classic
/// chain's — every downstream measure is bit-identical — while the peak
/// number of live states/transitions stays at the scale of the running
/// quotient instead of the full product.  A violated invariant throws
/// ModelError: a fused step either returns those bytes or fails.
/// analysis::Reference::Production (and DeclarationOrder) runs it only on
/// the steps whose classic product outgrows a request cap, so an uncapped
/// run never fuses and is the classic reference it is checked against;
/// FusedChain runs it on every step.
///
/// A step runs entirely on the calling thread, exploration and every
/// refinement alike; the engine's only concurrency is one layer up, where
/// independent modules are aggregated on separate workers.

namespace imcdft::ioimc::otf {

struct OtfOptions {
  WeakOptions weak;
  /// Run the first refinement when this many states are live.  Products
  /// smaller than this are simply explored whole (the classic quotient
  /// then still shrinks them at the end).
  std::size_t refineThreshold = 256;
};

struct OtfStats {
  /// Peak size of the live region — the fused step's peak-memory proxy,
  /// comparable against the classic path's full product size.
  std::size_t peakLiveStates = 0;
  std::size_t peakLiveTransitions = 0;
  /// Distinct product states ever visited (including re-expansions of
  /// revived states).
  std::size_t statesVisited = 0;
  std::size_t refinementRounds = 0;  ///< refinement passes actually run
};

struct OtfResult {
  /// The aggregated composite (byte-identical to the classic chain).
  IOIMC model;
  OtfStats stats;
};

/// Runs the fused engine.  \p hiddenOutputs are the composite outputs the
/// classic path would hide right after this composition (they must all be
/// outputs of the composite signature).  Incompatible operands throw the
/// compose() error, a violated engine invariant throws ModelError, and an
/// exhausted budget (opts.weak.cancel) unwinds as BudgetExceeded.
OtfResult otfComposeAggregate(const IOIMC& a, const IOIMC& b,
                              const std::vector<ActionId>& hiddenOutputs,
                              const OtfOptions& opts = {});

}  // namespace imcdft::ioimc::otf
