#pragma once

#include <cstdint>
#include <vector>

#include "ioimc/model.hpp"
#include "ioimc/tau_closure.hpp"

/// \file bisimulation.hpp
/// State-space aggregation (step 4 of the paper's algorithm).
///
/// Weak bisimulation for I/O-IMC follows Hermanns' IMC weak bisimulation
/// [12] extended with the I/O conventions of the paper:
///  * internal transitions are abstracted (tau-saturation);
///  * maximal progress: Markovian behavior is measured only in *stable*
///    states.  A state is stable when it enables no internal transition and
///    (since I/O-IMC outputs are locally controlled and immediate) no output
///    transition;
///  * implicit input self-loops are taken into account;
///  * atomic state labels (e.g. the monitor's "down") are respected.
///
/// The implementation is signature-based partition refinement (Blom/Orzan
/// style) over the tau-closure that re-signs only the states whose
/// signature can have changed (those that left the largest piece of a split
/// class, and those reading one), followed by quotient construction that
/// writes one CSR row per class straight from the converged signatures.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::ioimc {

/// A computed partition of a model's states.
struct Partition {
  std::vector<std::uint32_t> classOf;  ///< state -> class index
  std::uint32_t numClasses = 0;
};

/// Options for weak bisimulation.  The refinement runs on the calling
/// thread; the only concurrency is one layer up, where the engine
/// aggregates independent modules on separate workers.
struct WeakOptions {
  /// Cooperative cancellation: when set, every refinement pass calls
  /// CancelToken::checkpoint() once, and again every 1024 states, so an over-budget
  /// request unwinds from inside the aggregation instead of running it to
  /// completion.  Never changes a result — only whether it is produced.
  /// Not owned; the caller keeps the token alive across the call.
  const CancelToken* cancel = nullptr;
};

/// Computes the weak bisimulation partition of \p m.
Partition weakBisimulation(const IOIMC& m, const WeakOptions& opts = {});

/// Computes the strong bisimulation partition (no tau abstraction, no
/// maximal progress — on a model without interactive transitions this is
/// the coarsest exact aggregation of its CTMC).  \p cancel, when set, is
/// checkpointed once per refinement pass (see WeakOptions::cancel).
Partition strongBisimulation(const IOIMC& m,
                             const CancelToken* cancel = nullptr);

/// Builds the quotient model induced by the weak-bisimulation partition,
/// restricted to the classes reachable from the initial one and numbered
/// as restrictToReachable() numbers states.  All internal actions of the
/// quotient are collapsed to the canonical action "__tau"; inert
/// (intra-class) internal moves disappear.
IOIMC weakQuotient(const IOIMC& m, const WeakOptions& opts = {});

/// Builds the quotient induced by strongBisimulation().
IOIMC strongQuotient(const IOIMC& m);

/// Convenience: weakQuotient followed by canonical renumbering
/// (ioimc::canonicalRenumber).
IOIMC aggregate(const IOIMC& m, const WeakOptions& opts = {});

/// Work done by aggregateFixpoint(), for the trace spans that run it.
struct RefineStats {
  std::uint64_t rounds = 0;   ///< passes of the quotient refinements
  /// Signatures encoded by every refinement: dirty states only (moved out
  /// of the largest piece of a split class, or reading a state that did),
  /// so neither states alone in their class nor clean states count.
  std::uint64_t encoded = 0;
  std::uint64_t fixpointPasses = 0;  ///< quotients built
};

/// aggregate() iterated until the result is a fixpoint of the refinement
/// (weakBisimulation finds no further merges).  One quotient pass is not
/// always a fixpoint, for two reasons:
///  * floating-point summation order: the refinement compares rates summed
///    per class of its intermediate partitions, while the quotient's rates
///    are pre-summed per final class, and the two sums can round
///    differently.  This is the one corpus case: a 166-state hecs step
///    whose actions are all internal has a 9-state quotient with one tau
///    edge, which the second pass takes to 8 (the count the refinement
///    reaches in exact rational arithmetic);
///  * divergence: a state that can only cycle on internal moves has no
///    stable derivative, so the refinement tells it apart from a stable
///    state without behaviour; the quotient drops the class's inert tau
///    loop, the class turns stable, and the next pass merges it (random
///    pairs of test_flat_refactor.cpp, e.g. seed 14: 18 -> 8 -> 7 states).
/// The fused on-the-fly engine and the classic chain only meet in the
/// *minimal* quotient, so the engine aggregates every composition step to
/// fixpoint.
/// Terminates because the state count strictly decreases; on typical
/// models it converges after the first pass.  \p canonicalComplete, when
/// non-null, receives whether the last pass's canonical renumbering
/// separated every state (see ioimc::canonicalRenumber); \p stats, when
/// non-null, accumulates the work done.
IOIMC aggregateFixpoint(const IOIMC& m, const WeakOptions& opts = {},
                        bool* canonicalComplete = nullptr,
                        RefineStats* stats = nullptr);

namespace detail {

/// A weak-bisimulation partition and the tau closure it was refined over.
struct PinnedWeakPartition {
  Partition partition;
  TauClosure tau;
};

/// weakBisimulation() with the states flagged in \p pinned held apart:
/// each starts in a class of its own and never counts as stable, so it
/// enters other states' signatures through its class id only.  The fused
/// engine (otf_compose.cpp) runs it on a snapshot of its live region with
/// the unexplored frontier pinned.  Every checkpoint of the token in
/// \p opts reports \p site.
PinnedWeakPartition weakBisimulationPinned(
    const IOIMC& m, const std::vector<std::uint8_t>& pinned,
    const WeakOptions& opts, const char* site);

}  // namespace detail

}  // namespace imcdft::ioimc
