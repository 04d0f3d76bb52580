#pragma once

#include <cstdint>
#include <vector>

#include "ioimc/model.hpp"

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
/// style) over the tau-closure, which for our model sizes is simple and
/// fast, followed by quotient construction from the converged signatures.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
class WorkerPool;   // common/worker_pool.hpp
}

namespace imcdft::ioimc {

/// A computed partition of a model's states.
struct Partition {
  std::vector<std::uint32_t> classOf;  ///< state -> class index
  std::uint32_t numClasses = 0;
};

/// Options for weak bisimulation.
struct WeakOptions {
  /// Treat states with enabled output transitions as unstable (I/O-IMC
  /// urgency).  Disable to get plain IMC weak bisimulation.
  bool outputsUrgent = true;
  /// Cooperative cancellation: when set, every refinement iteration calls
  /// CancelToken::checkpoint() once per state pass, so an over-budget
  /// request unwinds from inside the aggregation instead of running it to
  /// completion.  Never changes a result — only whether it is produced.
  /// Not owned; the caller keeps the token alive across the call.
  const CancelToken* cancel = nullptr;
  /// Borrowed pool for the per-iteration signature-encoding pass of the
  /// weak refinement (null = sequential).  Encoding is split into fixed
  /// state blocks filled concurrently, then interned sequentially in
  /// ascending state order, so the partition — and every byte downstream —
  /// is identical with or without a pool; only small models (where the
  /// pool costs more than it saves) skip the split.  Deliberately excluded
  /// from semantic cache keys for the same reason.  Not owned; the caller
  /// keeps it alive across the call.
  WorkerPool* encodePool = nullptr;
};

/// Computes the weak bisimulation partition of \p m.
Partition weakBisimulation(const IOIMC& m, const WeakOptions& opts = {});

/// Computes the strong bisimulation partition (no tau abstraction, no
/// maximal progress — on a model without interactive transitions this is
/// the coarsest exact aggregation of its CTMC).  \p cancel, when set, is
/// checkpointed once per refinement pass (see WeakOptions::cancel).
Partition strongBisimulation(const IOIMC& m,
                             const CancelToken* cancel = nullptr);

/// Builds the quotient model induced by a weak-bisimulation partition.
/// All internal actions of the quotient are collapsed to the canonical
/// action "__tau"; inert (intra-class) internal moves disappear.
IOIMC weakQuotient(const IOIMC& m, const WeakOptions& opts = {});

/// Builds the quotient induced by strongBisimulation().
IOIMC strongQuotient(const IOIMC& m);

/// Convenience: weakQuotient followed by reachability restriction and
/// canonical renumbering (ioimc::canonicalRenumber).
IOIMC aggregate(const IOIMC& m, const WeakOptions& opts = {});

/// aggregate() iterated until the result is a fixpoint of the refinement
/// (weakBisimulation finds no further merges).  One quotient pass is not
/// always a fixpoint — quotient construction saturates tau edges and can
/// expose second-order merges — and the fused on-the-fly engine and the
/// classic chain only meet in the *minimal* quotient, so the engine
/// aggregates every composition step to fixpoint.  Terminates because the
/// state count strictly decreases; on typical models it converges after
/// the first pass.
IOIMC aggregateFixpoint(const IOIMC& m, const WeakOptions& opts = {});

}  // namespace imcdft::ioimc
