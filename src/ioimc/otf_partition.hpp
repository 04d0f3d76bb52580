#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ioimc/model.hpp"

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

/// \file otf_partition.hpp
/// Signature-based weak-bisimulation refinement over the *partially
/// explored* synchronized product — the minimization half of the fused
/// compose-and-minimize engine (otf_compose.hpp).
///
/// The refiner sees the product mid-exploration: some visited states are
/// *expanded* (all successors generated), the rest form the frontier.  It
/// computes the converged weak-bisimulation partition of the visited
/// region where every unexpanded state is pinned to its own singleton
/// class.  That pinning is what makes the result sound before exploration
/// finishes: two expanded states only land in one class when their encoded
/// signatures agree *including* the singleton classes of the frontier
/// states they can reach, so everything still unknown about the product
/// lies behind the exact same frontier states for both — their futures
/// beyond the explored region are literally shared.  The partition
/// (extended with singletons for the unvisited remainder) is therefore a
/// weak bisimulation of the full product, and collapsing a multi-member
/// class is final: later exploration can only confirm it.

namespace imcdft::ioimc::otf {

/// View of the partially explored product.  All vectors are indexed by
/// product-state id; \p rep must be a fully compressed union-find table
/// (targets in the adjacency rows are raw ids and resolve through it).
struct PartialGraph {
  const std::vector<std::vector<InteractiveTransition>>* inter = nullptr;
  const std::vector<std::vector<MarkovianTransition>>* markov = nullptr;
  const std::vector<std::uint32_t>* labelMask = nullptr;
  const std::vector<StateId>* rep = nullptr;
  const std::vector<std::uint8_t>* expanded = nullptr;
  /// Composite role table (post-hiding: to-be-hidden outputs are Internal).
  const std::vector<ActionRole>* roles = nullptr;
  bool outputsUrgent = true;
};

/// Partition of the live region; classOf is parallel to the live list
/// passed to refinePartial (dense indices, not product-state ids).
struct PartialPartition {
  std::vector<std::uint32_t> classOf;
  std::uint32_t numClasses = 0;
  /// Converged weak tau-target classes per class (sorted, CSR layout:
  /// row c is classTauTargets[classTauOffsets[c]..classTauOffsets[c+1])).
  /// A class invariant; the engine's collapse uses it to recognize input
  /// edges into the class's tau-closure (implicit-self-loop equivalents
  /// that must not survive into a merged row).
  std::vector<std::uint32_t> classTauOffsets;
  std::vector<std::uint32_t> classTauTargets;

  bool tauReaches(std::uint32_t cls, std::uint32_t target) const {
    auto begin = classTauTargets.begin() + classTauOffsets[cls];
    auto end = classTauTargets.begin() + classTauOffsets[cls + 1];
    return std::binary_search(begin, end, target);
  }
};

/// Computes the converged partition described above.  \p live must be
/// sorted ascending and contain exactly the representative ids of the
/// current live region (no merged, no pruned states); every edge of a live
/// expanded state must resolve — through \p g.rep — to a live state, or a
/// ModelError is thrown (the engine treats that as an invariant failure
/// and falls back to the classic path).
///
/// \p cancel, when non-null, is checkpointed once per 128 recomputed
/// states of every refinement round (site "otf-refine"), so a budget can
/// trip inside the refinement loop itself, not only at the engine's
/// frontier checkpoints.
PartialPartition refinePartial(const PartialGraph& g,
                               const std::vector<StateId>& live,
                               const CancelToken* cancel = nullptr);

}  // namespace imcdft::ioimc::otf
