#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ioimc/model.hpp"

/// \file tau_closure.hpp
/// The partition-independent half of weak bisimulation for one model: the
/// tau closure (reflexive-transitive closure over internal transitions),
/// the weak visible moves (s =tau*=> -a-> =tau*=> t for a visible a) and
/// per-state stability.  Used by the weak refinement (bisimulation.cpp),
/// which hands it to the fused engine's merge step along with the
/// partition.  Not part of the public ioimc surface.
///
/// Both relations are rows per SCC of the tau graph (states of one SCC
/// share a row instead of each carrying a copy).  Components are numbered
/// so that every tau successor's component has a smaller id (Tarjan closes
/// sinks first), and each row is built bottom-up as the union of sorted
/// rows built before it:
///  * closure(c) = members(c) + the closure of each successor component;
///  * moves(c) = {a} x closure(t) for each visible edge u -a-> t of a
///    member + the moves of each successor component.
/// The unions merge sorted runs, so no row is assembled from duplicates
/// and sorted; a moves row equal to a successor component's row shares it.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::ioimc::detail {

struct TauClosure {
  std::vector<std::uint32_t> compOf;       ///< state -> tau-SCC
  std::vector<std::uint32_t> compOffsets;  ///< SCC -> row in compClosure
  std::vector<StateId> compClosure;        ///< sorted members, includes self
  /// SCC -> [begin, end) of its row in compMoves.
  std::vector<std::pair<std::size_t, std::size_t>> moveRows;
  /// Sorted, distinct (action << 32 | target) pairs.
  std::vector<std::uint64_t> compMoves;
  std::vector<bool> stable;

  std::span<const StateId> closure(StateId s) const {
    std::uint32_t c = compOf[s];
    return {compClosure.data() + compOffsets[c],
            compOffsets[c + 1] - compOffsets[c]};
  }
  std::span<const std::uint64_t> moves(StateId s) const {
    const auto [begin, end] = moveRows[compOf[s]];
    return {compMoves.data() + begin, end - begin};
  }
};

/// Computes tau closures, weak visible moves and stability.  A state is
/// stable when it enables no internal and no output transition (I/O-IMC
/// urgency: outputs, like internal actions, take no time) and is not
/// flagged in \p pinned (when non-null).  \p roles is actionRoles(m).
/// Checkpoints \p cancel (when set) at \p site once per 1024 states.
TauClosure computeTauClosure(const IOIMC& m,
                             const std::vector<ActionRole>& roles,
                             const std::vector<std::uint8_t>* pinned = nullptr,
                             const char* site = "weak-refinement",
                             const CancelToken* cancel = nullptr);

}  // namespace imcdft::ioimc::detail
