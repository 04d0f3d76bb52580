#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ioimc/model.hpp"

/// \file tau_closure.hpp
/// Tau-reachability of one model: the reflexive-transitive closure over
/// internal transitions plus per-state stability, computed per SCC of the
/// tau graph and shared (states of one SCC point into one CSR row instead
/// of each carrying a copy of the closure vector).  Used by the weak
/// refinement (bisimulation.cpp), which hands it to the fused engine's
/// merge step along with the partition.  Not part of the public ioimc
/// surface.

namespace imcdft::ioimc::detail {

struct TauClosure {
  std::vector<std::uint32_t> compOf;       ///< state -> tau-SCC
  std::vector<std::uint32_t> compOffsets;  ///< SCC -> row in compClosure
  std::vector<StateId> compClosure;        ///< sorted members, includes self
  std::vector<bool> stable;

  std::span<const StateId> closure(StateId s) const {
    std::uint32_t c = compOf[s];
    return {compClosure.data() + compOffsets[c],
            compOffsets[c + 1] - compOffsets[c]};
  }
};

/// Computes tau closures and stability.  A state is stable when it enables
/// no internal and no output transition (I/O-IMC urgency: outputs, like
/// internal actions, take no time).
TauClosure computeTauClosure(const IOIMC& m);

}  // namespace imcdft::ioimc::detail
