#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ioimc/model.hpp"

/// \file tau_closure.hpp
/// Shared tau-reachability machinery: the reflexive-transitive closure over
/// internal transitions plus per-state stability, computed per SCC of the
/// tau graph and shared (states of one SCC point into one CSR row instead
/// of each carrying a copy of the closure vector).  Used by the weak
/// refinement (bisimulation.cpp) and by the semantic sink collapse
/// (ops.cpp).  Not part of the public ioimc surface.

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
  /// True when \p t is tau-reachable from \p s (reflexively).
  bool reaches(StateId s, StateId t) const {
    auto row = closure(s);
    return std::binary_search(row.begin(), row.end(), t);
  }
};

/// Tau successor lists in CSR form: row s is succ[offsets[s]..offsets[s+1]),
/// sorted and deduplicated.
struct TauGraph {
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint32_t> succ;

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const std::uint32_t> row(std::uint32_t s) const {
    return {succ.data() + offsets[s], offsets[s + 1] - offsets[s]};
  }
  /// Closes the row appended since the last call: sorts and deduplicates
  /// its successors.
  void endRow() {
    const auto begin = succ.begin() + offsets.back();
    std::sort(begin, succ.end());
    succ.erase(std::unique(begin, succ.end()), succ.end());
    offsets.push_back(static_cast<std::uint32_t>(succ.size()));
  }
};

/// Computes tau closures and stability.  A state is stable when it enables
/// no internal transition and — when \p outputsUrgent — no output
/// transition (I/O-IMC maximal progress).
TauClosure computeTauClosure(const IOIMC& m, bool outputsUrgent);

/// The graph-agnostic core shared by computeTauClosure and the partial
/// refiner (otf_partition.cpp): SCC decomposition of the given adjacency
/// (Tarjan, iterative) plus per-SCC reflexive-transitive closures
/// flattened into one shared CSR array.  The result's
/// compOf/compOffsets/compClosure are filled, stability is left to the
/// caller.
void computeSccClosures(const TauGraph& tauSucc, TauClosure& info);

}  // namespace imcdft::ioimc::detail
