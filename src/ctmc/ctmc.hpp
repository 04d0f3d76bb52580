#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// \file ctmc.hpp
/// Explicit-state continuous-time Markov chains.  The analysis layer
/// extracts these from fully composed, fully hidden, deterministic I/O-IMC
/// (Section 5 of the paper: "The final I/O-IMC reduces in many cases to a
/// CTMC.  This CTMC can then be solved using standard methods").

namespace imcdft::ctmc {

using StateId = std::uint32_t;

/// One exponential transition.
struct Transition {
  double rate;
  StateId to;
};

/// Exponential transitions of every state as one flat table: state s owns
/// entries [offsets[s], offsets[s + 1]) of the parallel arrays targets and
/// rates.  Parallel arrays (12 bytes per transition) let the uniformized
/// kernel stream targets beside its own probability table without touching
/// the rates.  Rows are appended in state order: add() each transition of
/// the state, then endRow().  An empty table has no offsets at all.
struct RateRows {
  std::vector<std::uint32_t> offsets;  ///< numRows() + 1 entries, or none
  std::vector<StateId> targets;
  std::vector<double> rates;

  /// One state's row: equally long spans of targets and rates.
  struct Row {
    std::span<const StateId> to;
    std::span<const double> rate;
    std::size_t size() const { return to.size(); }
  };

  std::size_t numRows() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::size_t numTransitions() const { return targets.size(); }
  Row row(StateId s) const {
    const std::size_t begin = offsets[s], count = offsets[s + 1] - begin;
    return {{targets.data() + begin, count}, {rates.data() + begin, count}};
  }

  void add(double rate, StateId to) {
    rates.push_back(rate);
    targets.push_back(to);
  }
  void endRow() {
    if (offsets.empty()) offsets.push_back(0);
    offsets.push_back(static_cast<std::uint32_t>(targets.size()));
  }

  /// Total outgoing rate of \p s (self-loops included), summed in row order.
  double exitRate(StateId s) const;

  /// Packs per-state rows (hand-built fixtures, small examples).
  static RateRows fromRows(const std::vector<std::vector<Transition>>& rows);

  /// Throws ModelError, messages prefixed by \p owner, on a malformed
  /// table: offsets out of step with the arrays, non-positive rates,
  /// targets outside [0, numRows()).
  void validate(const std::string& owner) const;
};

/// A CTMC with labelled states.  Aggregate type; invariants are checked by
/// validate() which every solver calls.
struct Ctmc {
  StateId initial = 0;
  RateRows rates;                          ///< out-rows of every state
  std::vector<std::uint32_t> labelMasks;  ///< bitset over labelNames
  std::vector<std::string> labelNames;

  std::size_t numStates() const { return rates.numRows(); }
  std::size_t numTransitions() const { return rates.numTransitions(); }
  RateRows::Row row(StateId s) const { return rates.row(s); }

  /// Total outgoing rate of \p s (self-loops included).
  double exitRate(StateId s) const { return rates.exitRate(s); }

  /// Index of \p label in labelNames or -1.
  int labelIndex(const std::string& label) const;
  bool hasLabel(StateId s, int labelIdx) const {
    return labelIdx >= 0 && (labelMasks[s] >> labelIdx) & 1u;
  }

  /// Throws ModelError on malformed chains (negative rates, bad targets,
  /// mismatched array sizes).
  void validate() const;

  /// A chain from per-state rows (hand-built fixtures, small examples).
  static Ctmc fromRows(StateId initial,
                       const std::vector<std::vector<Transition>>& rows,
                       std::vector<std::uint32_t> labelMasks,
                       std::vector<std::string> labelNames = {});
};

/// Sums \p distribution over the states carrying \p label.
double probabilityOfLabel(const Ctmc& chain,
                          const std::vector<double>& distribution,
                          const std::string& label);

}  // namespace imcdft::ctmc
