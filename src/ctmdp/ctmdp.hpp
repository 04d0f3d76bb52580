#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"

/// \file ctmdp.hpp
/// Continuous-time Markov decision processes with *immediate* choice states.
///
/// When FDEP-induced simultaneity leaves inherent nondeterminism in a DFT
/// (Section 4.4 of the paper), the fully composed and aggregated I/O-IMC is
/// not a CTMC but a CTMDP.  In the models our pipeline produces, all
/// nondeterminism lives in *vanishing* states: states whose outgoing
/// transitions are internal and therefore take no time.  Tangible states
/// have purely Markovian behavior.  This matches the structure assumed
/// here: a state either has exponential `rates` or immediate `choices`.

namespace imcdft::ctmdp {

using StateId = ctmc::StateId;
using Transition = ctmc::Transition;

/// A CTMDP where nondeterminism is confined to vanishing states.  Rates and
/// choices are flat tables with one row per state; the per-state flags are
/// bytes.
struct Ctmdp {
  StateId initial = 0;
  /// Exponential transitions of tangible states (empty rows for vanishing
  /// ones).
  ctmc::RateRows rates;
  /// Immediate successor choices of vanishing states: state s owns
  /// choiceTargets[choiceOffsets[s], choiceOffsets[s + 1]), empty for
  /// tangible states.  A state must not have both rates and choices.
  std::vector<std::uint32_t> choiceOffsets;
  std::vector<StateId> choiceTargets;
  /// Goal indicator (e.g. "system down").  Goal states must be tangible and
  /// absorbing; use the analysis layer's goal-absorption first.
  std::vector<std::uint8_t> goal;
  /// 1 exactly where the choice row is non-empty.
  std::vector<std::uint8_t> vanishing;

  std::size_t numStates() const { return rates.numRows(); }
  bool isVanishing(StateId s) const { return vanishing[s] != 0; }
  std::span<const StateId> choices(StateId s) const {
    return {choiceTargets.data() + choiceOffsets[s],
            choiceOffsets[s + 1] - choiceOffsets[s]};
  }

  /// Structural checks; also verifies that the vanishing-choice graph is
  /// acyclic (our weak-bisimulation quotients guarantee this; a cycle would
  /// mean time-locked divergence).
  void validate() const;

  /// A CTMDP from per-state rows (hand-built fixtures); the vanishing flags
  /// follow from \p choices.
  static Ctmdp fromRows(StateId initial,
                        const std::vector<std::vector<Transition>>& rates,
                        const std::vector<std::vector<StateId>>& choices,
                        std::vector<std::uint8_t> goal);
};

}  // namespace imcdft::ctmdp
