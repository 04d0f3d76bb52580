#pragma once

#include "ctmc/ctmc.hpp"
#include "dft/model.hpp"

/// \file monolithic.hpp
/// The DIFTree-style whole-tree Markov chain generation the paper uses as
/// its baseline (Section 4): starting from the all-operational state, fail
/// one basic event at a time, propagate the consequences instantaneously
/// (FDEP cascades, spare claims, gate firings), and create a CTMC state per
/// reachable configuration.  This is the approach whose state space
/// "grow[s] exponentially with the number of basic events".
///
/// Where the I/O-IMC semantics is nondeterministic (simultaneous FDEP
/// kills, spare claim races) this generator resolves deterministically in
/// declaration order, like the original tool.  The differential tests
/// compare it against the compositional pipeline on deterministic trees.

namespace imcdft::diftree {

struct MonolithicOptions {
  /// Stop expanding once the system has failed (the usual reliability
  /// truncation).  Disable to measure the full state space.
  bool truncateAtSystemFailure = true;
};

struct MonolithicResult {
  ctmc::Ctmc chain;  ///< labelled with "down" on system-failed states
  std::size_t numStates = 0;
  std::size_t numTransitions = 0;
};

/// Generates the whole-tree CTMC.  Supports the same feature set as the
/// compositional converter (checkConvertible).
MonolithicResult generateMonolithic(const dft::Dft& dft,
                                    const MonolithicOptions& opts = {});

}  // namespace imcdft::diftree
