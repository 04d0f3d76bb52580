#pragma once

#include <string>
#include <vector>

#include "ctmc/ctmc.hpp"

/// \file steady_state.hpp
/// Long-run distribution of a CTMC, used for the steady-state unavailability
/// of the repairable models of Section 7.2.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::ctmc {

struct SteadyStateOptions {
  double tolerance = 1e-12;    ///< L-infinity convergence threshold
  std::size_t maxIterations = 2'000'000;
  double uniformizationSlack = 1.02;
  /// Cooperative cancellation: when set, every power-iteration step calls
  /// CancelToken::checkpoint() (site "steady"), so a slowly mixing chain
  /// unwinds on an exhausted budget instead of running to maxIterations.
  /// Not owned; the caller keeps the token alive across the call.
  const CancelToken* cancel = nullptr;
};

/// Computes the limiting distribution by power iteration on the uniformized
/// DTMC (aperiodic thanks to the uniformization self-loops).  Requires the
/// chain to be a unichain (one closed recurrent class); this holds for all
/// repairable models the converter produces.  Throws NumericalError when the
/// iteration does not converge.
std::vector<double> steadyStateDistribution(const Ctmc& chain,
                                            const SteadyStateOptions& opts = {});

/// Long-run fraction of time spent in states carrying \p label.
double steadyStateLabelProbability(const Ctmc& chain, const std::string& label,
                                   const SteadyStateOptions& opts = {});

}  // namespace imcdft::ctmc
