#pragma once

#include <vector>

#include "ctmc/ctmc.hpp"

/// \file transient.hpp
/// Transient analysis by uniformization: pi(t) = sum_k Poisson(q; k) pi P^k
/// with P the uniformized DTMC.  This is the "standard method" [18] the
/// paper applies to the final aggregated CTMC to obtain, e.g., the system
/// unreliability at the mission time.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::ctmc {

struct TransientOptions {
  double epsilon = 1e-10;       ///< truncation error bound
  /// Cooperative cancellation: when set, every uniformization step (one
  /// vector-matrix product) calls CancelToken::checkpoint(), so a sweep
  /// with a huge truncation window (stiff chain, large lambda*t) unwinds
  /// on an exhausted budget instead of running to the right edge.  Not
  /// owned; the caller keeps the token alive across the call.
  const CancelToken* cancel = nullptr;
};

/// Distribution over states at time \p t starting from chain.initial.
std::vector<double> transientDistribution(const Ctmc& chain, double t,
                                          const TransientOptions& opts = {});

/// Distribution at time \p t from an arbitrary initial distribution.
std::vector<double> transientDistribution(const Ctmc& chain,
                                          std::vector<double> initial,
                                          double t,
                                          const TransientOptions& opts = {});

/// Distributions at several time points from one initial distribution,
/// sharing the uniformized power vectors: the iterates pi P^k depend only
/// on the uniformization rate, so one sweep up to the largest truncation
/// point serves every time point.  The Fox-Glynn weights are computed once
/// per time point (cheap); the vector-matrix products (expensive) run once
/// in total instead of once per point.  Each returned distribution is
/// bitwise identical to the corresponding single-time call: per point, the
/// same weights multiply the same iterates and accumulate in the same
/// order.  Points need not be sorted; duplicates are fine.
std::vector<std::vector<double>> transientDistributions(
    const Ctmc& chain, std::vector<double> initial,
    const std::vector<double>& times, const TransientOptions& opts = {});

/// P(state carries \p label at time \p t).  With failure states made
/// absorbing this is exactly the paper's unreliability measure; without, it
/// is the instantaneous unavailability of Section 7.2.
double probabilityOfLabelAt(const Ctmc& chain, const std::string& label,
                            double t, const TransientOptions& opts = {});

/// Evaluates probabilityOfLabelAt over many time points through one shared
/// uniformization sweep (transientDistributions); this is the inner loop of
/// every time-grid measure, including the static-combination numeric path.
std::vector<double> labelCurve(const Ctmc& chain, const std::string& label,
                               const std::vector<double>& times,
                               const TransientOptions& opts = {});

}  // namespace imcdft::ctmc
