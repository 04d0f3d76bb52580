#pragma once

#include "ctmdp/ctmdp.hpp"

/// \file reachability.hpp
/// Time-bounded reachability for uniformizable CTMDPs, in the style of
/// Baier, Hermanns, Katoen & Haverkort (Theor. Comput. Sci. 345(1), 2005),
/// which is the algorithm the paper points to for analysing the CTMDPs that
/// arise from nondeterministic DFTs.
///
/// The implementation uniformizes the tangible states and runs a backward
/// value iteration over the truncated Poisson terms; at every step the
/// vanishing states resolve their immediate choices by max (upper bound /
/// best-case adversary) or min (lower bound), in reverse topological order
/// of the (acyclic) vanishing graph.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::ctmdp {

struct ReachabilityOptions {
  double epsilon = 1e-10;
  /// Cooperative cancellation: when set, every backward value-iteration
  /// step calls CancelToken::checkpoint() (site "ctmdp-bounds").  Not
  /// owned; the caller keeps the token alive across the call.
  const CancelToken* cancel = nullptr;
};

/// P(reach a goal state within time \p t), optimized over schedulers.
/// \p maximize selects the supremum (true) or infimum (false).  A
/// one-sided run of the reachabilityBounds() sweep.
double timeBoundedReachability(const Ctmdp& mdp, double t, bool maximize,
                               const ReachabilityOptions& opts = {});

/// Both bounds at once: [min, max].
struct ReachabilityBounds {
  double lower = 0.0;
  double upper = 0.0;
};
/// One backward sweep computes both optima: each row traversal updates a
/// minimizing and a maximizing value vector, bitwise identical to two
/// one-sided runs.  Without vanishing states both optima are the same
/// computation and a single vector runs.  The sweep runs inside a
/// `ctmdp.solve` trace span (args `states`, `iterations`, `sides`).
ReachabilityBounds reachabilityBounds(const Ctmdp& mdp, double t,
                                      const ReachabilityOptions& opts = {});

}  // namespace imcdft::ctmdp
