#include "ctmc/steady_state.hpp"

#include <algorithm>
#include <cmath>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ctmc/uniformized.hpp"

namespace imcdft::ctmc {

std::vector<double> steadyStateDistribution(const Ctmc& chain,
                                            const SteadyStateOptions& opts) {
  chain.validate();
  const std::size_t n = chain.numStates();
  const Uniformized u(chain.rates);
  if (u.maxExitRate() == 0.0) {
    // Every state is absorbing: the chain never leaves its initial state.
    std::vector<double> pi(n, 0.0);
    pi[chain.initial] = 1.0;
    return pi;
  }

  // Start from the initial state (correct limit for unichains; for chains
  // with several closed classes the limit depends on the start state, which
  // is exactly what the caller observes this way).
  std::vector<double> current(n, 0.0), next(n, 0.0);
  current[chain.initial] = 1.0;

  for (std::size_t iter = 0; iter < opts.maxIterations; ++iter) {
    if (opts.cancel) opts.cancel->checkpoint("steady", n);
    u.step(current, next);
    double diff = 0.0;
    for (StateId s = 0; s < n; ++s)
      diff = std::max(diff, std::fabs(next[s] - current[s]));
    std::swap(current, next);
    if (diff < opts.tolerance) return current;
  }
  throw NumericalError("steadyStateDistribution: power iteration did not converge");
}

double steadyStateLabelProbability(const Ctmc& chain, const std::string& label,
                                   const SteadyStateOptions& opts) {
  return probabilityOfLabel(chain, steadyStateDistribution(chain, opts), label);
}

}  // namespace imcdft::ctmc
