#include "ctmc/transient.hpp"

#include <algorithm>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ctmc/fox_glynn.hpp"
#include "ctmc/uniformized.hpp"
#include "obs/trace.hpp"

namespace imcdft::ctmc {

std::vector<double> transientDistribution(const Ctmc& chain,
                                          std::vector<double> initial,
                                          double t,
                                          const TransientOptions& opts) {
  chain.validate();
  require(t >= 0.0, "transientDistribution: negative time");
  require(initial.size() == chain.numStates(),
          "transientDistribution: initial distribution size mismatch");
  if (t == 0.0) return initial;
  const Uniformized u(chain.rates, opts.uniformizationSlack);
  if (u.maxExitRate() == 0.0) return initial;

  PoissonWeights pw = poissonWeights(u.lambda() * t, opts.epsilon);

  obs::TraceSpan span("ctmc.solve");
  span.arg("states", chain.numStates());
  span.arg("iterations", pw.left + pw.weights.size());

  std::vector<double> current = std::move(initial);
  std::vector<double> next(chain.numStates());
  std::vector<double> result(chain.numStates(), 0.0);

  // Advance to the left truncation point, then accumulate weighted iterates.
  for (std::size_t k = 0; k < pw.left; ++k) {
    if (opts.cancel) opts.cancel->checkpoint("transient", chain.numStates());
    u.step(current, next);
    std::swap(current, next);
  }
  for (std::size_t i = 0; i < pw.weights.size(); ++i) {
    if (opts.cancel) opts.cancel->checkpoint("transient", chain.numStates());
    const double w = pw.weights[i] / pw.totalMass;  // renormalized truncation
    for (StateId s = 0; s < chain.numStates(); ++s)
      result[s] += w * current[s];
    if (i + 1 < pw.weights.size()) {
      u.step(current, next);
      std::swap(current, next);
    }
  }
  return result;
}

std::vector<double> transientDistribution(const Ctmc& chain, double t,
                                          const TransientOptions& opts) {
  std::vector<double> initial(chain.numStates(), 0.0);
  initial[chain.initial] = 1.0;
  return transientDistribution(chain, std::move(initial), t, opts);
}

std::vector<std::vector<double>> transientDistributions(
    const Ctmc& chain, std::vector<double> initial,
    const std::vector<double>& times, const TransientOptions& opts) {
  chain.validate();
  require(initial.size() == chain.numStates(),
          "transientDistributions: initial distribution size mismatch");
  for (double t : times)
    require(t >= 0.0, "transientDistributions: negative time");
  const Uniformized u(chain.rates, opts.uniformizationSlack);

  std::vector<std::vector<double>> out(times.size());
  if (u.maxExitRate() == 0.0) {
    for (std::vector<double>& o : out) o = initial;
    return out;
  }

  // One truncated Poisson window per time point; the iterate sweep below
  // runs once, to the right edge of the widest window.
  std::vector<PoissonWeights> windows(times.size());
  std::size_t maxRight = 0;
  bool anyPositive = false;
  for (std::size_t j = 0; j < times.size(); ++j) {
    if (times[j] == 0.0) {
      out[j] = initial;
      continue;
    }
    windows[j] = poissonWeights(u.lambda() * times[j], opts.epsilon);
    maxRight = std::max(maxRight, windows[j].right());
    anyPositive = true;
    out[j].assign(chain.numStates(), 0.0);
  }
  if (!anyPositive) return out;

  obs::TraceSpan span("ctmc.solve");
  span.arg("states", chain.numStates());
  span.arg("points", times.size());
  span.arg("iterations", maxRight + 1);

  std::vector<double> current = std::move(initial);
  std::vector<double> next(chain.numStates());
  for (std::size_t k = 0; true; ++k) {
    if (opts.cancel) opts.cancel->checkpoint("transient", chain.numStates());
    for (std::size_t j = 0; j < times.size(); ++j) {
      if (times[j] == 0.0) continue;
      const PoissonWeights& pw = windows[j];
      if (k < pw.left || k > pw.right()) continue;
      const double w = pw.weights[k - pw.left] / pw.totalMass;
      std::vector<double>& acc = out[j];
      for (StateId s = 0; s < chain.numStates(); ++s)
        acc[s] += w * current[s];
    }
    if (k == maxRight) break;
    u.step(current, next);
    std::swap(current, next);
  }
  return out;
}

double probabilityOfLabelAt(const Ctmc& chain, const std::string& label,
                            double t, const TransientOptions& opts) {
  return probabilityOfLabel(chain, transientDistribution(chain, t, opts),
                            label);
}

std::vector<double> labelCurve(const Ctmc& chain, const std::string& label,
                               const std::vector<double>& times,
                               const TransientOptions& opts) {
  std::vector<double> initial(chain.numStates(), 0.0);
  if (!initial.empty()) initial[chain.initial] = 1.0;
  std::vector<std::vector<double>> distributions =
      transientDistributions(chain, std::move(initial), times, opts);
  std::vector<double> out;
  out.reserve(times.size());
  for (const std::vector<double>& pi : distributions)
    out.push_back(probabilityOfLabel(chain, pi, label));
  return out;
}

}  // namespace imcdft::ctmc
