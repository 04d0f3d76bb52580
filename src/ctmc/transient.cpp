#include "ctmc/transient.hpp"

#include <algorithm>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ctmc/fox_glynn.hpp"
#include "ctmc/uniformized.hpp"
#include "obs/trace.hpp"

namespace imcdft::ctmc {

namespace {

/// The shared uniformization sweep of transientDistributions and
/// labelCurve.  Calls \p add(k, j, w, iterate) for every time point j > 0
/// and every iterate pi P^k in its truncated Poisson window, in ascending
/// k, with w the renormalized weight of k.  Returns false, having called
/// nothing, when the chain has no transitions.
template <class Add>
bool sweepIterates(const Ctmc& chain, const std::vector<double>& initial,
                   const std::vector<double>& times,
                   const TransientOptions& opts, Add&& add) {
  chain.validate();
  require(initial.size() == chain.numStates(),
          "transientDistributions: initial distribution size mismatch");
  for (double t : times)
    require(t >= 0.0, "transientDistributions: negative time");
  const Uniformized u(chain.rates);
  if (u.maxExitRate() == 0.0) return false;

  // One truncated Poisson window per time point; the iterate sweep below
  // runs once, to the right edge of the widest window.
  std::vector<PoissonWeights> windows(times.size());
  std::size_t maxRight = 0;
  bool anyPositive = false;
  for (std::size_t j = 0; j < times.size(); ++j) {
    if (times[j] == 0.0) continue;
    windows[j] = poissonWeights(u.lambda() * times[j], opts.epsilon);
    maxRight = std::max(maxRight, windows[j].right());
    anyPositive = true;
  }
  if (!anyPositive) return true;

  obs::TraceSpan span("ctmc.solve");
  span.arg("states", chain.numStates());
  span.arg("points", times.size());
  span.arg("iterations", maxRight + 1);

  std::vector<double> current = initial;
  std::vector<double> next(chain.numStates());
  for (std::size_t k = 0; true; ++k) {
    if (opts.cancel) opts.cancel->checkpoint("transient", chain.numStates());
    for (std::size_t j = 0; j < times.size(); ++j) {
      if (times[j] == 0.0) continue;
      const PoissonWeights& pw = windows[j];
      if (k < pw.left || k > pw.right()) continue;
      add(k, j, pw.weights[k - pw.left] / pw.totalMass, current);
    }
    if (k == maxRight) break;
    u.step(current, next);
    std::swap(current, next);
  }
  return true;
}

}  // namespace

std::vector<std::vector<double>> transientDistributions(
    const Ctmc& chain, std::vector<double> initial,
    const std::vector<double>& times, const TransientOptions& opts) {
  std::vector<std::vector<double>> out(
      times.size(), std::vector<double>(initial.size(), 0.0));
  const bool swept = sweepIterates(
      chain, initial, times, opts,
      [&](std::size_t, std::size_t j, double w, const std::vector<double>& pi) {
        std::vector<double>& acc = out[j];
        for (StateId s = 0; s < pi.size(); ++s) acc[s] += w * pi[s];
      });
  // A point at time 0, or on a chain without transitions, keeps the
  // initial distribution.
  for (std::size_t j = 0; j < times.size(); ++j)
    if (!swept || times[j] == 0.0) out[j] = initial;
  return out;
}

std::vector<double> transientDistribution(const Ctmc& chain,
                                          std::vector<double> initial,
                                          double t,
                                          const TransientOptions& opts) {
  return transientDistributions(chain, std::move(initial), {t}, opts).front();
}

std::vector<double> transientDistribution(const Ctmc& chain, double t,
                                          const TransientOptions& opts) {
  std::vector<double> initial(chain.numStates(), 0.0);
  initial[chain.initial] = 1.0;
  return transientDistribution(chain, std::move(initial), t, opts);
}

double probabilityOfLabelAt(const Ctmc& chain, const std::string& label,
                            double t, const TransientOptions& opts) {
  return labelCurve(chain, label, {t}, opts).front();
}

std::vector<double> labelCurve(const Ctmc& chain, const std::string& label,
                               const std::vector<double>& times,
                               const TransientOptions& opts) {
  const int idx = chain.labelIndex(label);
  require(idx >= 0, "Ctmc: unknown label '" + label + "'");
  std::vector<StateId> goal;
  for (StateId s = 0; s < chain.numStates(); ++s)
    if (chain.hasLabel(s, idx)) goal.push_back(s);
  auto goalMass = [&](const std::vector<double>& pi) {
    double p = 0.0;
    for (StateId s : goal) p += pi[s];
    return p;
  };
  std::vector<double> initial(chain.numStates(), 0.0);
  if (!initial.empty()) initial[chain.initial] = 1.0;
  // Each point sums w * (goal mass of the iterate) over its window; the
  // goal mass is summed once per iterate, whatever the number of points.
  std::vector<double> out(times.size(), 0.0);
  std::size_t massIterate = static_cast<std::size_t>(-1);
  double mass = 0.0;
  const bool swept = sweepIterates(
      chain, initial, times, opts,
      [&](std::size_t k, std::size_t j, double w,
          const std::vector<double>& pi) {
        if (k != massIterate) {
          mass = goalMass(pi);
          massIterate = k;
        }
        out[j] += w * mass;
      });
  // A point at time 0, or on a chain without transitions, keeps the
  // initial mass.
  for (std::size_t j = 0; j < times.size(); ++j)
    if (!swept || times[j] == 0.0) out[j] = goalMass(initial);
  return out;
}

}  // namespace imcdft::ctmc
