#include "ctmdp/reachability.hpp"

#include <algorithm>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ctmc/fox_glynn.hpp"

namespace imcdft::ctmdp {

namespace {

/// Reverse-topological order of the vanishing states (successors first), so
/// one sweep resolves all immediate choices.
std::vector<StateId> vanishingOrder(const Ctmdp& mdp) {
  std::vector<StateId> order;
  std::vector<std::uint8_t> done(mdp.numStates(), 0);
  for (StateId root = 0; root < mdp.numStates(); ++root) {
    if (!mdp.isVanishing(root) || done[root]) continue;
    std::vector<std::pair<StateId, std::size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto& [v, idx] = stack.back();
      if (idx < mdp.choices[v].size()) {
        StateId w = mdp.choices[v][idx++];
        if (mdp.isVanishing(w) && !done[w]) {
          done[w] = 1;  // gray/black merged: graph is acyclic (validated)
          stack.emplace_back(w, 0);
        }
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
    done[root] = 1;
  }
  return order;
}

}  // namespace

double timeBoundedReachability(const Ctmdp& mdp, double t, bool maximize,
                               const ReachabilityOptions& opts) {
  mdp.validate();
  require(t >= 0.0, "timeBoundedReachability: negative time");
  const std::size_t n = mdp.numStates();
  const std::vector<StateId> vanishing = vanishingOrder(mdp);

  // Resolved value of a state: for vanishing states, the optimum over their
  // immediate choices of the current tangible values.
  std::vector<double> value(n, 0.0);
  auto resolveVanishing = [&]() {
    for (StateId v : vanishing) {
      double best = maximize ? 0.0 : 1.0;
      for (StateId c : mdp.choices[v])
        best = maximize ? std::max(best, value[c]) : std::min(best, value[c]);
      value[v] = best;
    }
  };

  for (StateId s = 0; s < n; ++s) value[s] = mdp.goal[s] ? 1.0 : 0.0;
  resolveVanishing();
  if (t == 0.0) return value[mdp.initial];

  double maxExit = 0.0;
  for (StateId s = 0; s < n; ++s) {
    double exit = 0.0;
    for (const auto& tr : mdp.rates[s]) exit += tr.rate;
    maxExit = std::max(maxExit, exit);
  }
  if (maxExit == 0.0) return value[mdp.initial];
  const double lambda = opts.uniformizationSlack * maxExit;
  ctmc::PoissonWeights pw = ctmc::poissonWeights(lambda * t, opts.epsilon);

  // Backward value iteration: q_k(s) = w_k * goal(s) + sum P(s,.) q~_{k+1}
  // where q~ resolves vanishing states.  Initialise with q_{N+1} = 0.
  std::vector<double> q(n, 0.0);
  for (StateId s = 0; s < n; ++s) value[s] = 0.0;
  for (std::size_t step = pw.left + pw.weights.size(); step-- > 0;) {
    if (opts.cancel) opts.cancel->checkpoint("ctmdp-bounds", n);
    const double w = step >= pw.left
                         ? pw.weights[step - pw.left] / pw.totalMass
                         : 0.0;
    resolveVanishing();
    for (StateId s = 0; s < n; ++s) {
      if (mdp.isVanishing(s)) continue;
      double acc = mdp.goal[s] ? w : 0.0;
      double exit = 0.0;
      for (const auto& tr : mdp.rates[s]) {
        acc += (tr.rate / lambda) * value[tr.to];
        exit += tr.rate;
      }
      // Goal states are absorbing: they accumulate the remaining Poisson
      // tail exactly through the uniformization self-loop term.
      acc += (1.0 - exit / lambda) * value[s];
      q[s] = acc;
    }
    for (StateId s = 0; s < n; ++s)
      if (!mdp.isVanishing(s)) value[s] = q[s];
  }
  resolveVanishing();
  return value[mdp.initial];
}

ReachabilityBounds reachabilityBounds(const Ctmdp& mdp, double t,
                                      const ReachabilityOptions& opts) {
  return {timeBoundedReachability(mdp, t, false, opts),
          timeBoundedReachability(mdp, t, true, opts)};
}

}  // namespace imcdft::ctmdp
