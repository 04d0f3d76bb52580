#include "ctmdp/reachability.hpp"

#include <algorithm>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ctmc/fox_glynn.hpp"
#include "ctmc/uniformized.hpp"
#include "obs/trace.hpp"

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
      if (idx < mdp.choices(v).size()) {
        StateId w = mdp.choices(v)[idx++];
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

/// The sides a sweep optimizes.
enum Sides : unsigned { kMin = 1, kMax = 2, kBoth = kMin | kMax };

/// Backward value iteration for the requested optimum (or both at once):
/// q_k(s) = w_k * goal(s) + sum_s' P(s, s') q~_{k+1}(s') where q~ resolves
/// vanishing states by their optimal immediate choice.  Each side's values
/// go through exactly the operations of a one-sided sweep, so the fused
/// result is bitwise identical to two separate runs.  Without vanishing
/// states both optima are the same computation and one vector serves both.
ReachabilityBounds sweep(const Ctmdp& mdp, double t, unsigned sides,
                         const ReachabilityOptions& opts) {
  mdp.validate();
  require(t >= 0.0, "timeBoundedReachability: negative time");
  const std::size_t n = mdp.numStates();
  const std::vector<StateId> vanishing = vanishingOrder(mdp);
  if (vanishing.empty()) sides = kMin;
  const bool doMin = sides & kMin, doMax = sides & kMax;

  // Resolved values of a state: for vanishing states, the optimum over
  // their immediate choices of the current values.
  std::vector<double> lo(doMin ? n : 0), hi(doMax ? n : 0);
  auto resolveVanishing = [&] {
    for (StateId v : vanishing) {
      if (doMin) {
        double best = 1.0;
        for (StateId c : mdp.choices(v)) best = std::min(best, lo[c]);
        lo[v] = best;
      }
      if (doMax) {
        double best = 0.0;
        for (StateId c : mdp.choices(v)) best = std::max(best, hi[c]);
        hi[v] = best;
      }
    }
  };
  auto result = [&]() -> ReachabilityBounds {
    resolveVanishing();
    const double l = doMin ? lo[mdp.initial] : 0.0;
    const double h = doMax ? hi[mdp.initial] : 0.0;
    return {l, vanishing.empty() ? l : h};
  };

  for (StateId s = 0; s < n; ++s) {
    if (doMin) lo[s] = mdp.goal[s] ? 1.0 : 0.0;
    if (doMax) hi[s] = mdp.goal[s] ? 1.0 : 0.0;
  }
  if (t == 0.0) return result();

  const ctmc::Uniformized u(mdp.rates, opts.uniformizationSlack);
  if (u.maxExitRate() == 0.0) return result();
  ctmc::PoissonWeights pw = ctmc::poissonWeights(u.lambda() * t, opts.epsilon);

  obs::TraceSpan span("ctmdp.solve");
  span.arg("states", n);
  span.arg("iterations", pw.left + pw.weights.size());
  span.arg("sides", doMin + doMax);

  // Initialise with q_{N+1} = 0.  Tangible values are written to the q
  // vectors and swapped in; vanishing entries are re-resolved from the
  // tangible ones at the start of every step.
  std::fill(lo.begin(), lo.end(), 0.0);
  std::fill(hi.begin(), hi.end(), 0.0);
  std::vector<double> qLo(lo.size()), qHi(hi.size());
  const std::uint32_t* offsets = mdp.rates.offsets.data();
  const StateId* to = mdp.rates.targets.data();
  const double* p = u.probabilities().data();
  const double* stay = u.stay().data();
  for (std::size_t step = pw.left + pw.weights.size(); step-- > 0;) {
    if (opts.cancel) opts.cancel->checkpoint("ctmdp-bounds", n);
    const double w = step >= pw.left
                         ? pw.weights[step - pw.left] / pw.totalMass
                         : 0.0;
    resolveVanishing();
    // Goal states are absorbing: they accumulate the remaining Poisson
    // tail exactly through the uniformization self-loop term.
    if (sides == kBoth) {
      for (StateId s = 0; s < n; ++s) {
        if (mdp.isVanishing(s)) continue;
        double accLo = mdp.goal[s] ? w : 0.0, accHi = accLo;
        for (std::uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
          accLo += p[i] * lo[to[i]];
          accHi += p[i] * hi[to[i]];
        }
        qLo[s] = accLo + stay[s] * lo[s];
        qHi[s] = accHi + stay[s] * hi[s];
      }
    } else {
      const std::vector<double>& v = doMin ? lo : hi;
      std::vector<double>& q = doMin ? qLo : qHi;
      for (StateId s = 0; s < n; ++s) {
        if (mdp.isVanishing(s)) continue;
        double acc = mdp.goal[s] ? w : 0.0;
        for (std::uint32_t i = offsets[s]; i < offsets[s + 1]; ++i)
          acc += p[i] * v[to[i]];
        q[s] = acc + stay[s] * v[s];
      }
    }
    std::swap(lo, qLo);
    std::swap(hi, qHi);
  }
  return result();
}

}  // namespace

double timeBoundedReachability(const Ctmdp& mdp, double t, bool maximize,
                               const ReachabilityOptions& opts) {
  const ReachabilityBounds b = sweep(mdp, t, maximize ? kMax : kMin, opts);
  return maximize ? b.upper : b.lower;
}

ReachabilityBounds reachabilityBounds(const Ctmdp& mdp, double t,
                                      const ReachabilityOptions& opts) {
  return sweep(mdp, t, kBoth, opts);
}

}  // namespace imcdft::ctmdp
