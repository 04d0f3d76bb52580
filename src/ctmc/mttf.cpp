#include "ctmc/mttf.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"

namespace imcdft::ctmc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// States reachable from \p from following transitions forward.
std::vector<bool> forwardReachable(const Ctmc& chain, StateId from) {
  std::vector<bool> seen(chain.numStates(), false);
  std::vector<StateId> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (StateId to : chain.row(s).to)
      if (!seen[to]) {
        seen[to] = true;
        stack.push_back(to);
      }
  }
  return seen;
}

/// States from which some labelled state is reachable (backward closure).
std::vector<bool> canReachLabel(const Ctmc& chain, int labelIdx) {
  const std::size_t n = chain.numStates();
  std::vector<std::vector<StateId>> pred(n);
  for (StateId s = 0; s < n; ++s)
    for (StateId to : chain.row(s).to) pred[to].push_back(s);
  std::vector<bool> can(n, false);
  std::vector<StateId> stack;
  for (StateId s = 0; s < n; ++s)
    if (chain.hasLabel(s, labelIdx)) {
      can[s] = true;
      stack.push_back(s);
    }
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (StateId p : pred[s])
      if (!can[p]) {
        can[p] = true;
        stack.push_back(p);
      }
  }
  return can;
}

}  // namespace

MttfResult expectedTimeToLabel(const Ctmc& chain, const std::string& label,
                               const CancelToken* cancel) {
  chain.validate();
  const int labelIdx = chain.labelIndex(label);
  if (labelIdx < 0) return {kInf, false};
  if (chain.hasLabel(chain.initial, labelIdx)) return {0.0, true};

  const std::vector<bool> reachable = forwardReachable(chain, chain.initial);
  const std::vector<bool> hits = canReachLabel(chain, labelIdx);

  // The hitting time is finite iff every reachable unlabelled state still
  // has a path to the label AND cannot linger forever: a reachable state
  // from which the label is unreachable is entered with positive
  // probability, and so is any absorbing unlabelled state.
  std::vector<StateId> transientStates;
  std::vector<int> indexOf(chain.numStates(), -1);
  for (StateId s = 0; s < chain.numStates(); ++s) {
    if (!reachable[s] || chain.hasLabel(s, labelIdx)) continue;
    if (!hits[s]) return {kInf, false};
    indexOf[s] = static_cast<int>(transientStates.size());
    transientStates.push_back(s);
  }

  // E[s] = 1/exit(s) + sum_{s'} (rate(s,s')/exit(s)) E[s'], E[label] = 0.
  // Assemble exit(s) E[s] - sum rate(s,s') E[s'] = 1 and eliminate.
  const std::size_t n = transientStates.size();
  std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    StateId s = transientStates[i];
    double exit = chain.exitRate(s);
    // hits[s] guarantees an outgoing transition exists, so exit > 0.
    a[i][i] += exit;
    a[i][n] = 1.0;
    const RateRows::Row row = chain.row(s);
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (chain.hasLabel(row.to[k], labelIdx)) continue;
      a[i][indexOf[row.to[k]]] -= row.rate[k];
    }
  }

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    if (cancel) cancel->checkpoint("mttf", n);
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    std::swap(a[col], a[pivot]);
    require(std::fabs(a[col][col]) > 1e-300,
            "expectedTimeToLabel: singular hitting-time system");
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col || a[r][col] == 0.0) continue;
      double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c <= n; ++c) a[r][c] -= f * a[col][c];
    }
  }

  const int initialIdx = indexOf[chain.initial];
  return {a[initialIdx][n] / a[initialIdx][initialIdx], true};
}

}  // namespace imcdft::ctmc
