#include "ctmdp/ctmdp.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace imcdft::ctmdp {

void Ctmdp::validate() const {
  // Messages are built only on the failing path (per-state checks; every
  // solve validates).
  auto fail = [](const char* what) { require(false, std::string("Ctmdp: ") + what); };
  const std::size_t n = numStates();
  if (n == 0) fail("no states");
  if (choiceOffsets.size() != n + 1 || goal.size() != n || vanishing.size() != n)
    fail("inconsistent state arrays");
  if (choiceOffsets.front() != 0 ||
      choiceOffsets.back() != choiceTargets.size() ||
      !std::is_sorted(choiceOffsets.begin(), choiceOffsets.end()))
    fail("malformed choice table");
  if (initial >= n) fail("initial state out of range");
  rates.validate("Ctmdp");
  for (StateId c : choiceTargets)
    if (c >= n) fail("choice target out of range");
  for (StateId s = 0; s < n; ++s) {
    const bool hasRates = rates.row(s).size() != 0;
    const bool hasChoices = !choices(s).empty();
    if (isVanishing(s) != hasChoices)
      fail("vanishing flag disagrees with the choice row");
    if (hasRates && hasChoices)
      fail("state has both Markovian and immediate behavior");
    if (goal[s] && (hasRates || hasChoices))
      fail("goal states must be absorbing");
  }
  // Acyclicity of the vanishing graph via iterative DFS coloring.
  std::vector<std::uint8_t> color(n, 0);  // 0 white, 1 gray, 2 black
  for (StateId root = 0; root < n; ++root) {
    if (!isVanishing(root) || color[root] != 0) continue;
    std::vector<std::pair<StateId, std::size_t>> stack{{root, 0}};
    color[root] = 1;
    while (!stack.empty()) {
      auto& [v, idx] = stack.back();
      if (idx < choices(v).size()) {
        StateId w = choices(v)[idx++];
        if (!isVanishing(w)) continue;
        if (color[w] == 1) fail("cycle among vanishing states");
        if (color[w] == 0) {
          color[w] = 1;
          stack.emplace_back(w, 0);
        }
      } else {
        color[v] = 2;
        stack.pop_back();
      }
    }
  }
}

Ctmdp Ctmdp::fromRows(StateId initial,
                      const std::vector<std::vector<Transition>>& rates,
                      const std::vector<std::vector<StateId>>& choices,
                      std::vector<std::uint8_t> goal) {
  Ctmdp m;
  m.initial = initial;
  m.rates = ctmc::RateRows::fromRows(rates);
  m.choiceOffsets.push_back(0);
  for (const std::vector<StateId>& row : choices) {
    m.choiceTargets.insert(m.choiceTargets.end(), row.begin(), row.end());
    m.choiceOffsets.push_back(static_cast<std::uint32_t>(m.choiceTargets.size()));
    m.vanishing.push_back(row.empty() ? 0 : 1);
  }
  m.goal = std::move(goal);
  return m;
}

}  // namespace imcdft::ctmdp
