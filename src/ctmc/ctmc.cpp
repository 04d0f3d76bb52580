#include "ctmc/ctmc.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace imcdft::ctmc {

double RateRows::exitRate(StateId s) const {
  double sum = 0.0;
  for (double r : row(s).rate) sum += r;
  return sum;
}

RateRows RateRows::fromRows(const std::vector<std::vector<Transition>>& rows) {
  RateRows out;
  for (const std::vector<Transition>& r : rows) {
    for (const Transition& t : r) out.add(t.rate, t.to);
    out.endRow();
  }
  return out;
}

void RateRows::validate(const std::string& owner) const {
  // Messages are built only on the failing path: every solve validates its
  // chain, over every transition.
  auto fail = [&owner](const char* what) { require(false, owner + ": " + what); };
  if (rates.size() != targets.size() ||
      (offsets.empty() ? !targets.empty()
                       : offsets.front() != 0 ||
                             offsets.back() != targets.size() ||
                             !std::is_sorted(offsets.begin(), offsets.end())))
    fail("malformed rate table");
  for (double r : rates)
    if (!(r > 0.0)) fail("non-positive rate");
  const std::size_t n = numRows();
  for (StateId to : targets)
    if (to >= n) fail("transition target out of range");
}

int Ctmc::labelIndex(const std::string& label) const {
  for (std::size_t i = 0; i < labelNames.size(); ++i)
    if (labelNames[i] == label) return static_cast<int>(i);
  return -1;
}

void Ctmc::validate() const {
  require(numStates() > 0, "Ctmc: no states");
  require(initial < numStates(), "Ctmc: initial state out of range");
  require(labelMasks.size() == numStates(), "Ctmc: label array size mismatch");
  require(labelNames.size() <= 32, "Ctmc: more than 32 labels");
  rates.validate("Ctmc");
}

Ctmc Ctmc::fromRows(StateId initial,
                    const std::vector<std::vector<Transition>>& rows,
                    std::vector<std::uint32_t> labelMasks,
                    std::vector<std::string> labelNames) {
  return {initial, RateRows::fromRows(rows), std::move(labelMasks),
          std::move(labelNames)};
}

double probabilityOfLabel(const Ctmc& chain,
                          const std::vector<double>& distribution,
                          const std::string& label) {
  int idx = chain.labelIndex(label);
  require(idx >= 0, "Ctmc: unknown label '" + label + "'");
  require(distribution.size() == chain.numStates(),
          "Ctmc: distribution size mismatch");
  double p = 0.0;
  for (StateId s = 0; s < chain.numStates(); ++s)
    if (chain.hasLabel(s, idx)) p += distribution[s];
  return p;
}

}  // namespace imcdft::ctmc
