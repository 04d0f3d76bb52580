#include "diftree/monolithic.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "analysis/converter.hpp"
#include "common/error.hpp"
#include "ctmc/transient.hpp"
#include "dft/execution.hpp"

namespace imcdft::diftree {

using dft::Dft;
using dft::Element;
using dft::ElementId;
using dft::ExecutionState;
using dft::Executor;

namespace {

/// Byte-wise order of packed states: std::less's order, spelled out
/// because g++ 12.2 at -O2 reports a false -Wstringop-overread on the
/// vector <=> that std::less reaches.
struct PackedLess {
  bool operator()(const std::vector<std::uint8_t>& a,
                  const std::vector<std::uint8_t>& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

}  // namespace

MonolithicResult generateMonolithic(const Dft& dft,
                                    const MonolithicOptions& opts) {
  analysis::checkConvertible(dft);
  Executor executor(dft);

  std::map<std::vector<std::uint8_t>, ctmc::StateId, PackedLess> ids;
  std::vector<ExecutionState> states;
  std::deque<ctmc::StateId> frontier;
  auto stateOf = [&](ExecutionState g) {
    auto [it, inserted] = ids.try_emplace(g.pack(), 0);
    if (inserted) {
      it->second = static_cast<ctmc::StateId>(states.size());
      states.push_back(std::move(g));
      frontier.push_back(it->second);
    }
    return it->second;
  };

  MonolithicResult result;
  ctmc::Ctmc& chain = result.chain;
  chain.labelNames = {"down"};
  chain.initial = stateOf(executor.initialState());

  // States are numbered in discovery order and expanded first in, first
  // out, so rows come out in state order and go straight into the flat
  // table.
  while (!frontier.empty()) {
    ctmc::StateId id = frontier.front();
    frontier.pop_front();
    ExecutionState g = states[id];  // copy: the states vector grows below
    const bool down = g.failed[dft.top()] != 0;
    if (down && opts.truncateAtSystemFailure) {
      chain.rates.endRow();
      continue;
    }

    for (ElementId x = 0; x < dft.size(); ++x) {
      const Element& e = dft.element(x);
      if (!e.isBasicEvent()) continue;
      double rate = executor.failureRate(g, x);
      if (rate > 0.0) {
        ExecutionState next = g;
        // Erlang events advance through their phases before failing.
        if (next.phase[x] + 1u < e.be.phases) {
          ++next.phase[x];
        } else {
          executor.failAndPropagate(next, x);
        }
        chain.rates.add(rate, stateOf(std::move(next)));
      }
      if (e.be.repairRate && g.failed[x]) {
        ExecutionState next = g;
        executor.repairAndPropagate(next, x);
        chain.rates.add(*e.be.repairRate, stateOf(std::move(next)));
      }
    }
    chain.rates.endRow();
  }
  chain.labelMasks.resize(states.size(), 0);
  for (ctmc::StateId s = 0; s < states.size(); ++s)
    if (states[s].failed[dft.top()]) chain.labelMasks[s] |= 1u;
  chain.validate();
  result.numStates = chain.numStates();
  result.numTransitions = chain.numTransitions();
  return result;
}

double monolithicUnreliability(const Dft& dft, double missionTime) {
  MonolithicResult result = generateMonolithic(dft);
  return ctmc::probabilityOfLabelAt(result.chain, "down", missionTime);
}

}  // namespace imcdft::diftree
