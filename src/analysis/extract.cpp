#include "analysis/extract.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace imcdft::analysis {

using ioimc::IOIMC;
using ioimc::StateId;

Extraction extract(const IOIMC& closed, const std::string& goalLabel) {
  const std::size_t n = closed.numStates();
  Extraction out;
  ctmdp::Ctmdp& mdp = out.mdp;

  // Distinct tau successors of every state, written straight into the
  // CTMDP's choice table (sorted ascending per row).
  mdp.choiceOffsets.reserve(n + 1);
  mdp.choiceOffsets.push_back(0);
  mdp.choiceTargets.reserve(closed.numInteractiveTransitions());
  mdp.vanishing.resize(n);
  out.deterministic = true;
  for (StateId s = 0; s < n; ++s) {
    const std::size_t begin = mdp.choiceTargets.size();
    for (const auto& t : closed.interactive(s)) {
      if (!closed.signature().isInternal(t.action))
        require(false,
                "extract: model still has visible transition on action '" +
                    closed.actionName(t.action) +
                    "' — the community was not fully composed/hidden");
      mdp.choiceTargets.push_back(t.to);
    }
    auto first = mdp.choiceTargets.begin() + begin;
    std::sort(first, mdp.choiceTargets.end());
    mdp.choiceTargets.erase(std::unique(first, mdp.choiceTargets.end()),
                            mdp.choiceTargets.end());
    mdp.choiceOffsets.push_back(
        static_cast<std::uint32_t>(mdp.choiceTargets.size()));
    const std::size_t count = mdp.choices(s).size();
    mdp.vanishing[s] = count != 0;
    if (count > 1) out.deterministic = false;
  }

  // --- CTMDP view: keep every state; maximal progress kills the rates of
  // vanishing states. ---
  const int goalIdx = closed.labelIndex(goalLabel);
  mdp.initial = closed.initial();
  mdp.goal.resize(n);
  mdp.rates.offsets.reserve(n + 1);
  mdp.rates.targets.reserve(closed.numMarkovianTransitions());
  mdp.rates.rates.reserve(closed.numMarkovianTransitions());
  for (StateId s = 0; s < n; ++s) {
    mdp.goal[s] = closed.hasLabel(s, goalIdx);
    if (!mdp.isVanishing(s))
      for (const auto& t : closed.markovian(s)) mdp.rates.add(t.rate, t.to);
    mdp.rates.endRow();
  }

  if (!out.deterministic) return out;

  // --- Deterministic: eliminate vanishing states by forwarding. ---
  std::vector<StateId> resolved(n, static_cast<StateId>(-1));
  for (StateId s = 0; s < n; ++s) {
    if (resolved[s] != static_cast<StateId>(-1)) continue;
    std::vector<StateId> path;
    StateId cur = s;
    while (mdp.isVanishing(cur) && resolved[cur] == static_cast<StateId>(-1)) {
      path.push_back(cur);
      cur = mdp.choices(cur).front();
      if (std::find(path.begin(), path.end(), cur) != path.end())
        require(false, "extract: divergent internal cycle (time-lock)");
    }
    StateId target = mdp.isVanishing(cur) ? resolved[cur] : cur;
    for (StateId p : path) resolved[p] = target;
    resolved[s] = target;
  }

  // The chain's rows are the tangible rows of the CTMDP view, renumbered.
  std::vector<StateId> remap(n, static_cast<StateId>(-1));
  ctmc::Ctmc& chain = out.chain;
  chain.labelNames = closed.labelNames();
  for (StateId s = 0; s < n; ++s) {
    if (mdp.isVanishing(s)) continue;
    remap[s] = static_cast<StateId>(chain.labelMasks.size());
    chain.labelMasks.push_back(closed.labelMask(s));
  }
  chain.rates.offsets.reserve(chain.labelMasks.size() + 1);
  chain.rates.targets.reserve(mdp.rates.numTransitions());
  chain.rates.rates.reserve(mdp.rates.numTransitions());
  for (StateId s = 0; s < n; ++s) {
    if (mdp.isVanishing(s)) continue;
    const ctmc::RateRows::Row row = mdp.rates.row(s);
    for (std::size_t k = 0; k < row.size(); ++k)
      chain.rates.add(row.rate[k], remap[resolved[row.to[k]]]);
    chain.rates.endRow();
  }
  chain.initial = remap[resolved[closed.initial()]];
  chain.validate();
  return out;
}

}  // namespace imcdft::analysis
