#include "analysis/extract.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace imcdft::analysis {

using ioimc::IOIMC;
using ioimc::StateId;

Extraction extract(const IOIMC& closed, const std::string& goalLabel) {
  // Distinct tau successors of every state as one flat table: state s owns
  // tauTargets[tauOffsets[s], tauOffsets[s + 1]), sorted ascending.
  const std::size_t n = closed.numStates();
  std::vector<std::size_t> tauOffsets(n + 1, 0);
  std::vector<StateId> tauTargets;
  tauTargets.reserve(closed.numInteractiveTransitions());
  for (StateId s = 0; s < n; ++s) {
    const std::size_t begin = tauTargets.size();
    for (const auto& t : closed.interactive(s)) {
      require(closed.signature().isInternal(t.action),
              "extract: model still has visible transition on action '" +
                  closed.actionName(t.action) +
                  "' — the community was not fully composed/hidden");
      tauTargets.push_back(t.to);
    }
    std::sort(tauTargets.begin() + begin, tauTargets.end());
    tauTargets.erase(std::unique(tauTargets.begin() + begin, tauTargets.end()),
                     tauTargets.end());
    tauOffsets[s + 1] = tauTargets.size();
  }
  auto tauCount = [&](StateId s) { return tauOffsets[s + 1] - tauOffsets[s]; };
  auto vanishing = [&](StateId s) { return tauCount(s) != 0; };

  Extraction out;
  out.deterministic = true;
  for (StateId s = 0; s < n; ++s)
    if (tauCount(s) > 1) out.deterministic = false;

  const int goalIdx = closed.labelIndex(goalLabel);

  // --- CTMDP view: keep every state; choices at vanishing states. ---
  ctmdp::Ctmdp& mdp = out.mdp;
  mdp.initial = closed.initial();
  mdp.rates.resize(n);
  mdp.choices.resize(n);
  mdp.goal.assign(n, false);
  for (StateId s = 0; s < n; ++s) {
    mdp.goal[s] = closed.hasLabel(s, goalIdx);
    if (vanishing(s)) {
      // Maximal progress: rates are dead here.
      mdp.choices[s].assign(tauTargets.begin() + tauOffsets[s],
                            tauTargets.begin() + tauOffsets[s + 1]);
    } else {
      for (const auto& t : closed.markovian(s))
        mdp.rates[s].push_back({t.rate, t.to});
    }
  }

  if (!out.deterministic) return out;

  // --- Deterministic: eliminate vanishing states by forwarding. ---
  std::vector<StateId> resolved(n, static_cast<StateId>(-1));
  for (StateId s = 0; s < n; ++s) {
    if (resolved[s] != static_cast<StateId>(-1)) continue;
    std::vector<StateId> path;
    StateId cur = s;
    while (vanishing(cur) && resolved[cur] == static_cast<StateId>(-1)) {
      path.push_back(cur);
      cur = tauTargets[tauOffsets[cur]];
      require(std::find(path.begin(), path.end(), cur) == path.end(),
              "extract: divergent internal cycle (time-lock)");
    }
    StateId target = vanishing(cur) ? resolved[cur] : cur;
    for (StateId p : path) resolved[p] = target;
    resolved[s] = target;
  }

  std::vector<StateId> remap(n, static_cast<StateId>(-1));
  ctmc::Ctmc& chain = out.chain;
  chain.labelNames = closed.labelNames();
  for (StateId s = 0; s < n; ++s) {
    if (vanishing(s)) continue;
    remap[s] = static_cast<StateId>(chain.rates.size());
    chain.rates.emplace_back();
    chain.labelMasks.push_back(closed.labelMask(s));
  }
  for (StateId s = 0; s < n; ++s) {
    if (vanishing(s)) continue;
    for (const auto& t : closed.markovian(s))
      chain.rates[remap[s]].push_back({t.rate, remap[resolved[t.to]]});
  }
  chain.initial = remap[resolved[closed.initial()]];
  chain.validate();
  return out;
}

}  // namespace imcdft::analysis
