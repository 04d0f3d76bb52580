#include "ioimc/ops.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "common/error.hpp"

namespace imcdft::ioimc {

IOIMC hide(const IOIMC& m, const std::vector<ActionId>& actions) {
  Signature sig = m.signature();
  for (ActionId a : actions) sig.hideOutput(a);
  // Transitions are untouched by hiding; copy the flat storage wholesale.
  const std::size_t n = m.numStates();
  CsrInteractive inter;
  CsrMarkovian markov;
  std::vector<std::uint32_t> labels(n);
  inter.data.assign(m.allInteractive().begin(), m.allInteractive().end());
  markov.data.assign(m.allMarkovian().begin(), m.allMarkovian().end());
  inter.offsets.resize(n + 1, 0);
  markov.offsets.resize(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    inter.offsets[s + 1] =
        inter.offsets[s] + static_cast<std::uint32_t>(m.interactive(s).size());
    markov.offsets[s + 1] =
        markov.offsets[s] + static_cast<std::uint32_t>(m.markovian(s).size());
    labels[s] = m.labelMask(s);
  }
  return IOIMC(m.name(), m.symbols(), std::move(sig), m.initial(),
               std::move(inter), std::move(markov), std::move(labels),
               m.labelNames());
}

IOIMC hideAllOutputs(const IOIMC& m) { return hide(m, m.signature().outputs()); }

IOIMC renameActions(
    const IOIMC& m,
    const std::unordered_map<ActionId, std::string>& renaming) {
  // Resolve the whole signature once (one intern per renamed action, not
  // one per transition) and reject non-injective maps: two distinct
  // actions renamed to one name would silently merge behaviors (and
  // corrupt the signature's disjointness invariant).
  std::unordered_map<ActionId, ActionId> resolved;
  std::vector<ActionId> targets;
  const std::size_t numActions = m.signature().inputs().size() +
                                 m.signature().outputs().size() +
                                 m.signature().internals().size();
  resolved.reserve(numActions);
  targets.reserve(numActions);
  auto resolve = [&](const std::vector<ActionId>& actions) {
    for (ActionId a : actions) {
      auto it = renaming.find(a);
      ActionId to = it == renaming.end() ? a : m.symbols()->intern(it->second);
      resolved.emplace(a, to);
      targets.push_back(to);
    }
  };
  resolve(m.signature().inputs());
  resolve(m.signature().outputs());
  resolve(m.signature().internals());
  std::sort(targets.begin(), targets.end());
  auto dup = std::adjacent_find(targets.begin(), targets.end());
  if (dup != targets.end())
    throw ModelError("renameActions: renaming maps two distinct actions of '" +
                     m.name() + "' to '" + m.symbols()->name(*dup) + "'");
  auto mapAction = [&](ActionId a) -> ActionId {
    auto it = resolved.find(a);
    return it == resolved.end() ? a : it->second;
  };
  Signature sig;
  for (ActionId a : m.signature().inputs())
    sig.add(mapAction(a), ActionKind::Input);
  for (ActionId a : m.signature().outputs())
    sig.add(mapAction(a), ActionKind::Output);
  for (ActionId a : m.signature().internals())
    sig.add(mapAction(a), ActionKind::Internal);
  const std::size_t n = m.numStates();
  CsrInteractive inter;
  CsrMarkovian markov;
  std::vector<std::uint32_t> labels(n);
  inter.data.reserve(m.numInteractiveTransitions());
  markov.data.assign(m.allMarkovian().begin(), m.allMarkovian().end());
  inter.offsets.reserve(n + 1);
  markov.offsets.resize(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    inter.beginState();
    markov.offsets[s + 1] =
        markov.offsets[s] + static_cast<std::uint32_t>(m.markovian(s).size());
    for (const auto& t : m.interactive(s))
      inter.data.push_back({mapAction(t.action), t.to});
    labels[s] = m.labelMask(s);
  }
  inter.finish();
  return IOIMC(m.name(), m.symbols(), std::move(sig), m.initial(),
               std::move(inter), std::move(markov), std::move(labels),
               m.labelNames());
}

IOIMC restrictToReachable(const IOIMC& m) {
  const StateId kUnvisited = static_cast<StateId>(-1);
  std::vector<StateId> remap(m.numStates(), kUnvisited);
  std::vector<StateId> order;
  std::queue<StateId> frontier;
  remap[m.initial()] = 0;
  order.push_back(m.initial());
  frontier.push(m.initial());
  while (!frontier.empty()) {
    StateId s = frontier.front();
    frontier.pop();
    auto visit = [&](StateId t) {
      if (remap[t] == kUnvisited) {
        remap[t] = static_cast<StateId>(order.size());
        order.push_back(t);
        frontier.push(t);
      }
    };
    for (const auto& t : m.interactive(s)) visit(t.to);
    for (const auto& t : m.markovian(s)) visit(t.to);
  }
  CsrInteractive inter;
  CsrMarkovian markov;
  std::vector<std::uint32_t> labels(order.size());
  inter.offsets.reserve(order.size() + 1);
  markov.offsets.reserve(order.size() + 1);
  for (StateId ns = 0; ns < order.size(); ++ns) {
    StateId os = order[ns];
    inter.beginState();
    markov.beginState();
    for (const auto& t : m.interactive(os))
      inter.data.push_back({t.action, remap[t.to]});
    for (const auto& t : m.markovian(os))
      markov.data.push_back({t.rate, remap[t.to]});
    labels[ns] = m.labelMask(os);
  }
  inter.finish();
  markov.finish();
  return IOIMC(m.name(), m.symbols(), m.signature(), 0, std::move(inter),
               std::move(markov), std::move(labels), m.labelNames());
}

IOIMC canonicalRenumber(const IOIMC& m, bool* complete) {
  const std::size_t n = m.numStates();

  // Round 0: rank by (is-initial, label mask).  Both properties are
  // invariant under isomorphism, so corresponding states of two isomorphic
  // models start with equal ranks.
  std::vector<std::uint32_t> rank(n);
  std::uint32_t numRanks = 0;
  {
    std::vector<std::uint64_t> key(n);
    for (StateId s = 0; s < n; ++s)
      key[s] = (static_cast<std::uint64_t>(s == m.initial() ? 0 : 1) << 32) |
               m.labelMask(s);
    std::vector<std::uint64_t> sorted = key;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    numRanks = static_cast<std::uint32_t>(sorted.size());
    for (StateId s = 0; s < n; ++s)
      rank[s] = static_cast<std::uint32_t>(
          std::lower_bound(sorted.begin(), sorted.end(), key[s]) -
          sorted.begin());
  }

  // Iterate: each round encodes every state's strong one-step signature
  // under the current ranks as a token stream, orders the streams
  // lexicographically and re-ranks by position among the distinct streams.
  // Streams start with the state's current rank, so the partition only
  // refines; the rank *values* are derived from the sorted stream order,
  // never from state ids, which keeps them isomorphism-invariant.
  std::vector<std::uint64_t> arena;
  std::vector<std::size_t> offsets;
  std::vector<std::uint64_t> interTokens;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> markovTokens;
  std::vector<std::uint32_t> order(n), next(n);
  while (numRanks < n) {
    arena.clear();
    offsets.assign(1, 0);
    for (StateId s = 0; s < n; ++s) {
      arena.push_back(rank[s]);
      interTokens.clear();
      for (const auto& t : m.interactive(s))
        interTokens.push_back((static_cast<std::uint64_t>(t.action) << 32) |
                              rank[t.to]);
      std::sort(interTokens.begin(), interTokens.end());
      arena.push_back(interTokens.size());
      arena.insert(arena.end(), interTokens.begin(), interTokens.end());
      markovTokens.clear();
      for (const auto& t : m.markovian(s))
        markovTokens.emplace_back(rank[t.to],
                                  std::bit_cast<std::uint64_t>(t.rate));
      std::sort(markovTokens.begin(), markovTokens.end());
      arena.push_back(markovTokens.size());
      for (const auto& [to, rate] : markovTokens) {
        arena.push_back(to);
        arena.push_back(rate);
      }
      offsets.push_back(arena.size());
    }
    auto stream = [&](StateId s) {
      return std::span<const std::uint64_t>(arena.data() + offsets[s],
                                            offsets[s + 1] - offsets[s]);
    };
    auto less = [&](StateId x, StateId y) {
      auto sx = stream(x), sy = stream(y);
      return std::lexicographical_compare(sx.begin(), sx.end(), sy.begin(),
                                          sy.end());
    };
    auto equal = [&](StateId x, StateId y) {
      auto sx = stream(x), sy = stream(y);
      return sx.size() == sy.size() &&
             std::equal(sx.begin(), sx.end(), sy.begin());
    };
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), less);
    std::uint32_t newRanks = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && !equal(order[i - 1], order[i])) ++newRanks;
      next[order[i]] = newRanks;
    }
    ++newRanks;
    if (newRanks == numRanks) break;  // converged short of singletons
    rank.swap(next);
    numRanks = newRanks;
  }

  if (complete) *complete = numRanks == n;
  if (numRanks != n) return m;  // ambiguous: keep the input numbering

  // Every rank is unique: renumber state s to rank[s] and emit each row in
  // canonical inner order.
  std::vector<StateId> stateOfRank(n);
  for (StateId s = 0; s < n; ++s) stateOfRank[rank[s]] = s;
  CsrInteractive inter;
  CsrMarkovian markov;
  std::vector<std::uint32_t> labels(n);
  inter.offsets.reserve(n + 1);
  markov.offsets.reserve(n + 1);
  inter.data.reserve(m.numInteractiveTransitions());
  markov.data.reserve(m.numMarkovianTransitions());
  for (std::uint32_t r = 0; r < n; ++r) {
    const StateId s = stateOfRank[r];
    inter.beginState();
    markov.beginState();
    labels[r] = m.labelMask(s);
    const std::size_t interBegin = inter.data.size();
    for (const auto& t : m.interactive(s))
      inter.data.push_back({t.action, rank[t.to]});
    std::sort(inter.data.begin() + static_cast<std::ptrdiff_t>(interBegin),
              inter.data.end(),
              [](const InteractiveTransition& x, const InteractiveTransition& y) {
                return x.action != y.action ? x.action < y.action : x.to < y.to;
              });
    const std::size_t markovBegin = markov.data.size();
    for (const auto& t : m.markovian(s))
      markov.data.push_back({t.rate, rank[t.to]});
    std::sort(markov.data.begin() + static_cast<std::ptrdiff_t>(markovBegin),
              markov.data.end(),
              [](const MarkovianTransition& x, const MarkovianTransition& y) {
                return x.to != y.to
                           ? x.to < y.to
                           : std::bit_cast<std::uint64_t>(x.rate) <
                                 std::bit_cast<std::uint64_t>(y.rate);
              });
  }
  inter.finish();
  markov.finish();
  return IOIMC(m.name(), m.symbols(), m.signature(), rank[m.initial()],
               std::move(inter), std::move(markov), std::move(labels),
               m.labelNames());
}

IOIMC makeLabelAbsorbing(const IOIMC& m, const std::string& label) {
  int idx = m.labelIndex(label);
  require(idx >= 0, "makeLabelAbsorbing: model has no label '" + label + "'");
  CsrInteractive inter;
  CsrMarkovian markov;
  std::vector<std::uint32_t> labels(m.numStates());
  inter.offsets.reserve(m.numStates() + 1);
  markov.offsets.reserve(m.numStates() + 1);
  for (StateId s = 0; s < m.numStates(); ++s) {
    inter.beginState();
    markov.beginState();
    labels[s] = m.labelMask(s);
    if (m.hasLabel(s, idx)) continue;  // drop all outgoing transitions
    auto it = m.interactive(s);
    inter.data.insert(inter.data.end(), it.begin(), it.end());
    auto mt = m.markovian(s);
    markov.data.insert(markov.data.end(), mt.begin(), mt.end());
  }
  inter.finish();
  markov.finish();
  IOIMC out(m.name(), m.symbols(), m.signature(), m.initial(),
            std::move(inter), std::move(markov), std::move(labels),
            m.labelNames());
  return restrictToReachable(out);
}

IOIMC collapseUnobservableSinks(const IOIMC& m) {
  const std::size_t n = m.numStates();
  const std::vector<ActionRole> roles = actionRoles(m);
  // A state is a "boundary" when its future can actually be observed.  The
  // criterion is *semantic*, not syntactic, so that every graph realization
  // of the same behavior collapses identically (the on-the-fly engine's
  // reduced graphs must collapse exactly like the classic full product):
  //  * an output transition is observable (urgent, locally controlled);
  //  * any transition that changes the label mask is observable — except a
  //    Markovian transition of a state with enabled internal transitions,
  //    which maximal progress keeps from ever firing;
  //  * an *input* transition is observable only when its target is — an
  //    environment that triggers it and then sees an unobservable same-mask
  //    future has learned nothing (co-inductive: badness of the target
  //    propagates to the edge owner through the backward closure below).
  std::vector<std::uint8_t> bad(n, 0);
  std::vector<std::vector<StateId>> predecessors(n);
  for (StateId s = 0; s < n; ++s) {
    bool hasTau = false;
    for (const auto& t : m.interactive(s))
      if (roles[t.action] == ActionRole::Internal) hasTau = true;
    for (const auto& t : m.interactive(s)) {
      predecessors[t.to].push_back(s);
      if (roles[t.action] == ActionRole::Output) bad[s] = 1;
      if (m.labelMask(t.to) != m.labelMask(s)) bad[s] = 1;
    }
    for (const auto& t : m.markovian(s)) {
      if (hasTau) continue;  // maximal progress: this rate can never fire,
                             // so it neither observes nor reaches anything
      predecessors[t.to].push_back(s);
      if (m.labelMask(t.to) != m.labelMask(s)) bad[s] = 1;
    }
  }
  // Backward closure: anything that can reach a boundary state stays.
  std::vector<StateId> frontier;
  for (StateId s = 0; s < n; ++s)
    if (bad[s]) frontier.push_back(s);
  while (!frontier.empty()) {
    StateId s = frontier.back();
    frontier.pop_back();
    for (StateId p : predecessors[s])
      if (!bad[p]) {
        bad[p] = 1;
        frontier.push_back(p);
      }
  }

  // One absorbing sink per label mask found among sinkable states.
  std::unordered_map<std::uint32_t, StateId> sinkOf;
  sinkOf.reserve(32);  // at most one sink per label-mask bit combination seen
  std::vector<StateId> remap(n);
  StateId next = 0;
  for (StateId s = 0; s < n; ++s)
    if (bad[s]) remap[s] = next++;
  for (StateId s = 0; s < n; ++s) {
    if (bad[s]) continue;
    auto [it, inserted] = sinkOf.try_emplace(m.labelMask(s), next);
    if (inserted) ++next;
    remap[s] = it->second;
  }

  std::vector<std::vector<InteractiveTransition>> inter(next);
  std::vector<std::vector<MarkovianTransition>> markov(next);
  std::vector<std::uint32_t> labels(next, 0);
  for (StateId s = 0; s < n; ++s) {
    labels[remap[s]] = m.labelMask(s);
    if (!bad[s]) continue;  // sinks are absorbing
    for (const auto& t : m.interactive(s))
      inter[remap[s]].push_back({t.action, remap[t.to]});
    for (const auto& t : m.markovian(s))
      markov[remap[s]].push_back({t.rate, remap[t.to]});
  }
  IOIMC out(m.name(), m.symbols(), m.signature(), remap[m.initial()],
            std::move(inter), std::move(markov), std::move(labels),
            m.labelNames());
  return restrictToReachable(out);
}

}  // namespace imcdft::ioimc
