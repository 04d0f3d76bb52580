#include "ioimc/ops.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <unordered_map>

#include "common/error.hpp"

namespace imcdft::ioimc {

IOIMC hide(IOIMC&& m, const std::vector<ActionId>& actions) {
  Signature sig = m.signature();
  for (ActionId a : actions) sig.hideOutput(a);
  // Transitions are untouched by hiding.
  return std::move(m).withSignature(std::move(sig));
}

IOIMC hide(const IOIMC& m, const std::vector<ActionId>& actions) {
  return hide(IOIMC(m), actions);
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

namespace {

constexpr StateId kNoState = static_cast<StateId>(-1);

/// The part of a graph derived from \p m that is reachable from \p root,
/// states numbered in breadth-first order, each state's targets visited
/// in row order (interactive row, then Markovian).  Derived state c has
/// the rows of m's state rowOf(c) with every target t mapped to mapTo(t),
/// or no transitions when rowOf(c) is kNoState, and label mask maskOf(c).
/// restrictToReachable is the case where every map is the identity.
template <class RowOf, class MapTo, class MaskOf>
IOIMC reachableCopy(const IOIMC& m, std::size_t numStates, StateId root,
                    RowOf&& rowOf, MapTo&& mapTo, MaskOf&& maskOf) {
  std::vector<StateId> id(numStates, kNoState);
  std::vector<StateId> order;  // doubles as the BFS queue
  order.reserve(numStates);
  id[root] = 0;
  order.push_back(root);
  std::size_t numInter = 0, numMarkov = 0;
  auto visit = [&](StateId t) {
    const StateId c = mapTo(t);
    if (id[c] == kNoState) {
      id[c] = static_cast<StateId>(order.size());
      order.push_back(c);
    }
  };
  for (std::size_t head = 0; head < order.size(); ++head) {
    const StateId src = rowOf(order[head]);
    if (src == kNoState) continue;
    for (const auto& t : m.interactive(src)) visit(t.to);
    for (const auto& t : m.markovian(src)) visit(t.to);
    numInter += m.interactive(src).size();
    numMarkov += m.markovian(src).size();
  }
  CsrInteractive inter;
  CsrMarkovian markov;
  std::vector<std::uint32_t> labels(order.size());
  inter.offsets.reserve(order.size() + 1);
  markov.offsets.reserve(order.size() + 1);
  inter.data.reserve(numInter);
  markov.data.reserve(numMarkov);
  for (StateId ns = 0; ns < order.size(); ++ns) {
    inter.beginState();
    markov.beginState();
    labels[ns] = maskOf(order[ns]);
    const StateId src = rowOf(order[ns]);
    if (src == kNoState) continue;
    for (const auto& t : m.interactive(src))
      inter.data.push_back({t.action, id[mapTo(t.to)]});
    for (const auto& t : m.markovian(src))
      markov.data.push_back({t.rate, id[mapTo(t.to)]});
  }
  inter.finish();
  markov.finish();
  return IOIMC(m.name(), m.symbols(), m.signature(), 0, std::move(inter),
               std::move(markov), std::move(labels), m.labelNames());
}

}  // namespace

IOIMC restrictToReachable(const IOIMC& m) {
  auto identity = [](StateId s) { return s; };
  return reachableCopy(m, m.numStates(), m.initial(), identity, identity,
                       [&](StateId s) { return m.labelMask(s); });
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

  // Iterate: each round orders the states by their strong one-step
  // signature under the current ranks — (rank, sorted (action, rank of
  // target) moves, sorted (rank of target, rate bits) rates), compared
  // lexicographically — and re-ranks by position among the distinct
  // signatures.  Signatures lead with the current rank, so the partition
  // only refines; the rank *values* are derived from the sorted signature
  // order, never from state ids, which keeps them isomorphism-invariant.
  // A round counting-sorts the states by rank and then orders each bucket
  // on its own; a rank held by one state needs no signature at all.
  std::vector<std::uint32_t> bucketOffsets, fill;
  std::vector<StateId> byRank(n);
  std::vector<std::uint64_t> arena;
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> order;
  std::vector<std::uint64_t> interTokens;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> markovTokens;
  std::vector<std::uint32_t> next(n);
  while (numRanks < n) {
    bucketOffsets.assign(numRanks + 1, 0);
    for (StateId s = 0; s < n; ++s) ++bucketOffsets[rank[s] + 1];
    for (std::uint32_t r = 0; r < numRanks; ++r)
      bucketOffsets[r + 1] += bucketOffsets[r];
    fill.assign(bucketOffsets.begin(), bucketOffsets.end() - 1);
    for (StateId s = 0; s < n; ++s) byRank[fill[rank[s]]++] = s;

    std::uint32_t newRanks = 0;
    for (std::uint32_t r = 0; r < numRanks; ++r) {
      const std::span<const StateId> bucket(
          byRank.data() + bucketOffsets[r],
          bucketOffsets[r + 1] - bucketOffsets[r]);
      if (bucket.size() == 1) {
        next[bucket.front()] = newRanks++;
        continue;
      }
      arena.clear();
      offsets.assign(1, 0);
      for (StateId s : bucket) {
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
      auto stream = [&](std::uint32_t i) {
        return std::span<const std::uint64_t>(arena.data() + offsets[i],
                                              offsets[i + 1] - offsets[i]);
      };
      order.resize(bucket.size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
        auto sx = stream(x), sy = stream(y);
        return std::lexicographical_compare(sx.begin(), sx.end(), sy.begin(),
                                            sy.end());
      });
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0) {
          auto prev = stream(order[i - 1]), cur = stream(order[i]);
          if (!std::equal(prev.begin(), prev.end(), cur.begin(), cur.end()))
            ++newRanks;
        }
        next[bucket[order[i]]] = newRanks;
      }
      ++newRanks;
    }
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
  // A labelled state keeps no outgoing transition.
  return reachableCopy(
      m, m.numStates(), m.initial(),
      [&](StateId s) { return m.hasLabel(s, idx) ? kNoState : s; },
      [](StateId s) { return s; },
      [&](StateId s) { return m.labelMask(s); });
}

namespace detail {

std::vector<std::uint8_t> observableStates(
    const IOIMC& m, const std::vector<std::uint8_t>& pinned) {
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
  //
  // The closure walks back along every interactive edge and the Markovian
  // edges of states without internal transitions (maximal progress: such a
  // rate can never fire, so it neither observes nor reaches anything).
  auto forEachEdge = [&](StateId s, auto&& visit) {
    bool hasTau = false;
    for (const auto& t : m.interactive(s)) {
      hasTau = hasTau || roles[t.action] == ActionRole::Internal;
      visit(t.to);
    }
    if (!hasTau)
      for (const auto& t : m.markovian(s)) visit(t.to);
  };
  std::vector<std::uint8_t> bad =
      pinned.empty() ? std::vector<std::uint8_t>(n, 0) : pinned;
  std::vector<std::uint32_t> predOffsets(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    for (const auto& t : m.interactive(s))
      if (roles[t.action] == ActionRole::Output) bad[s] = 1;
    forEachEdge(s, [&](StateId to) {
      ++predOffsets[to + 1];
      if (m.labelMask(to) != m.labelMask(s)) bad[s] = 1;
    });
  }
  // Predecessor lists in CSR.
  for (std::size_t s = 0; s < n; ++s) predOffsets[s + 1] += predOffsets[s];
  std::vector<StateId> preds(predOffsets[n]);
  {
    std::vector<std::uint32_t> fill(predOffsets.begin(), predOffsets.end() - 1);
    for (StateId s = 0; s < n; ++s)
      forEachEdge(s, [&](StateId to) { preds[fill[to]++] = s; });
  }
  // Backward closure: anything that can reach a boundary state stays.
  std::vector<StateId> frontier;
  for (StateId s = 0; s < n; ++s)
    if (bad[s]) frontier.push_back(s);
  while (!frontier.empty()) {
    StateId s = frontier.back();
    frontier.pop_back();
    for (std::uint32_t i = predOffsets[s]; i < predOffsets[s + 1]; ++i)
      if (!bad[preds[i]]) {
        bad[preds[i]] = 1;
        frontier.push_back(preds[i]);
      }
  }
  return bad;
}

}  // namespace detail

IOIMC collapseUnobservableSinks(const IOIMC& m) {
  const std::size_t n = m.numStates();
  const std::vector<std::uint8_t> bad = detail::observableStates(m);

  // Kept states first, in state order, then one absorbing sink per label
  // mask found among the sinkable states.
  std::vector<StateId> remap(n), keptState;
  for (StateId s = 0; s < n; ++s)
    if (bad[s]) {
      remap[s] = static_cast<StateId>(keptState.size());
      keptState.push_back(s);
    }
  if (keptState.size() == n) return restrictToReachable(m);  // nothing collapses
  const StateId kept = static_cast<StateId>(keptState.size());
  std::unordered_map<std::uint32_t, StateId> sinkOf;
  std::vector<std::uint32_t> sinkMask;
  for (StateId s = 0; s < n; ++s) {
    if (bad[s]) continue;
    auto [it, inserted] = sinkOf.try_emplace(
        m.labelMask(s), kept + static_cast<StateId>(sinkMask.size()));
    if (inserted) sinkMask.push_back(m.labelMask(s));
    remap[s] = it->second;
  }
  return reachableCopy(
      m, kept + sinkMask.size(), remap[m.initial()],
      [&](StateId c) { return c < kept ? keptState[c] : kNoState; },
      [&](StateId s) { return remap[s]; },
      [&](StateId c) {
        return c < kept ? m.labelMask(keptState[c]) : sinkMask[c - kept];
      });
}

}  // namespace imcdft::ioimc
