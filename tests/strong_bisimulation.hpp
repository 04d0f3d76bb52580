#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ioimc/bisimulation.hpp"
#include "ioimc/model.hpp"

/// \file strong_bisimulation.hpp
/// Strong bisimulation for tests: a naive refiner and the bisimilarity
/// check built on it.  The library aggregates by weak bisimulation only;
/// tests use strong bisimulation as an oracle (composition commutes up to
/// it) and to pin partitions.

namespace imcdft::test {

/// Strong bisimulation by full re-encoding.  Every round signs every state
/// (its class, its moves without input moves into its own class, its rate
/// into each class) and numbers the signatures in order of first
/// appearance, until the class count stops growing.  The first partition
/// groups states by label mask, numbered in order of first appearance.
/// Rates into one class are summed in ascending order, so equal rate
/// multisets give equal bits.
inline ioimc::Partition fullReEncodingStrongBisimulation(
    const ioimc::IOIMC& m) {
  using ioimc::ActionId;
  using ioimc::StateId;
  using Sig = std::tuple<std::uint32_t,
                         std::set<std::pair<ActionId, std::uint32_t>>,
                         std::map<std::uint32_t, double>>;
  const std::size_t n = m.numStates();
  ioimc::Partition p;
  p.classOf.resize(n);
  std::map<std::uint32_t, std::uint32_t> byMask;
  for (StateId s = 0; s < n; ++s)
    p.classOf[s] = byMask
                       .try_emplace(m.labelMask(s),
                                    static_cast<std::uint32_t>(byMask.size()))
                       .first->second;
  p.numClasses = static_cast<std::uint32_t>(byMask.size());
  while (true) {
    std::map<Sig, std::uint32_t> ids;
    std::vector<std::uint32_t> next(n);
    for (StateId s = 0; s < n; ++s) {
      Sig sig;
      auto& [own, moves, rates] = sig;
      own = p.classOf[s];
      for (const auto& t : m.interactive(s)) {
        const std::uint32_t c = p.classOf[t.to];
        if (!(m.signature().isInput(t.action) && c == own))
          moves.emplace(t.action, c);
      }
      std::map<std::uint32_t, std::vector<double>> raw;
      for (const auto& t : m.markovian(s))
        raw[p.classOf[t.to]].push_back(t.rate);
      for (auto& [c, values] : raw) {
        std::sort(values.begin(), values.end());
        double sum = 0.0;
        for (double v : values) sum += v;
        rates[c] = sum;
      }
      next[s] = ids.try_emplace(sig, static_cast<std::uint32_t>(ids.size()))
                    .first->second;
    }
    const bool stable = ids.size() == p.numClasses;
    p.classOf = std::move(next);
    p.numClasses = static_cast<std::uint32_t>(ids.size());
    if (stable) return p;
  }
}

/// True when the initial states of \p x and \p y fall into the same class
/// of the strong bisimulation on their disjoint union.  Requires equal
/// signatures and a shared symbol table; label universes are unified by
/// name.
inline bool stronglyBisimilar(const ioimc::IOIMC& x, const ioimc::IOIMC& y) {
  using ioimc::InteractiveTransition;
  using ioimc::MarkovianTransition;
  using ioimc::StateId;
  EXPECT_EQ(x.signature(), y.signature());
  std::vector<std::string> labelNames = x.labelNames();
  std::vector<int> yRemap(y.labelNames().size());
  for (std::size_t i = 0; i < y.labelNames().size(); ++i) {
    auto it = std::find(labelNames.begin(), labelNames.end(),
                        y.labelNames()[i]);
    if (it == labelNames.end()) {
      labelNames.push_back(y.labelNames()[i]);
      yRemap[i] = static_cast<int>(labelNames.size() - 1);
    } else {
      yRemap[i] = static_cast<int>(it - labelNames.begin());
    }
  }
  const StateId nx = static_cast<StateId>(x.numStates());
  std::vector<std::vector<InteractiveTransition>> inter(nx + y.numStates());
  std::vector<std::vector<MarkovianTransition>> markov(nx + y.numStates());
  std::vector<std::uint32_t> masks(nx + y.numStates());
  for (StateId s = 0; s < nx; ++s) {
    inter[s].assign(x.interactive(s).begin(), x.interactive(s).end());
    markov[s].assign(x.markovian(s).begin(), x.markovian(s).end());
    masks[s] = x.labelMask(s);
  }
  for (StateId s = 0; s < y.numStates(); ++s) {
    for (const auto& t : y.interactive(s))
      inter[nx + s].push_back({t.action, nx + t.to});
    for (const auto& t : y.markovian(s))
      markov[nx + s].push_back({t.rate, nx + t.to});
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < yRemap.size(); ++i)
      if ((y.labelMask(s) >> i) & 1u) mask |= 1u << yRemap[i];
    masks[nx + s] = mask;
  }
  ioimc::IOIMC u("union", x.symbols(), x.signature(), 0, std::move(inter),
                 std::move(markov), std::move(masks), std::move(labelNames));
  const ioimc::Partition p = fullReEncodingStrongBisimulation(u);
  return p.classOf[x.initial()] == p.classOf[nx + y.initial()];
}

}  // namespace imcdft::test
