#include "ioimc/compose.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ioimc/compose_internal.hpp"

namespace imcdft::ioimc {

namespace detail {

GroupedModel groupModel(const IOIMC& m) {
  GroupedModel out;
  const std::size_t n = m.numStates();
  out.stateOffsets.reserve(n + 1);
  out.targets.reserve(m.numInteractiveTransitions());
  out.groups.reserve(m.numInteractiveTransitions());
  std::vector<InteractiveTransition> scratch;
  for (StateId s = 0; s < n; ++s) {
    out.stateOffsets.push_back(static_cast<std::uint32_t>(out.groups.size()));
    auto ts = m.interactive(s);
    scratch.assign(ts.begin(), ts.end());
    std::stable_sort(scratch.begin(), scratch.end(),
                     [](const InteractiveTransition& x,
                        const InteractiveTransition& y) {
                       return x.action < y.action;
                     });
    for (std::size_t i = 0; i < scratch.size();) {
      std::size_t j = i;
      std::uint32_t begin = static_cast<std::uint32_t>(out.targets.size());
      while (j < scratch.size() && scratch[j].action == scratch[i].action)
        out.targets.push_back(scratch[j++].to);
      out.groups.push_back({scratch[i].action, begin,
                            static_cast<std::uint32_t>(out.targets.size())});
      i = j;
    }
  }
  out.stateOffsets.push_back(static_cast<std::uint32_t>(out.groups.size()));
  return out;
}

void checkCompatible(const IOIMC& a, const IOIMC& b) {
  require(a.symbols() == b.symbols(),
          "compose: models must share one symbol table");
  for (ActionId o : a.signature().outputs())
    require(!b.signature().isOutput(o),
            "compose: models '" + a.name() + "' and '" + b.name() +
                "' share output action '" + a.actionName(o) + "'");
  auto checkInternal = [](const IOIMC& x, const IOIMC& y) {
    for (ActionId i : x.signature().internals())
      require(!y.signature().isInput(i) && !y.signature().isOutput(i),
              "compose: internal action '" + x.actionName(i) + "' of '" +
                  x.name() + "' collides with a visible action of '" +
                  y.name() + "'");
  };
  checkInternal(a, b);
  checkInternal(b, a);
}

Signature compositeSignature(const IOIMC& a, const IOIMC& b) {
  Signature sig;
  for (ActionId o : a.signature().outputs()) sig.add(o, ActionKind::Output);
  for (ActionId o : b.signature().outputs()) sig.add(o, ActionKind::Output);
  for (ActionId i : a.signature().inputs())
    if (!sig.isOutput(i)) sig.add(i, ActionKind::Input);
  for (ActionId i : b.signature().inputs())
    if (!sig.isOutput(i)) sig.add(i, ActionKind::Input);
  for (ActionId h : a.signature().internals()) sig.add(h, ActionKind::Internal);
  for (ActionId h : b.signature().internals()) sig.add(h, ActionKind::Internal);
  return sig;
}

MergedLabels mergeLabels(const IOIMC& a, const IOIMC& b) {
  // The name -> index map is built once instead of linearly scanning
  // labelNames per label per compose.
  MergedLabels out;
  out.names = a.labelNames();
  out.bRemap.resize(b.labelNames().size());
  std::unordered_map<std::string, int> labelIndex;
  labelIndex.reserve(out.names.size() + b.labelNames().size());
  for (std::size_t i = 0; i < out.names.size(); ++i)
    labelIndex.emplace(out.names[i], static_cast<int>(i));
  for (std::size_t i = 0; i < b.labelNames().size(); ++i) {
    const std::string& ln = b.labelNames()[i];
    auto [it, inserted] =
        labelIndex.try_emplace(ln, static_cast<int>(out.names.size()));
    if (inserted) {
      require(out.names.size() < 32, "compose: more than 32 labels");
      out.names.push_back(ln);
    }
    out.bRemap[i] = it->second;
  }
  return out;
}

}  // namespace detail

namespace {

/// The reachable product of \p a and \p b.  With \p stopAtCaps (which
/// needs a token), gives up and returns nullopt as soon as the pairs
/// discovered and the transitions emitted so far exceed the token's
/// live-state or rough memory cap; otherwise an over-cap product trips the
/// periodic checkpoint.  \p discovered receives the pairs discovered.
std::optional<IOIMC> reachableProduct(const IOIMC& a, const IOIMC& b,
                                      const CancelToken* cancel,
                                      bool stopAtCaps,
                                      std::size_t& discovered) {
  detail::checkCompatible(a, b);
  Signature sig = detail::compositeSignature(a, b);
  detail::MergedLabels labelUnion = detail::mergeLabels(a, b);

  // Per-input precomputation: dense role tables and action-grouped spans.
  const std::vector<ActionRole> roleA = actionRoles(a);
  const std::vector<ActionRole> roleB = actionRoles(b);
  const detail::GroupedModel groupedA = detail::groupModel(a);
  const detail::GroupedModel groupedB = detail::groupModel(b);

  // Breadth-first over reachable state pairs.  Ids are assigned in
  // discovery order and expanded in exactly that order, so the output rows
  // can be appended straight into CSR storage.
  const std::size_t sizeEstimate = a.numStates() + b.numStates();
  detail::PairIndex ids(sizeEstimate);
  std::vector<std::pair<StateId, StateId>> pairs;
  pairs.reserve(sizeEstimate);
  auto stateOf = [&](StateId sa, StateId sb) {
    const auto [id, inserted] =
        ids.insert(sa, sb, static_cast<StateId>(pairs.size()));
    if (inserted) pairs.emplace_back(sa, sb);
    return id;
  };

  const std::size_t degreeEstimate =
      a.numTransitions() + b.numTransitions();
  CsrInteractive inter;
  CsrMarkovian markov;
  std::vector<std::uint32_t> labels;
  inter.offsets.reserve(sizeEstimate + 1);
  markov.offsets.reserve(sizeEstimate + 1);
  inter.data.reserve(2 * degreeEstimate);
  markov.data.reserve(degreeEstimate);
  labels.reserve(sizeEstimate);

  // The discovered pair set and its transitions are this loop's live
  // region — exactly what explodes on pathological products.
  auto transitions = [&] { return inter.data.size() + markov.data.size(); };
  auto overCaps = [&] {
    return stopAtCaps && cancel->exceedsCaps(pairs.size(), transitions());
  };
  stateOf(a.initial(), b.initial());
  for (StateId id = 0; id < pairs.size(); ++id) {
    if (overCaps()) break;
    if (cancel && (id & 255u) == 0u)
      cancel->checkpoint("compose", pairs.size(), transitions());
    const auto [sa, sb] = pairs[id];
    inter.beginState();
    markov.beginState();
    labels.push_back(labelUnion.compositeMask(a.labelMask(sa), b.labelMask(sb)));
    detail::forEachProductTransition(
        a, b, roleA, roleB, groupedA, groupedB, sa, sb,
        [&](ActionId act, StateId ta, StateId tb) {
          inter.data.push_back({act, stateOf(ta, tb)});
        },
        [&](double rate, StateId ta, StateId tb) {
          markov.data.push_back({rate, stateOf(ta, tb)});
        });
  }
  discovered = pairs.size();
  if (overCaps()) return std::nullopt;
  inter.finish();
  markov.finish();

  return IOIMC("(" + a.name() + "||" + b.name() + ")", a.symbols(),
               std::move(sig), 0, std::move(inter), std::move(markov),
               std::move(labels), std::move(labelUnion.names));
}

}  // namespace

IOIMC compose(const IOIMC& a, const IOIMC& b, const CancelToken* cancel) {
  std::size_t discovered = 0;
  return *reachableProduct(a, b, cancel, false, discovered);
}

std::optional<IOIMC> composeWithinCaps(const IOIMC& a, const IOIMC& b,
                                       const CancelToken& cancel,
                                       std::size_t& discovered) {
  return reachableProduct(a, b, &cancel, true, discovered);
}

}  // namespace imcdft::ioimc
