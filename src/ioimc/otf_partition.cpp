#include "ioimc/otf_partition.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ioimc/signature_interner.hpp"
#include "ioimc/tau_closure.hpp"

namespace imcdft::ioimc::otf {

namespace {

using Role = ActionRole;

constexpr std::uint32_t kNoDense = static_cast<std::uint32_t>(-1);

/// detail::TauClosure over the dense live region, indexed by dense ids.
/// Unexpanded states have no outgoing edges here, so they are closure
/// leaves; their stability is unknown and never consulted (they are
/// singleton classes and contribute to other states' signatures only
/// through their class id).
using PartialTauInfo = detail::TauClosure;

PartialTauInfo computePartialTauInfo(
    const PartialGraph& g, const std::vector<StateId>& live,
    const std::vector<std::uint32_t>& denseOf) {
  const std::size_t n = live.size();
  const std::vector<Role>& roles = *g.roles;
  PartialTauInfo info;
  info.stable.assign(n, true);
  detail::TauGraph tauSucc;
  tauSucc.offsets.reserve(n + 1);
  for (std::uint32_t d = 0; d < n; ++d) {
    const StateId s = live[d];
    if (!(*g.expanded)[s]) {
      tauSucc.endRow();
      continue;
    }
    for (const auto& t : (*g.inter)[s]) {
      const StateId to = (*g.rep)[t.to];
      require(to < denseOf.size() && denseOf[to] != kNoDense,
              "otf refine: live state has an edge to a non-live state");
      if (roles[t.action] == Role::Internal) {
        tauSucc.succ.push_back(denseOf[to]);
        info.stable[d] = false;
      } else if (g.outputsUrgent && roles[t.action] == Role::Output) {
        info.stable[d] = false;
      }
    }
    tauSucc.endRow();
  }
  detail::computeSccClosures(tauSucc, info);
  return info;
}

/// Reusable scratch buffers for one state's weak-signature encoding
/// (mirrors WeakScratch in bisimulation.cpp).
struct Scratch {
  std::vector<std::uint32_t> tauTargets;
  std::vector<std::uint64_t> visible;
  std::vector<std::pair<std::uint32_t, double>> raw;
  std::vector<std::uint64_t> rateTokens;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rateVecs;
};

/// Per-pass saturated view of the partial graph: the parts of each
/// state's weak signature that do not depend on the current partition.
/// Refinement iterations only remap dense targets through classOf, so
/// the tau-closure walks run once per pass instead of once per
/// iteration.  All vectors are read-only during refinement.
struct Saturation {
  /// Dedup'd weak interactive edges per dense state, packed as
  /// (action << 32 | targetDense), CSR via visOff.
  std::vector<std::uint64_t> vis;
  std::vector<std::uint32_t> visOff;
  /// Stable expanded tau-closure members per dense state, CSR via
  /// memberOff (closure order, which fixes rate-vector emission order).
  std::vector<std::uint32_t> stableMembers;
  std::vector<std::uint32_t> memberOff;
  /// Markovian edges (targetDense, rate) per dense state in transition
  /// order, CSR via markovOff; only filled for stable expanded states.
  std::vector<std::pair<std::uint32_t, double>> markov;
  std::vector<std::uint32_t> markovOff;
};

Saturation buildSaturation(const PartialGraph& g,
                           const std::vector<StateId>& live,
                           const std::vector<std::uint32_t>& denseOf,
                           const PartialTauInfo& tau) {
  const std::size_t n = live.size();
  const std::vector<Role>& roles = *g.roles;
  Saturation sat;
  sat.markovOff.reserve(n + 1);
  for (std::uint32_t d = 0; d < n; ++d) {
    sat.markovOff.push_back(static_cast<std::uint32_t>(sat.markov.size()));
    const StateId s = live[d];
    if (!(*g.expanded)[s] || !tau.stable[d]) continue;
    for (const auto& t : (*g.markov)[s])
      sat.markov.emplace_back(denseOf[(*g.rep)[t.to]], t.rate);
  }
  sat.markovOff.push_back(static_cast<std::uint32_t>(sat.markov.size()));

  sat.visOff.reserve(n + 1);
  sat.memberOff.reserve(n + 1);
  std::vector<std::uint64_t> buf;
  for (std::uint32_t d = 0; d < n; ++d) {
    sat.visOff.push_back(static_cast<std::uint32_t>(sat.vis.size()));
    sat.memberOff.push_back(
        static_cast<std::uint32_t>(sat.stableMembers.size()));
    buf.clear();
    for (std::uint32_t u : tau.closure(d)) {
      const StateId su = live[u];
      if (!(*g.expanded)[su]) continue;  // frontier member: moves unknown
      if (tau.stable[u]) sat.stableMembers.push_back(u);
      for (const auto& t : (*g.inter)[su]) {
        if (roles[t.action] == Role::Internal) continue;
        const std::uint32_t target = denseOf[(*g.rep)[t.to]];
        for (std::uint32_t v : tau.closure(target))
          buf.push_back((static_cast<std::uint64_t>(t.action) << 32) | v);
      }
    }
    std::sort(buf.begin(), buf.end());
    buf.erase(std::unique(buf.begin(), buf.end()), buf.end());
    sat.vis.insert(sat.vis.end(), buf.begin(), buf.end());
  }
  sat.visOff.push_back(static_cast<std::uint32_t>(sat.vis.size()));
  sat.memberOff.push_back(
      static_cast<std::uint32_t>(sat.stableMembers.size()));
  return sat;
}

/// Appends the canonical token encoding of expanded dense state \p d's
/// weak signature under partition \p classOf — the exact encoding of
/// bisimulation.cpp's encodeWeakSignature, evaluated over the partial
/// graph via the per-pass saturation.  Mapping dense targets through
/// classOf then sorting/dedup'ing yields the same token streams as
/// walking the closures under the partition directly, so partitions
/// (and the quotient) are bitwise identical to the unhoisted encoding.
/// Frontier states appear through their singleton classes only.
void encodePartialWeakSignature(const std::vector<Role>& roles,
                                const PartialTauInfo& tau,
                                const Saturation& sat,
                                const std::vector<std::uint32_t>& classOf,
                                std::uint32_t d, Scratch& ws,
                                std::vector<std::uint64_t>& out) {
  ws.tauTargets.clear();
  for (std::uint32_t u : tau.closure(d)) ws.tauTargets.push_back(classOf[u]);
  std::sort(ws.tauTargets.begin(), ws.tauTargets.end());
  ws.tauTargets.erase(
      std::unique(ws.tauTargets.begin(), ws.tauTargets.end()),
      ws.tauTargets.end());

  ws.visible.clear();
  for (std::uint32_t i = sat.visOff[d]; i < sat.visOff[d + 1]; ++i) {
    const std::uint64_t e = sat.vis[i];
    const std::uint32_t action = static_cast<std::uint32_t>(e >> 32);
    const std::uint32_t c = classOf[static_cast<std::uint32_t>(e)];
    if (roles[action] == Role::Input &&
        std::binary_search(ws.tauTargets.begin(), ws.tauTargets.end(), c))
      continue;
    ws.visible.push_back((static_cast<std::uint64_t>(action) << 32) | c);
  }
  std::sort(ws.visible.begin(), ws.visible.end());
  ws.visible.erase(std::unique(ws.visible.begin(), ws.visible.end()),
                   ws.visible.end());

  ws.rateTokens.clear();
  ws.rateVecs.clear();
  for (std::uint32_t m = sat.memberOff[d]; m < sat.memberOff[d + 1]; ++m) {
    const std::uint32_t u = sat.stableMembers[m];
    ws.raw.clear();
    for (std::uint32_t i = sat.markovOff[u]; i < sat.markovOff[u + 1]; ++i)
      ws.raw.emplace_back(classOf[sat.markov[i].first], sat.markov[i].second);
    std::sort(ws.raw.begin(), ws.raw.end());
    const std::uint32_t begin = static_cast<std::uint32_t>(ws.rateTokens.size());
    for (std::size_t i = 0; i < ws.raw.size();) {
      const std::uint32_t cls = ws.raw[i].first;
      double sum = 0.0;
      while (i < ws.raw.size() && ws.raw[i].first == cls) sum += ws.raw[i++].second;
      ws.rateTokens.push_back(cls);
      ws.rateTokens.push_back(std::bit_cast<std::uint64_t>(sum));
    }
    ws.rateVecs.emplace_back(begin,
                             static_cast<std::uint32_t>(ws.rateTokens.size()));
  }
  auto vecLess = [&](const std::pair<std::uint32_t, std::uint32_t>& x,
                     const std::pair<std::uint32_t, std::uint32_t>& y) {
    return std::lexicographical_compare(
        ws.rateTokens.begin() + x.first, ws.rateTokens.begin() + x.second,
        ws.rateTokens.begin() + y.first, ws.rateTokens.begin() + y.second);
  };
  auto vecEqual = [&](const std::pair<std::uint32_t, std::uint32_t>& x,
                      const std::pair<std::uint32_t, std::uint32_t>& y) {
    return x.second - x.first == y.second - y.first &&
           std::equal(ws.rateTokens.begin() + x.first,
                      ws.rateTokens.begin() + x.second,
                      ws.rateTokens.begin() + y.first);
  };
  std::sort(ws.rateVecs.begin(), ws.rateVecs.end(), vecLess);
  ws.rateVecs.erase(
      std::unique(ws.rateVecs.begin(), ws.rateVecs.end(), vecEqual),
      ws.rateVecs.end());

  out.push_back(ws.tauTargets.size());
  out.insert(out.end(), ws.tauTargets.begin(), ws.tauTargets.end());
  out.push_back(ws.visible.size());
  out.insert(out.end(), ws.visible.begin(), ws.visible.end());
  out.push_back(ws.rateVecs.size());
  for (const auto& [begin, end] : ws.rateVecs) {
    out.push_back(end - begin);
    out.insert(out.end(), ws.rateTokens.begin() + begin,
               ws.rateTokens.begin() + end);
  }
}

/// Frontier-singleton marker (no expanded-state stream starts with it:
/// their streams start with a class id, always < 2^32).
constexpr std::uint64_t kFrontierMarker = ~0ull;

/// Recomputed states per "otf-refine" checkpoint, so a budget can trip
/// inside a long refinement round.
constexpr std::size_t kRefineCheckpointStates = 128;

}  // namespace


PartialPartition refinePartial(const PartialGraph& g,
                               const std::vector<StateId>& live,
                               const CancelToken* cancel) {
  const std::size_t n = live.size();
  std::size_t maxId = 0;
  for (StateId s : live) maxId = std::max<std::size_t>(maxId, s);
  std::vector<std::uint32_t> denseOf(maxId + 1, kNoDense);
  for (std::uint32_t d = 0; d < n; ++d) denseOf[live[d]] = d;

  const PartialTauInfo tau = computePartialTauInfo(g, live, denseOf);
  const Saturation sat = buildSaturation(g, live, denseOf, tau);
  const std::vector<Role>& roles = *g.roles;

  // Reverse dependency CSR: edge u -> d when state d's signature stream
  // reads classOf[u] (closure members, weak interactive targets, Markovian
  // targets of stable members).  Frontier states' streams are the constant
  // (marker, d) and read no classes.  Duplicate edges are harmless — dirty
  // marking is idempotent.
  auto forEachDep = [&](std::uint32_t d, auto&& f) {
    if (!(*g.expanded)[live[d]]) return;
    for (std::uint32_t u : tau.closure(d)) f(u);
    for (std::uint32_t i = sat.visOff[d]; i < sat.visOff[d + 1]; ++i)
      f(static_cast<std::uint32_t>(sat.vis[i]));
    for (std::uint32_t m = sat.memberOff[d]; m < sat.memberOff[d + 1]; ++m) {
      const std::uint32_t u = sat.stableMembers[m];
      for (std::uint32_t i = sat.markovOff[u]; i < sat.markovOff[u + 1]; ++i)
        f(sat.markov[i].first);
    }
  };
  std::vector<std::uint32_t> revOff(n + 1, 0);
  for (std::uint32_t d = 0; d < n; ++d)
    forEachDep(d, [&](std::uint32_t u) { ++revOff[u + 1]; });
  for (std::uint32_t u = 0; u < n; ++u) revOff[u + 1] += revOff[u];
  std::vector<std::uint32_t> revDep(revOff[n]);
  {
    std::vector<std::uint32_t> at(revOff.begin(), revOff.end() - 1);
    for (std::uint32_t d = 0; d < n; ++d)
      forEachDep(d, [&](std::uint32_t u) { revDep[at[u]++] = d; });
  }

  detail::SignatureInterner interner;
  PartialPartition p;
  p.classOf.resize(n);

  // Round 0: expanded states by label mask, frontier states singleton.
  interner.beginIteration(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    auto& out = interner.scratch();
    out.clear();
    if ((*g.expanded)[live[d]]) {
      out.push_back((*g.labelMask)[live[d]]);
    } else {
      out.push_back(kFrontierMarker);
      out.push_back(d);
    }
    p.classOf[d] = interner.internScratch();
  }
  std::uint32_t numPersistent = interner.numClasses();

  // Incremental signature refinement with persistent class ids.  Classes
  // only ever split, so a state's token stream — which reads classOf of
  // its dependencies — stays valid verbatim until some dependency changes
  // id.  Each round therefore re-encodes only dirty states (a dependency
  // changed last round) and re-groups only classes holding a dirty member;
  // untouched classes are signature-pure by induction and cannot split.
  // The partition sequence is exactly the one full re-encoding computes,
  // and the final first-appearance renumbering below reproduces the
  // interner's numbering of the last full iteration, so the result is
  // bitwise identical to the non-incremental loop.
  Scratch ws;
  std::vector<std::vector<std::uint64_t>> cache(n);
  std::vector<std::uint8_t> stateDirty(n, 1);
  std::vector<std::uint8_t> classDirty;
  std::vector<std::uint8_t> keptGroup;
  std::vector<std::uint32_t> changed;    // ids changed in the last round
  std::vector<std::uint32_t> recompute;  // ascending; members of dirty classes
  std::vector<std::uint32_t> tmpId;
  std::vector<std::uint32_t> assign;
  std::vector<std::uint32_t> repOf;   // per class: chosen clean member
  std::vector<std::uint32_t> repTmp;  // per class: its stream's tmp id
  bool firstRound = true;
  while (true) {
    // All members of a class hold pairwise-equal streams (purity is
    // restored every time a class is touched), so a dirty class needs
    // only its dirty members plus one clean representative re-interned:
    // untouched clean members share the representative's stream and
    // silently keep the class id.
    recompute.clear();
    if (firstRound) {
      for (std::uint32_t d = 0; d < n; ++d) recompute.push_back(d);
      repOf.assign(numPersistent, kNoDense);
    } else {
      std::fill(stateDirty.begin(), stateDirty.end(), 0);
      for (std::uint32_t u : changed)
        for (std::uint32_t i = revOff[u]; i < revOff[u + 1]; ++i)
          stateDirty[revDep[i]] = 1;
      classDirty.assign(numPersistent, 0);
      for (std::uint32_t d = 0; d < n; ++d)
        if (stateDirty[d]) classDirty[p.classOf[d]] = 1;
      repOf.assign(numPersistent, kNoDense);
      for (std::uint32_t d = 0; d < n; ++d) {
        const std::uint32_t c = p.classOf[d];
        if (!classDirty[c]) continue;
        if (stateDirty[d]) {
          recompute.push_back(d);
        } else if (repOf[c] == kNoDense) {
          repOf[c] = d;
          recompute.push_back(d);
        }
      }
    }
    if (recompute.empty()) break;

    const std::size_t m = recompute.size();
    interner.beginIteration(m);
    tmpId.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (cancel && i % kRefineCheckpointStates == 0)
        cancel->checkpoint("otf-refine", n);
      const std::uint32_t d = recompute[i];
      std::vector<std::uint64_t>& cs = cache[d];
      if (stateDirty[d]) {
        cs.clear();
        if ((*g.expanded)[live[d]]) {
          encodePartialWeakSignature(roles, tau, sat, p.classOf, d, ws, cs);
        } else {
          cs.push_back(kFrontierMarker);
          cs.push_back(d);
        }
      }
      auto& out = interner.scratch();
      out.clear();
      out.push_back(p.classOf[d]);
      out.insert(out.end(), cs.begin(), cs.end());
      tmpId[i] = interner.internScratch();
    }

    // Split each recomputed class by stream equality.  When a clean
    // representative exists its group keeps the class id (so the clean
    // members never change id); otherwise the group of the lowest member
    // keeps it.  Every other group gets a fresh id and its members are
    // reported as changed (they are their own dependents through the
    // reflexive tau closure, so their new classes re-group next round).
    // Temporary intern ids never span classes — every stream is prefixed
    // with the persistent class id.  Which group keeps the id is an
    // internal labeling choice: grouping is by stream equality and the
    // final renumbering below canonicalizes ids, so the partition is
    // unaffected.
    repTmp.assign(numPersistent, kNoDense);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t d = recompute[i];
      const std::uint32_t c = p.classOf[d];
      if (repOf[c] == d) repTmp[c] = tmpId[i];
    }
    assign.assign(interner.numClasses(), kNoDense);
    keptGroup.assign(numPersistent, 0);
    changed.clear();
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t d = recompute[i];
      const std::uint32_t c = p.classOf[d];
      const std::uint32_t t = tmpId[i];
      if (assign[t] == kNoDense) {
        if (repTmp[c] != kNoDense) {
          assign[t] = t == repTmp[c] ? c : numPersistent++;
        } else if (keptGroup[c]) {
          assign[t] = numPersistent++;
        } else {
          keptGroup[c] = 1;
          assign[t] = c;
        }
      }
      if (assign[t] != c) {
        p.classOf[d] = assign[t];
        changed.push_back(d);
      }
    }
    firstRound = false;
    if (changed.empty()) break;
  }

  // Canonical numbering by first appearance in state order — identical to
  // the numbering a full re-interning of the converged partition yields.
  {
    std::vector<std::uint32_t> remap(numPersistent, kNoDense);
    std::uint32_t next = 0;
    for (std::uint32_t d = 0; d < n; ++d) {
      std::uint32_t& r = remap[p.classOf[d]];
      if (r == kNoDense) r = next++;
      p.classOf[d] = r;
    }
    p.numClasses = next;
  }

  // Per-class converged tau-target sets (first member encountered speaks
  // for the class; tauTargets is a class invariant at convergence).
  std::vector<std::vector<std::uint32_t>> classTau(p.numClasses);
  std::vector<std::uint8_t> done(p.numClasses, 0);
  for (std::uint32_t d = 0; d < n; ++d) {
    const std::uint32_t c = p.classOf[d];
    if (done[c]) continue;
    done[c] = 1;
    std::vector<std::uint32_t>& targets = classTau[c];
    for (std::uint32_t u : tau.closure(d)) targets.push_back(p.classOf[u]);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  }
  p.classTauOffsets.reserve(p.numClasses + 1);
  for (const std::vector<std::uint32_t>& targets : classTau) {
    p.classTauOffsets.push_back(
        static_cast<std::uint32_t>(p.classTauTargets.size()));
    p.classTauTargets.insert(p.classTauTargets.end(), targets.begin(),
                             targets.end());
  }
  p.classTauOffsets.push_back(
      static_cast<std::uint32_t>(p.classTauTargets.size()));
  return p;
}

}  // namespace imcdft::ioimc::otf
