#include "ioimc/bisimulation.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_map>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "ioimc/builder.hpp"
#include "ioimc/ops.hpp"
#include "ioimc/signature_interner.hpp"
#include "ioimc/tau_closure.hpp"

namespace imcdft::ioimc {

namespace {

/// Rate vector: cumulative rate into each partition class, sorted by class.
using RateVector = std::vector<std::pair<std::uint32_t, double>>;

/// Structured signature of one state under the current partition; used only
/// for quotient construction (once per class).  The refinement loop itself
/// works on the flat token encoding below.
struct WeakSig {
  std::vector<std::uint32_t> tauTargets;  ///< classes weakly reachable by tau
  std::vector<std::pair<ActionId, std::uint32_t>> visible;  ///< weak moves
  std::vector<RateVector> stableRates;  ///< rate vectors of stable derivatives
};

using Role = ActionRole;

/// Tau-reachability and stability, shared with the semantic sink collapse
/// (see tau_closure.hpp).
using TauInfo = detail::TauClosure;

/// Deterministically accumulates (class, rate) pairs into a rate vector.
RateVector accumulateRates(std::vector<std::pair<std::uint32_t, double>> raw) {
  std::sort(raw.begin(), raw.end());
  RateVector out;
  for (const auto& [cls, rate] : raw) {
    if (!out.empty() && out.back().first == cls)
      out.back().second += rate;
    else
      out.emplace_back(cls, rate);
  }
  return out;
}

Partition initialByLabel(const IOIMC& m) {
  Partition p;
  p.classOf.resize(m.numStates());
  // Class numbering is by first encounter, so the map's iteration order
  // never matters; reserve for the worst case (every state its own mask).
  std::unordered_map<std::uint32_t, std::uint32_t> byMask;
  byMask.reserve(m.numStates());
  for (StateId s = 0; s < m.numStates(); ++s) {
    auto [it, inserted] =
        byMask.try_emplace(m.labelMask(s), p.numClasses);
    if (inserted) ++p.numClasses;
    p.classOf[s] = it->second;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Hashed signature refinement (Blom/Orzan style, flat-buffer edition).
//
// Each iteration canonicalizes every state's signature under the current
// partition into a reusable scratch buffer of 64-bit tokens, hashes it, and
// interns it via the shared detail::SignatureInterner; the interned index
// is the state's class in the refined partition.  Classes are numbered in
// order of first appearance (scanning states 0..n-1).
// ---------------------------------------------------------------------------

using detail::SignatureInterner;

/// Reusable scratch buffers for one state's weak-signature encoding.
struct WeakScratch {
  std::vector<std::uint32_t> tauTargets;
  std::vector<std::uint64_t> visible;
  std::vector<std::pair<std::uint32_t, double>> raw;
  std::vector<std::uint64_t> rateTokens;  ///< class/rate-bits pairs, flat
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rateVecs;  ///< ranges
};

/// Appends the canonical token encoding of state \p s's weak signature
/// under partition \p p to \p out.  Token stream: |tauTargets|, targets...,
/// |visible|, (action<<32|class)..., |rateVecs|, then per vector its length
/// and (class, rate-bits) token pairs.  Every section is sorted, so equal
/// signatures produce equal streams.
void encodeWeakSignature(const IOIMC& m, const TauInfo& tau,
                         const std::vector<Role>& roles, const Partition& p,
                         StateId s, WeakScratch& ws,
                         std::vector<std::uint64_t>& out) {
  auto closure = tau.closure(s);

  ws.tauTargets.clear();
  for (StateId u : closure) ws.tauTargets.push_back(p.classOf[u]);
  std::sort(ws.tauTargets.begin(), ws.tauTargets.end());
  ws.tauTargets.erase(
      std::unique(ws.tauTargets.begin(), ws.tauTargets.end()),
      ws.tauTargets.end());

  ws.visible.clear();
  for (StateId u : closure) {
    for (const auto& t : m.interactive(u)) {
      const Role r = roles[t.action];
      if (r == Role::Internal) continue;
      const bool isInput = r == Role::Input;
      for (StateId v : tau.closure(t.to)) {
        std::uint32_t c = p.classOf[v];
        // Implicit input self-loops make every tau-target an input target
        // for free; recording those adds no discriminating power, so filter
        // them to obtain the coarsest (minimal) quotient.
        if (isInput && std::binary_search(ws.tauTargets.begin(),
                                          ws.tauTargets.end(), c))
          continue;
        ws.visible.push_back((static_cast<std::uint64_t>(t.action) << 32) | c);
      }
    }
  }
  std::sort(ws.visible.begin(), ws.visible.end());
  ws.visible.erase(std::unique(ws.visible.begin(), ws.visible.end()),
                   ws.visible.end());

  ws.rateTokens.clear();
  ws.rateVecs.clear();
  for (StateId u : closure) {
    if (!tau.stable[u]) continue;
    ws.raw.clear();
    for (const auto& t : m.markovian(u))
      ws.raw.emplace_back(p.classOf[t.to], t.rate);
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
  // Canonicalize the *set* of rate vectors: order them lexicographically by
  // token stream and drop duplicates.  (Positive doubles order the same way
  // as their bit patterns, so this matches ordering by value.)
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

/// Structured weak signature of one state (for quotient construction).
WeakSig weakSignature(const IOIMC& m, const TauInfo& tau, const Partition& p,
                      StateId s) {
  WeakSig sig;
  for (StateId u : tau.closure(s)) sig.tauTargets.push_back(p.classOf[u]);
  std::sort(sig.tauTargets.begin(), sig.tauTargets.end());
  sig.tauTargets.erase(
      std::unique(sig.tauTargets.begin(), sig.tauTargets.end()),
      sig.tauTargets.end());

  auto inTauTargets = [&](std::uint32_t c) {
    return std::binary_search(sig.tauTargets.begin(), sig.tauTargets.end(), c);
  };

  for (StateId u : tau.closure(s)) {
    for (const auto& t : m.interactive(u)) {
      if (m.signature().isInternal(t.action)) continue;
      const bool isInput = m.signature().isInput(t.action);
      for (StateId v : tau.closure(t.to)) {
        std::uint32_t c = p.classOf[v];
        if (isInput && inTauTargets(c)) continue;
        sig.visible.emplace_back(t.action, c);
      }
    }
    if (tau.stable[u]) {
      std::vector<std::pair<std::uint32_t, double>> raw;
      for (const auto& t : m.markovian(u))
        raw.emplace_back(p.classOf[t.to], t.rate);
      sig.stableRates.push_back(accumulateRates(std::move(raw)));
    }
  }
  std::sort(sig.visible.begin(), sig.visible.end());
  sig.visible.erase(std::unique(sig.visible.begin(), sig.visible.end()),
                    sig.visible.end());
  std::sort(sig.stableRates.begin(), sig.stableRates.end());
  sig.stableRates.erase(
      std::unique(sig.stableRates.begin(), sig.stableRates.end()),
      sig.stableRates.end());
  return sig;
}

Partition weakBisimulationWithTau(const IOIMC& m, const TauInfo& tau,
                                  const WeakOptions& opts) {
  const std::size_t n = m.numStates();
  const CancelToken* cancel = opts.cancel;
  const std::vector<Role> roles = actionRoles(m);
  Partition p = initialByLabel(m);
  SignatureInterner interner;
  std::vector<std::uint32_t> newClassOf(n);

  // Parallel per-iteration encode: workers fill disjoint state blocks with
  // token streams + hashes, then one thread interns every stream in
  // ascending state order — class numbering (first appearance in state
  // order) is therefore identical to the sequential loop's for any worker
  // count, which is the bitwise 1-vs-N-thread contract.  The sequential
  // path below stays byte-for-byte the old loop (same checkpoint cadence).
  WorkerPool* pool = opts.encodePool;
  const std::size_t numBlocks =
      (n + detail::kIntraBlockStates - 1) / detail::kIntraBlockStates;
  const bool parallel =
      pool && pool->threads() > 1 && n >= detail::kIntraParallelMinStates;
  std::vector<detail::EncodedBlock> blocks;
  std::vector<WeakScratch> scratches;
  if (parallel) {
    blocks.resize(numBlocks);
    scratches.resize(pool->threads());
  } else {
    scratches.resize(1);
  }

  while (true) {
    // One checkpoint per refinement pass, plus a strided one inside the
    // (possibly huge) per-state interning loop.
    if (cancel) cancel->checkpoint("weak-refinement", n);
    interner.beginIteration(n);
    if (parallel) {
      pool->run(numBlocks, [&](std::size_t blk, unsigned worker) {
        detail::EncodedBlock& eb = blocks[blk];
        eb.clear();
        WeakScratch& ws = scratches[worker];
        if (cancel) cancel->checkpoint("weak-refinement", n);
        const StateId begin =
            static_cast<StateId>(blk * detail::kIntraBlockStates);
        const StateId end = static_cast<StateId>(
            std::min<std::size_t>(n, begin + detail::kIntraBlockStates));
        for (StateId s = begin; s < end; ++s) {
          const std::size_t at = eb.tokens.size();
          eb.tokens.push_back(p.classOf[s]);
          encodeWeakSignature(m, tau, roles, p, s, ws, eb.tokens);
          eb.ends.push_back(eb.tokens.size());
          eb.hashes.push_back(SignatureInterner::hashTokens(
              eb.tokens.data() + at, eb.tokens.size() - at));
        }
      });
      StateId s = 0;
      for (const detail::EncodedBlock& eb : blocks) {
        std::size_t at = 0;
        for (std::size_t i = 0; i < eb.ends.size(); ++i, ++s) {
          newClassOf[s] = interner.internTokens(eb.tokens.data() + at,
                                                eb.ends[i] - at, eb.hashes[i]);
          at = eb.ends[i];
        }
      }
    } else {
      WeakScratch& ws = scratches.front();
      for (StateId s = 0; s < n; ++s) {
        if (cancel && (s & 1023u) == 1023u)
          cancel->checkpoint("weak-refinement", n);
        auto& out = interner.scratch();
        out.clear();
        out.push_back(p.classOf[s]);
        encodeWeakSignature(m, tau, roles, p, s, ws, out);
        newClassOf[s] = interner.internScratch();
      }
    }
    const std::uint32_t newCount = interner.numClasses();
    const bool stable = newCount == p.numClasses;
    std::swap(p.classOf, newClassOf);
    p.numClasses = newCount;
    if (stable) break;
  }
  return p;
}

}  // namespace

Partition weakBisimulation(const IOIMC& m, const WeakOptions& opts) {
  return weakBisimulationWithTau(
      m, detail::computeTauClosure(m, opts.outputsUrgent), opts);
}

IOIMC weakQuotient(const IOIMC& m, const WeakOptions& opts) {
  TauInfo tau = detail::computeTauClosure(m, opts.outputsUrgent);
  Partition p = weakBisimulationWithTau(m, tau, opts);

  // Representative (lowest state id) per class, and its converged signature.
  std::vector<StateId> rep(p.numClasses, static_cast<StateId>(-1));
  for (StateId s = m.numStates(); s-- > 0;) rep[p.classOf[s]] = s;

  IOIMCBuilder b(m.name() + "/weak", m.symbols());
  b.reserveStates(p.numClasses);
  b.setInitial(p.classOf[m.initial()]);
  // Preserve the full visible signature for later composition.
  for (ActionId a : m.signature().inputs()) b.input(m.actionName(a));
  for (ActionId a : m.signature().outputs()) b.output(m.actionName(a));
  for (const std::string& labelName : m.labelNames()) b.declareLabel(labelName);
  ActionId tauAction = b.internal(kTauName);

  for (std::uint32_t c = 0; c < p.numClasses; ++c) {
    StateId r = rep[c];
    WeakSig sig = weakSignature(m, tau, p, r);
    // Labels.
    std::uint32_t mask = m.labelMask(r);
    for (std::size_t i = 0; i < m.labelNames().size(); ++i)
      if ((mask >> i) & 1u) b.label(c, m.labelNames()[i]);
    // Cross-class tau moves.
    bool hasCrossTau = false;
    for (std::uint32_t c2 : sig.tauTargets) {
      if (c2 == c) continue;
      b.interactive(c, tauAction, c2);
      hasCrossTau = true;
    }
    // Visible moves (input self-targets were already filtered away; an
    // output to the own class is observable and kept).
    for (const auto& [act, c2] : sig.visible) b.interactive(c, act, c2);
    // Markovian behavior only for classes without cross-class tau moves.
    if (!hasCrossTau && !sig.stableRates.empty()) {
      require(sig.stableRates.size() == 1,
              "weakQuotient: ambiguous rate vector in a stable class");
      for (const auto& [c2, rate] : sig.stableRates.front())
        b.markovian(c, rate, c2);
    }
  }
  return std::move(b).build();
}

IOIMC aggregate(const IOIMC& m, const WeakOptions& opts) {
  // The canonical renumbering at the end makes the aggregated model's bytes
  // a function of its isomorphism class alone: the classic
  // compose/hide/aggregate chain and the fused on-the-fly engine reach the
  // same minimal quotient through different intermediate graphs (hence
  // different state discovery orders), and renumbering both canonically is
  // what makes every downstream measure bit-identical between the paths.
  return canonicalRenumber(restrictToReachable(weakQuotient(m, opts)));
}

IOIMC aggregateFixpoint(const IOIMC& m, const WeakOptions& opts) {
  IOIMC current = aggregate(m, opts);
  while (true) {
    const Partition p = weakBisimulation(current, opts);
    if (p.numClasses == current.numStates()) return current;
    current = aggregate(current, opts);
  }
}

namespace {

/// Strong signature: exact moves per action plus the full rate vector.
struct StrongSig {
  std::vector<std::pair<ActionId, std::uint32_t>> moves;
  RateVector rates;
};

StrongSig strongSignature(const IOIMC& m, const Partition& p, StateId s) {
  StrongSig sig;
  for (const auto& t : m.interactive(s)) {
    std::uint32_t c = p.classOf[t.to];
    // Implicit input self-loop equivalence: an explicit input move into the
    // own class is indistinguishable from having no explicit move.
    if (m.signature().isInput(t.action) && c == p.classOf[s]) continue;
    sig.moves.emplace_back(t.action, c);
  }
  std::sort(sig.moves.begin(), sig.moves.end());
  sig.moves.erase(std::unique(sig.moves.begin(), sig.moves.end()),
                  sig.moves.end());
  std::vector<std::pair<std::uint32_t, double>> raw;
  for (const auto& t : m.markovian(s)) raw.emplace_back(p.classOf[t.to], t.rate);
  sig.rates = accumulateRates(std::move(raw));
  return sig;
}

/// Reusable scratch for one state's strong-signature encoding.
struct StrongScratch {
  std::vector<std::uint64_t> moves;
  std::vector<std::pair<std::uint32_t, double>> raw;
};

void encodeStrongSignature(const IOIMC& m, const std::vector<Role>& roles,
                           const Partition& p, StateId s, StrongScratch& ss,
                           std::vector<std::uint64_t>& out) {
  ss.moves.clear();
  for (const auto& t : m.interactive(s)) {
    std::uint32_t c = p.classOf[t.to];
    if (roles[t.action] == Role::Input && c == p.classOf[s]) continue;
    ss.moves.push_back((static_cast<std::uint64_t>(t.action) << 32) | c);
  }
  std::sort(ss.moves.begin(), ss.moves.end());
  ss.moves.erase(std::unique(ss.moves.begin(), ss.moves.end()),
                 ss.moves.end());

  ss.raw.clear();
  for (const auto& t : m.markovian(s)) ss.raw.emplace_back(p.classOf[t.to], t.rate);
  std::sort(ss.raw.begin(), ss.raw.end());

  out.push_back(ss.moves.size());
  out.insert(out.end(), ss.moves.begin(), ss.moves.end());
  for (std::size_t i = 0; i < ss.raw.size();) {
    const std::uint32_t cls = ss.raw[i].first;
    double sum = 0.0;
    while (i < ss.raw.size() && ss.raw[i].first == cls) sum += ss.raw[i++].second;
    out.push_back(cls);
    out.push_back(std::bit_cast<std::uint64_t>(sum));
  }
}

}  // namespace

Partition strongBisimulation(const IOIMC& m, const CancelToken* cancel) {
  const std::size_t n = m.numStates();
  const std::vector<Role> roles = actionRoles(m);
  Partition p = initialByLabel(m);
  SignatureInterner interner;
  StrongScratch ss;
  std::vector<std::uint32_t> newClassOf(n);
  while (true) {
    if (cancel) cancel->checkpoint("strong-refinement", n);
    interner.beginIteration(n);
    for (StateId s = 0; s < n; ++s) {
      if (cancel && (s & 1023u) == 1023u)
        cancel->checkpoint("strong-refinement", n);
      auto& out = interner.scratch();
      out.clear();
      out.push_back(p.classOf[s]);
      encodeStrongSignature(m, roles, p, s, ss, out);
      newClassOf[s] = interner.internScratch();
    }
    const std::uint32_t newCount = interner.numClasses();
    const bool stable = newCount == p.numClasses;
    std::swap(p.classOf, newClassOf);
    p.numClasses = newCount;
    if (stable) break;
  }
  return p;
}

IOIMC strongQuotient(const IOIMC& m) {
  Partition p = strongBisimulation(m);
  std::vector<StateId> rep(p.numClasses, static_cast<StateId>(-1));
  for (StateId s = m.numStates(); s-- > 0;) rep[p.classOf[s]] = s;

  IOIMCBuilder b(m.name() + "/strong", m.symbols());
  b.reserveStates(p.numClasses);
  b.setInitial(p.classOf[m.initial()]);
  for (ActionId a : m.signature().inputs()) b.input(m.actionName(a));
  for (ActionId a : m.signature().outputs()) b.output(m.actionName(a));
  for (ActionId a : m.signature().internals()) b.internal(m.actionName(a));
  for (const std::string& labelName : m.labelNames()) b.declareLabel(labelName);

  for (std::uint32_t c = 0; c < p.numClasses; ++c) {
    StateId r = rep[c];
    StrongSig sig = strongSignature(m, p, r);
    std::uint32_t mask = m.labelMask(r);
    for (std::size_t i = 0; i < m.labelNames().size(); ++i)
      if ((mask >> i) & 1u) b.label(c, m.labelNames()[i]);
    for (const auto& [act, c2] : sig.moves) b.interactive(c, act, c2);
    for (const auto& [c2, rate] : sig.rates) b.markovian(c, rate, c2);
  }
  return restrictToReachable(std::move(b).build());
}

}  // namespace imcdft::ioimc
