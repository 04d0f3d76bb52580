#include "ioimc/bisimulation.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ioimc/ops.hpp"
#include "ioimc/signature_interner.hpp"
#include "ioimc/tau_closure.hpp"

namespace imcdft::ioimc {

namespace {

using Role = ActionRole;

/// Tau-reachability and stability (see tau_closure.hpp).
using TauInfo = detail::TauClosure;

/// The partition by label mask, with each state flagged in \p pinned (when
/// non-null) in a class of its own.
Partition initialByLabel(const IOIMC& m,
                         const std::vector<std::uint8_t>* pinned = nullptr) {
  Partition p;
  p.classOf.resize(m.numStates());
  // Class numbering is by first encounter, so the map's iteration order
  // never matters; reserve for the worst case (every state its own mask).
  std::unordered_map<std::uint32_t, std::uint32_t> byMask;
  byMask.reserve(m.numStates());
  for (StateId s = 0; s < m.numStates(); ++s) {
    if (pinned && (*pinned)[s]) {
      p.classOf[s] = p.numClasses++;
      continue;
    }
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
// Each round maps every state to its signature under the current partition,
// a canonical stream of 64-bit tokens that starts with the state's current
// class, hashes it and interns it via the shared detail::SignatureInterner;
// the interned index is the state's class in the refined partition.
// Classes are numbered in order of first appearance (scanning states
// 0..n-1).
//
// Only dirty states are encoded: Hopcroft's "all but the largest piece"
// rule, on which Paige-Tarjan partition refinement rests (Valmari 2009
// makes it O(m log n) for bisimulation; this is the signature-refiner
// form):
//  * a state alone in its class cannot share its new class with any other
//    state: it takes the next fresh id in scan order, which is the id
//    interning would have given it;
//  * after a round that splits a class, the largest piece keeps standing
//    for the class and the states of every other piece have *moved*.  A
//    state is dirty when it moved or when a state its signature reads (see
//    the callers' forEachRead) moved; round 1 marks every state dirty.
//    The clean members of a class share one fresh id, handed out at the
//    first of them in scan order.
// This is exactly full re-encoding.  Clean members of one class had equal
// signatures last round (that is why they share the class), and each one's
// signature is its old one under the injective renaming "class -> its kept
// piece", with the same rates per class summed in the same order, so they
// still agree bit for bit.  A dirty member's signature names a non-kept
// piece (its own class, or the class of a moved state it reads), which no
// clean signature names, so it never joins the clean group.  The partition,
// its numbering and the round count are the full re-encoding's.  The dirty
// test walks each state's reads forward, stopping at the first moved one;
// there is no reverse (reader) index.
// ---------------------------------------------------------------------------

using detail::SignatureInterner;

/// Refines \p p to the coarsest stable partition under \p encode, which
/// appends a state's signature tokens (after its current class) to a
/// buffer.  \p forEachRead(s, f) calls f(t) on every state t whose class
/// \p encode reads for s, stopping and returning true as soon as f does.
/// Checkpoints \p cancel at \p site once per pass and every 1024 states,
/// skipped ones included.  Adds passes and encoded signatures to \p stats
/// when set.
template <class Encode, class ForEachRead>
Partition refineBySignature(Partition p, const char* site,
                            const CancelToken* cancel, RefineStats* stats,
                            Encode&& encode, ForEachRead&& forEachRead) {
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  const std::size_t n = p.classOf.size();
  SignatureInterner interner;
  std::vector<std::uint32_t> newClassOf(n), classSize(p.numClasses),
      pieceSize, parentOf, largest, cleanClass;
  // Per current class: 1 when it is the piece its parent class kept.  The
  // states of the other pieces moved.  Empty in round 1: every state dirty.
  std::vector<std::uint8_t> kept;
  for (std::uint32_t c : p.classOf) ++classSize[c];
  const auto hasMoved = [&](StateId t) { return !kept[p.classOf[t]]; };
  while (true) {
    if (cancel) cancel->checkpoint(site, n);
    std::size_t shared = 0;  // states in classes that can still split
    for (std::uint32_t size : classSize)
      if (size > 1) shared += size;
    // At most these states are interned, so the table stays at most half
    // full.
    interner.beginIteration(shared);
    cleanClass.assign(p.numClasses, kNone);
    std::uint64_t encoded = 0;
    for (StateId s = 0; s < n; ++s) {
      if (cancel && (s & 1023u) == 1023u) cancel->checkpoint(site, n);
      const std::uint32_t c = p.classOf[s];
      if (classSize[c] == 1) {
        newClassOf[s] = interner.freshClass();
        continue;
      }
      if (!kept.empty() && kept[c] && !forEachRead(s, hasMoved)) {
        if (cleanClass[c] == kNone) cleanClass[c] = interner.freshClass();
        newClassOf[s] = cleanClass[c];
        continue;
      }
      auto& out = interner.scratch();
      out.clear();
      out.push_back(c);
      encode(p, s, out);
      newClassOf[s] = interner.internScratch();
      ++encoded;
    }
    if (stats) {
      ++stats->rounds;
      stats->encoded += encoded;
    }
    const std::uint32_t newCount = interner.numClasses();
    if (newCount != p.numClasses) {
      // Each class keeps its largest piece (the first on a tie).
      pieceSize.assign(newCount, 0);
      parentOf.resize(newCount);
      for (StateId s = 0; s < n; ++s) {
        ++pieceSize[newClassOf[s]];
        parentOf[newClassOf[s]] = p.classOf[s];
      }
      largest.assign(p.numClasses, kNone);
      for (std::uint32_t piece = 0; piece < newCount; ++piece) {
        std::uint32_t& k = largest[parentOf[piece]];
        if (k == kNone || pieceSize[piece] > pieceSize[k]) k = piece;
      }
      kept.assign(newCount, 0);
      for (std::uint32_t piece : largest) kept[piece] = 1;
      std::swap(classSize, pieceSize);
    }
    const bool stable = newCount == p.numClasses;
    std::swap(p.classOf, newClassOf);
    p.numClasses = newCount;
    if (stable) break;
  }
  return p;
}

/// Reusable scratch buffers for one state's weak-signature encoding.
struct WeakScratch {
  std::vector<std::uint32_t> tauTargets;
  std::vector<std::uint64_t> visible;
  std::vector<std::pair<std::uint32_t, double>> raw;
  std::vector<std::uint64_t> rateTokens;  ///< class/rate-bits pairs, flat
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rateVecs;  ///< ranges
};

/// The partition-independent half of every state's weak visible moves:
/// row s holds the deduplicated (action << 32 | target state) pairs with
/// s =tau*=> -a-> =tau*=> target for a visible a, sorted.  Built once per
/// refinement, so a pass only maps the targets through the partition
/// instead of re-walking two tau closures per visible edge.
struct WeakMoves {
  std::vector<std::size_t> offsets;
  std::vector<std::uint64_t> moves;
  std::span<const std::uint64_t> row(StateId s) const {
    return {moves.data() + offsets[s], offsets[s + 1] - offsets[s]};
  }
};

WeakMoves collectWeakMoves(const IOIMC& m, const TauInfo& tau,
                           const std::vector<Role>& roles, const char* site,
                           const CancelToken* cancel) {
  const std::size_t n = m.numStates();
  WeakMoves w;
  w.offsets.reserve(n + 1);
  w.offsets.push_back(0);
  std::vector<std::uint64_t> direct;  // (action, successor) before tau*
  for (StateId s = 0; s < n; ++s) {
    if (cancel && (s & 1023u) == 1023u) cancel->checkpoint(site, n);
    direct.clear();
    for (StateId u : tau.closure(s))
      for (const auto& t : m.interactive(u))
        if (roles[t.action] != Role::Internal)
          direct.push_back((static_cast<std::uint64_t>(t.action) << 32) |
                           t.to);
    std::sort(direct.begin(), direct.end());
    direct.erase(std::unique(direct.begin(), direct.end()), direct.end());
    const std::size_t begin = w.moves.size();
    for (std::uint64_t move : direct)
      for (StateId v : tau.closure(static_cast<StateId>(move)))
        w.moves.push_back((move & ~std::uint64_t{0xffffffff}) | v);
    std::sort(w.moves.begin() + static_cast<std::ptrdiff_t>(begin),
              w.moves.end());
    w.moves.erase(std::unique(w.moves.begin() +
                                  static_cast<std::ptrdiff_t>(begin),
                              w.moves.end()),
                  w.moves.end());
    w.offsets.push_back(w.moves.size());
  }
  return w;
}

/// State \p s's weak signature under partition \p p, left in \p ws:
/// the sorted classes it reaches by tau*, its sorted weak visible moves
/// (action << 32 | class) and the sorted, deduplicated rate vectors of its
/// stable tau-derivatives, each a run of (class, rate-bits) token pairs in
/// ws.rateTokens.
void signWeak(const IOIMC& m, const TauInfo& tau, const WeakMoves& weak,
              const std::vector<Role>& roles, const Partition& p, StateId s,
              WeakScratch& ws) {
  auto closure = tau.closure(s);

  ws.tauTargets.clear();
  for (StateId u : closure) ws.tauTargets.push_back(p.classOf[u]);
  if (closure.size() > 1) {
    std::sort(ws.tauTargets.begin(), ws.tauTargets.end());
    ws.tauTargets.erase(
        std::unique(ws.tauTargets.begin(), ws.tauTargets.end()),
        ws.tauTargets.end());
  }

  ws.visible.clear();
  for (std::uint64_t move : weak.row(s)) {
    const ActionId action = static_cast<ActionId>(move >> 32);
    const std::uint32_t c = p.classOf[static_cast<StateId>(move)];
    // Implicit input self-loops make every tau-target an input target for
    // free; recording those adds no discriminating power, so filter them
    // to obtain the coarsest (minimal) quotient.
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
}

/// Appends the canonical token encoding of the signature in \p ws to
/// \p out: |tauTargets|, targets..., |visible|, (action<<32|class)...,
/// |rateVecs|, then per vector its length and (class, rate-bits) token
/// pairs.  Every section is sorted, so equal signatures produce equal
/// streams.
void appendWeakTokens(const WeakScratch& ws, std::vector<std::uint64_t>& out) {
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

/// The tau closure of \p m with every state flagged in \p pinned (when
/// non-null) unstable.
TauInfo tauClosure(const IOIMC& m, bool outputsUrgent,
                   const std::vector<std::uint8_t>* pinned) {
  TauInfo tau = detail::computeTauClosure(m, outputsUrgent);
  if (pinned)
    for (StateId s = 0; s < m.numStates(); ++s)
      if ((*pinned)[s]) tau.stable[s] = false;
  return tau;
}

/// Everything a weak refinement of one model reads besides the partition.
/// Pinned states (when \p pinned is set) start alone in their class and
/// never count as stable; every checkpoint reports \p site.
struct WeakContext {
  const IOIMC& m;
  const char* site;
  const std::vector<std::uint8_t>* pinned;
  TauInfo tau;
  std::vector<Role> roles;
  WeakMoves weak;

  WeakContext(const IOIMC& model, const WeakOptions& opts,
              const char* checkpointSite = "weak-refinement",
              const std::vector<std::uint8_t>* pinnedStates = nullptr)
      : m(model),
        site(checkpointSite),
        pinned(pinnedStates),
        tau(tauClosure(model, opts.outputsUrgent, pinned)),
        roles(actionRoles(model)),
        weak(collectWeakMoves(model, tau, roles, site, opts.cancel)) {}

  Partition refine(const WeakOptions& opts, RefineStats* stats) const {
    WeakScratch ws;
    return refineBySignature(
        initialByLabel(m, pinned), site, opts.cancel, stats,
        [&](const Partition& p, StateId s, std::vector<std::uint64_t>& out) {
          signWeak(m, tau, weak, roles, p, s, ws);
          appendWeakTokens(ws, out);
        },
        [&](StateId s, auto&& f) {
          // signWeak reads the tau closure, the Markovian targets of its
          // stable members and the weak visible move targets.
          const auto closure = tau.closure(s);
          for (StateId u : closure)
            if (f(u)) return true;
          for (StateId u : closure) {
            if (!tau.stable[u]) continue;
            for (const auto& t : m.markovian(u))
              if (f(t.to)) return true;
          }
          for (std::uint64_t move : weak.row(s))
            if (f(static_cast<StateId>(move))) return true;
          return false;
        });
  }

  /// The reachable part of m's quotient under its weak-bisimulation
  /// partition \p p, classes numbered breadth-first from the initial class
  /// in row order (restrictToReachable's numbering).  Each class's CSR row
  /// is written straight from the signature of its lowest state, as the
  /// search reaches it.  All internal actions become "__tau"; inert
  /// (intra-class) internal moves disappear, and a class with a
  /// cross-class tau move keeps no Markovian behaviour (maximal progress).
  IOIMC quotient(const Partition& p) const {
    std::vector<StateId> rep(p.numClasses);
    for (StateId s = m.numStates(); s-- > 0;) rep[p.classOf[s]] = s;

    // Preserve the full visible signature for later composition.
    Signature sig;
    for (ActionId a : m.signature().inputs()) sig.add(a, ActionKind::Input);
    for (ActionId a : m.signature().outputs()) sig.add(a, ActionKind::Output);
    const ActionId tauAction = m.symbols()->intern(kTauName);
    sig.add(tauAction, ActionKind::Internal);

    constexpr StateId kUnvisited = static_cast<StateId>(-1);
    std::vector<StateId> id(p.numClasses, kUnvisited);
    std::vector<std::uint32_t> order;  // doubles as the BFS queue
    order.reserve(p.numClasses);
    auto visit = [&](std::uint32_t c) {
      if (id[c] == kUnvisited) {
        id[c] = static_cast<StateId>(order.size());
        order.push_back(c);
      }
      return id[c];
    };
    visit(p.classOf[m.initial()]);
    CsrInteractive inter;
    CsrMarkovian markov;
    std::vector<std::uint32_t> labels;
    labels.reserve(p.numClasses);
    inter.offsets.reserve(p.numClasses + 1);
    markov.offsets.reserve(p.numClasses + 1);
    WeakScratch ws;
    for (std::size_t head = 0; head < order.size(); ++head) {
      const std::uint32_t c = order[head];
      signWeak(m, tau, weak, roles, p, rep[c], ws);
      labels.push_back(m.labelMask(rep[c]));
      inter.beginState();
      markov.beginState();
      bool hasCrossTau = false;
      for (std::uint32_t c2 : ws.tauTargets) {
        if (c2 == c) continue;
        inter.data.push_back({tauAction, visit(c2)});
        hasCrossTau = true;
      }
      // Visible moves (input self-targets were already filtered away; an
      // output to the own class is observable and kept).
      for (std::uint64_t move : ws.visible)
        inter.data.push_back({static_cast<ActionId>(move >> 32),
                              visit(static_cast<std::uint32_t>(move))});
      if (hasCrossTau || ws.rateVecs.empty()) continue;
      require(ws.rateVecs.size() == 1,
              "weakQuotient: ambiguous rate vector in a stable class");
      const auto [begin, end] = ws.rateVecs.front();
      for (std::uint32_t i = begin; i < end; i += 2)
        markov.data.push_back(
            {std::bit_cast<double>(ws.rateTokens[i + 1]),
             visit(static_cast<std::uint32_t>(ws.rateTokens[i]))});
    }
    inter.finish();
    markov.finish();
    return IOIMC(m.name() + "/weak", m.symbols(), std::move(sig), 0,
                 std::move(inter), std::move(markov), std::move(labels),
                 m.labelNames());
  }
};

}  // namespace

namespace detail {

PinnedWeakPartition weakBisimulationPinned(
    const IOIMC& m, const std::vector<std::uint8_t>& pinned,
    const WeakOptions& opts, const char* site) {
  WeakContext ctx(m, opts, site, &pinned);
  Partition p = ctx.refine(opts, nullptr);
  return {std::move(p), std::move(ctx.tau)};
}

}  // namespace detail

Partition weakBisimulation(const IOIMC& m, const WeakOptions& opts) {
  return WeakContext(m, opts).refine(opts, nullptr);
}

IOIMC weakQuotient(const IOIMC& m, const WeakOptions& opts) {
  const WeakContext ctx(m, opts);
  return ctx.quotient(ctx.refine(opts, nullptr));
}

IOIMC aggregate(const IOIMC& m, const WeakOptions& opts) {
  // The canonical renumbering at the end makes the aggregated model's bytes
  // a function of its isomorphism class alone: the classic
  // compose/hide/aggregate chain and the fused on-the-fly engine reach the
  // same minimal quotient through different intermediate graphs (hence
  // different state discovery orders), and renumbering both canonically is
  // what makes every downstream measure bit-identical between the paths.
  return canonicalRenumber(weakQuotient(m, opts));
}

IOIMC aggregateFixpoint(const IOIMC& m, const WeakOptions& opts,
                        bool* canonicalComplete, RefineStats* stats) {
  // Each model is refined once: the refinement that checks a quotient for
  // merges is also the one its next quotient is built from.
  std::optional<IOIMC> current;
  while (true) {
    const WeakContext ctx(current ? *current : m, opts);
    RefineStats work;
    const Partition p = ctx.refine(opts, &work);
    if (stats) stats->encoded += work.encoded;
    if (current && p.numClasses == current->numStates())
      return std::move(*current);
    if (stats) {
      stats->rounds += work.rounds;
      ++stats->fixpointPasses;
    }
    current = canonicalRenumber(ctx.quotient(p), canonicalComplete);
  }
}

namespace {

/// Reusable scratch for one state's strong signature: its sorted moves
/// (action << 32 | class) without input moves into the own class, and its
/// cumulative rate into each class, sorted by class.
struct StrongScratch {
  std::vector<std::uint64_t> moves;
  std::vector<std::pair<std::uint32_t, double>> raw;
  std::vector<std::pair<std::uint32_t, double>> rates;
};

void signStrong(const IOIMC& m, const std::vector<Role>& roles,
                const Partition& p, StateId s, StrongScratch& ss) {
  ss.moves.clear();
  for (const auto& t : m.interactive(s)) {
    std::uint32_t c = p.classOf[t.to];
    // Implicit input self-loop equivalence: an explicit input move into the
    // own class is indistinguishable from having no explicit move.
    if (roles[t.action] == Role::Input && c == p.classOf[s]) continue;
    ss.moves.push_back((static_cast<std::uint64_t>(t.action) << 32) | c);
  }
  std::sort(ss.moves.begin(), ss.moves.end());
  ss.moves.erase(std::unique(ss.moves.begin(), ss.moves.end()),
                 ss.moves.end());

  ss.raw.clear();
  for (const auto& t : m.markovian(s)) ss.raw.emplace_back(p.classOf[t.to], t.rate);
  std::sort(ss.raw.begin(), ss.raw.end());
  ss.rates.clear();
  for (std::size_t i = 0; i < ss.raw.size();) {
    const std::uint32_t cls = ss.raw[i].first;
    double sum = 0.0;
    while (i < ss.raw.size() && ss.raw[i].first == cls) sum += ss.raw[i++].second;
    ss.rates.emplace_back(cls, sum);
  }
}

}  // namespace

Partition strongBisimulation(const IOIMC& m, const CancelToken* cancel) {
  const std::vector<Role> roles = actionRoles(m);
  StrongScratch ss;
  return refineBySignature(
      initialByLabel(m), "strong-refinement", cancel, nullptr,
      [&](const Partition& p, StateId s, std::vector<std::uint64_t>& out) {
        signStrong(m, roles, p, s, ss);
        out.push_back(ss.moves.size());
        out.insert(out.end(), ss.moves.begin(), ss.moves.end());
        for (const auto& [cls, rate] : ss.rates) {
          out.push_back(cls);
          out.push_back(std::bit_cast<std::uint64_t>(rate));
        }
      },
      [&](StateId s, auto&& f) {
        for (const auto& t : m.interactive(s))
          if (f(t.to)) return true;
        for (const auto& t : m.markovian(s))
          if (f(t.to)) return true;
        return false;
      });
}

IOIMC strongQuotient(const IOIMC& m) {
  const Partition p = strongBisimulation(m);
  const std::vector<Role> roles = actionRoles(m);
  std::vector<StateId> rep(p.numClasses);
  for (StateId s = m.numStates(); s-- > 0;) rep[p.classOf[s]] = s;

  CsrInteractive inter;
  CsrMarkovian markov;
  std::vector<std::uint32_t> labels(p.numClasses);
  inter.offsets.reserve(p.numClasses + 1);
  markov.offsets.reserve(p.numClasses + 1);
  StrongScratch ss;
  for (std::uint32_t c = 0; c < p.numClasses; ++c) {
    signStrong(m, roles, p, rep[c], ss);
    labels[c] = m.labelMask(rep[c]);
    inter.beginState();
    markov.beginState();
    for (std::uint64_t move : ss.moves)
      inter.data.push_back(
          {static_cast<ActionId>(move >> 32), static_cast<StateId>(move)});
    for (const auto& [cls, rate] : ss.rates) markov.data.push_back({rate, cls});
  }
  inter.finish();
  markov.finish();
  return restrictToReachable(
      IOIMC(m.name() + "/strong", m.symbols(), m.signature(),
            p.classOf[m.initial()], std::move(inter), std::move(markov),
            std::move(labels), m.labelNames()));
}

}  // namespace imcdft::ioimc
