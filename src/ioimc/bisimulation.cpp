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
#include "obs/trace.hpp"

namespace imcdft::ioimc {

namespace {

using Role = ActionRole;

/// Tau closures, weak visible moves and stability (see tau_closure.hpp).
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

/// A set of classes that empties in O(1): a class is in it when its mark
/// holds the current epoch.
struct ClassStamps {
  std::vector<std::uint32_t> mark;
  std::uint32_t epoch = 0;

  void clear(std::uint32_t numClasses) {
    if (mark.size() < numClasses) mark.resize(numClasses, 0);
    if (++epoch == 0) {  // wrapped: forget every old mark
      std::fill(mark.begin(), mark.end(), 0);
      epoch = 1;
    }
  }
  bool contains(std::uint32_t c) const { return mark[c] == epoch; }
  /// Adds \p c; returns whether it was new.
  bool insert(std::uint32_t c) {
    if (contains(c)) return false;
    mark[c] = epoch;
    return true;
  }
};

/// Reusable scratch buffers for one state's weak-signature encoding.
struct WeakScratch {
  std::vector<std::uint32_t> tauTargets;
  std::vector<std::uint64_t> visible;
  std::vector<std::pair<std::uint32_t, double>> raw;
  std::vector<std::uint64_t> rateTokens;  ///< class/rate-bits pairs, flat
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rateVecs;  ///< ranges
  ClassStamps tauStamps;      ///< the classes in tauTargets
  ClassStamps visibleStamps;  ///< one action's visible target classes
};

/// State \p s's weak signature under partition \p p, left in \p ws:
/// the sorted classes it reaches by tau*, its sorted weak visible moves
/// (action << 32 | class) and the sorted, deduplicated rate vectors of its
/// stable tau-derivatives, each a run of (class, rate-bits) token pairs in
/// ws.rateTokens.
void signWeak(const IOIMC& m, const TauInfo& tau,
              const std::vector<Role>& roles, const Partition& p, StateId s,
              WeakScratch& ws) {
  auto closure = tau.closure(s);

  // Distinct classes first (stamped), then only those get sorted.
  ws.tauTargets.clear();
  ws.tauStamps.clear(p.numClasses);
  for (StateId u : closure)
    if (ws.tauStamps.insert(p.classOf[u]))
      ws.tauTargets.push_back(p.classOf[u]);
  std::sort(ws.tauTargets.begin(), ws.tauTargets.end());

  // The moves are sorted by action, so each action's distinct target
  // classes are collected (stamped) and sorted on their own.
  ws.visible.clear();
  const auto moves = tau.moves(s);
  for (std::size_t i = 0; i < moves.size();) {
    const ActionId action = static_cast<ActionId>(moves[i] >> 32);
    const std::uint64_t tag = static_cast<std::uint64_t>(action) << 32;
    const std::size_t begin = ws.visible.size();
    ws.visibleStamps.clear(p.numClasses);
    for (; i < moves.size() && (moves[i] >> 32) == action; ++i) {
      const std::uint32_t c = p.classOf[static_cast<StateId>(moves[i])];
      // Implicit input self-loops make every tau-target an input target
      // for free; recording those adds no discriminating power, so filter
      // them to obtain the coarsest (minimal) quotient.
      if (roles[action] == Role::Input && ws.tauStamps.contains(c)) continue;
      if (ws.visibleStamps.insert(c)) ws.visible.push_back(tag | c);
    }
    std::sort(ws.visible.begin() + static_cast<std::ptrdiff_t>(begin),
              ws.visible.end());
  }

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

/// Everything a weak refinement of one model reads besides the partition.
/// Pinned states (when \p pinned is set) start alone in their class and
/// never count as stable; every checkpoint reports \p site.
struct WeakContext {
  const IOIMC& m;
  const char* site;
  const std::vector<std::uint8_t>* pinned;
  std::vector<Role> roles;
  TauInfo tau;

  /// Builds the tau closures and weak moves in a "weak.context" span,
  /// whose args size what it built (rows shared by a tau-SCC or aliased
  /// count once).
  WeakContext(const IOIMC& model, const WeakOptions& opts,
              const char* checkpointSite = "weak-refinement",
              const std::vector<std::uint8_t>* pinnedStates = nullptr)
      : m(model),
        site(checkpointSite),
        pinned(pinnedStates),
        roles(actionRoles(model)) {
    obs::TraceSpan span("weak.context");
    tau = detail::computeTauClosure(m, roles, pinned, site, opts.cancel);
    span.arg("states", m.numStates());
    span.arg("closure", tau.compClosure.size());
    span.arg("weak_moves", tau.compMoves.size());
  }

  Partition refine(const WeakOptions& opts, RefineStats* stats) const {
    WeakScratch ws;
    return refineBySignature(
        initialByLabel(m, pinned), site, opts.cancel, stats,
        [&](const Partition& p, StateId s, std::vector<std::uint64_t>& out) {
          signWeak(m, tau, roles, p, s, ws);
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
          for (std::uint64_t move : tau.moves(s))
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
      signWeak(m, tau, roles, p, rep[c], ws);
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

}  // namespace imcdft::ioimc
