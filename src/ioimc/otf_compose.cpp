#include "ioimc/otf_compose.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ioimc/compose_internal.hpp"
#include "ioimc/ops.hpp"
#include "obs/trace.hpp"

namespace imcdft::ioimc::otf {

namespace {

using detail::GroupedModel;

/// Base refinement cadence: the inline reductions run when the live region
/// has grown by this factor since the last pass (see maybeRefine).
constexpr double kRefineCadence = 2.0;

enum class Status : std::uint8_t {
  Frontier,  ///< visited, successors not yet generated
  Expanded,  ///< all successors generated
  Merged,    ///< collapsed into a representative (permanent)
  Dead,      ///< unreachable after a collapse; revived if reached again
};

/// The growable, collapsible product graph.  Ids are assigned in discovery
/// order and never reused; merged ids resolve through the union-find.
struct ProductStore {
  std::vector<std::pair<StateId, StateId>> pairs;
  detail::PairIndex ids;
  std::vector<Status> status;
  std::vector<StateId> parent;  ///< union-find, representative = lowest id
  std::vector<std::vector<InteractiveTransition>> inter;
  std::vector<std::vector<MarkovianTransition>> markov;
  std::vector<std::uint32_t> labels;

  StateId find(StateId s) {
    while (parent[s] != s) {
      parent[s] = parent[parent[s]];
      s = parent[s];
    }
    return s;
  }

  std::size_t rowSize(StateId s) const {
    return inter[s].size() + markov[s].size();
  }
  void freeRow(StateId s) {
    std::vector<InteractiveTransition>().swap(inter[s]);
    std::vector<MarkovianTransition>().swap(markov[s]);
  }
};

class OtfEngine {
 public:
  OtfEngine(const IOIMC& a, const IOIMC& b,
            const std::vector<ActionId>& hiddenOutputs, const OtfOptions& opts)
      : a_(a),
        b_(b),
        opts_(opts),
        roleA_(actionRoles(a)),
        roleB_(actionRoles(b)),
        groupedA_(detail::groupModel(a)),
        groupedB_(detail::groupModel(b)) {
    detail::checkCompatible(a, b);
    sig_ = detail::compositeSignature(a, b);
    for (ActionId h : hiddenOutputs) sig_.hideOutput(h);
    labelUnion_ = detail::mergeLabels(a, b);
    // Composite role table *after* hiding: the refinement must treat the
    // hidden synchronizations as tau from the very first frontier.
    croles_.assign(a.symbols()->size(), ActionRole::None);
    for (ActionId x : sig_.inputs()) croles_[x] = ActionRole::Input;
    for (ActionId x : sig_.outputs()) croles_[x] = ActionRole::Output;
    for (ActionId x : sig_.internals()) croles_[x] = ActionRole::Internal;
  }

  IOIMC run(OtfStats& stats) {
    stats_ = &stats;
    std::optional<obs::TraceSpan> span;
    span.emplace("otf.explore");
    stateOf(a_.initial(), b_.initial());
    // LIFO order: subtrees complete early, so dead regions become
    // sink-collapsible and interior states lose their frontier contact
    // (and become weak-mergeable) long before exploration ends — under
    // breadth-first order nearly every visited state sits close to the
    // frontier until the very end and the live region cannot shrink.
    while (!queue_.empty()) {
      const StateId id = queue_.back();
      queue_.pop_back();
      if (st_.status[id] != Status::Frontier) continue;  // stale entry
      // Budget checkpoint before the expansion work.
      if (opts_.weak.cancel && (pops_++ & 255u) == 0u)
        opts_.weak.cancel->checkpoint("otf-frontier", liveStates_,
                                      liveTransitions_);
      expand(id);
      notePeak();
      maybeRefine();
    }
    span->arg("visited", stats_->statesVisited);
    span->arg("refine_rounds", stats_->refinementRounds);
    span.reset();
    span.emplace("otf.finish");
    RefineStats work;
    IOIMC result = finish(work);
    span->arg("refine_rounds", work.rounds);
    span->arg("encoded", work.encoded);
    span->arg("fixpoint_passes", work.fixpointPasses);
    return result;
  }

 private:
  StateId stateOf(StateId sa, StateId sb) {
    const auto [id, inserted] =
        st_.ids.insert(sa, sb, static_cast<StateId>(st_.pairs.size()));
    if (inserted) {
      st_.pairs.emplace_back(sa, sb);
      st_.status.push_back(Status::Frontier);
      st_.parent.push_back(id);
      st_.inter.emplace_back();
      st_.markov.emplace_back();
      st_.labels.push_back(
          labelUnion_.compositeMask(a_.labelMask(sa), b_.labelMask(sb)));
      ++liveStates_;
      ++stats_->statesVisited;
      queue_.push_back(id);
    } else {
      // A previously pruned state (or the pruned representative of a
      // merged one) became reachable again: revive it as frontier
      // (expanded rows were freed on death, so it re-expands).
      const StateId r = st_.find(id);
      if (st_.status[r] == Status::Dead) {
        st_.status[r] = Status::Frontier;
        ++liveStates_;
        ++stats_->statesVisited;
        queue_.push_back(r);
      }
    }
    return id;
  }

  void expand(StateId id) {
    st_.status[id] = Status::Expanded;
    const auto [sa, sb] = st_.pairs[id];
    // stateOf may grow the adjacency arrays, so the row is re-indexed on
    // every push instead of held by reference across interning calls.
    detail::forEachProductTransition(
        a_, b_, roleA_, roleB_, groupedA_, groupedB_, sa, sb,
        [&](ActionId act, StateId ta, StateId tb) {
          const StateId to = stateOf(ta, tb);
          st_.inter[id].push_back({act, to});
        },
        [&](double rate, StateId ta, StateId tb) {
          const StateId to = stateOf(ta, tb);
          st_.markov[id].push_back({rate, to});
        });
    liveTransitions_ += st_.rowSize(id);
  }

  void notePeak() {
    stats_->peakLiveStates = std::max(stats_->peakLiveStates, liveStates_);
    stats_->peakLiveTransitions =
        std::max(stats_->peakLiveTransitions, liveTransitions_);
  }

  /// Adaptive cadence: a pass runs when the live region grew by the
  /// current cadence factor since the last pass.  After an unproductive
  /// pass (it removed less than 1/8 of the live states) the working
  /// cadence doubles, capped at 8x kRefineCadence, so a product
  /// whose live region genuinely has to grow stops paying for refinements
  /// that cannot shrink it; the first productive pass resets the cadence.
  /// Decisions depend only on live-state counts — never on wall time — so
  /// runs are reproducible, and pass timing cannot change result bytes
  /// (the quotient tail reaches the minimal canonical quotient no matter
  /// when intermediate passes ran).
  void maybeRefine() {
    if (liveStates_ < opts_.refineThreshold) return;
    if (static_cast<double>(liveStates_) <
        cadence_ * static_cast<double>(lastRefineLive_))
      return;
    const std::size_t before = liveStates_;
    refineAndPrune();
    const std::size_t removed = before - liveStates_;
    cadence_ = removed * 8 < before
                   ? std::min(cadence_ * 2.0, kRefineCadence * 8.0)
                   : kRefineCadence;
    lastRefineLive_ = std::max(liveStates_, opts_.refineThreshold / 2);
  }

  void refineAndPrune() {
    ++stats_->refinementRounds;
    // The inline sink collapse implements the same abstraction as the
    // classic chain's collapseUnobservableSinks.
    bool changed;
    {
      obs::TraceSpan span("otf.collapse");
      changed = sinkCollapseInline();
    }
    obs::TraceSpan span("otf.refine");
    changed = weakCollapseInline() || changed;
    if (changed) pruneUnreachable();
  }

  bool isLive(StateId s) const {
    return st_.status[s] == Status::Frontier ||
           st_.status[s] == Status::Expanded;
  }

  /// The live region as a dense model, which both inline reductions hand
  /// to the whole-model kernels.  Dense ids follow product ids; edges
  /// resolve through the union-find, and frontier states have empty rows
  /// and are pinned: their future is unknown.
  struct LiveSnapshot {
    std::vector<StateId> live;  ///< dense id -> product id
    /// Product id -> dense id of its representative (kNotLive when that is
    /// not live).
    std::vector<std::uint32_t> denseOf;
    std::vector<std::uint8_t> pinned;  ///< dense id -> frontier state
    IOIMC model;
  };
  static constexpr std::uint32_t kNotLive = static_cast<std::uint32_t>(-1);

  LiveSnapshot snapshot() {
    const std::size_t total = st_.pairs.size();
    std::vector<StateId> live;
    live.reserve(liveStates_);
    // A representative is the lowest id of its set, so it is resolved
    // before any member that points to it.
    std::vector<std::uint32_t> denseOf(total, kNotLive);
    for (StateId i = 0; i < total; ++i) {
      const StateId r = st_.find(i);
      if (r != i) {
        denseOf[i] = denseOf[r];
      } else if (isLive(i)) {
        denseOf[i] = static_cast<std::uint32_t>(live.size());
        live.push_back(i);
      }
    }
    auto target = [&](StateId raw) {
      const std::uint32_t d = denseOf[raw];
      require(d != kNotLive, "otf snapshot: edge target is not live");
      return d;
    };
    std::vector<std::uint8_t> pinned(live.size(), 0);
    CsrInteractive inter;
    CsrMarkovian markov;
    std::vector<std::uint32_t> labels(live.size());
    inter.offsets.reserve(live.size() + 1);
    markov.offsets.reserve(live.size() + 1);
    for (std::uint32_t d = 0; d < live.size(); ++d) {
      const StateId s = live[d];
      inter.beginState();
      markov.beginState();
      labels[d] = st_.labels[s];
      if (st_.status[s] != Status::Expanded) {
        pinned[d] = 1;
        continue;
      }
      for (const InteractiveTransition& t : st_.inter[s])
        inter.data.push_back({t.action, target(t.to)});
      for (const MarkovianTransition& t : st_.markov[s])
        markov.data.push_back({t.rate, target(t.to)});
    }
    inter.finish();
    markov.finish();
    IOIMC model("otf-live", a_.symbols(), sig_, denseOf[0], std::move(inter),
                std::move(markov), std::move(labels), labelUnion_.names);
    return {std::move(live), std::move(denseOf), std::move(pinned),
            std::move(model)};
  }

  /// The sink collapse of collapseUnobservableSinks, run over the live
  /// region with every frontier state observable (its future is unknown).
  /// States whose entire *explored* firable future is unobservable and
  /// same-mask are exactly the states the final collapse would absorb too
  /// — merging them into one absorbing node per mask right now is what
  /// keeps the dead regions of the product (spares failing on after their
  /// module died) out of the live peak.
  bool sinkCollapseInline() {
    const LiveSnapshot snap = snapshot();
    const std::vector<std::uint8_t> observable =
        detail::observableStates(snap.model, snap.pinned);

    // One absorbing node per label mask, lowest id first (an absorbing
    // node from an earlier round is sinkable again and keeps its role).
    std::unordered_map<std::uint32_t, StateId> sinkOf;
    sinkOf.reserve(32);
    absorbed_.resize(st_.pairs.size(), 0);
    bool collapsedAny = false;
    for (std::uint32_t d = 0; d < snap.live.size(); ++d) {
      if (observable[d]) continue;
      const StateId s = snap.live[d];
      auto [it, inserted] = sinkOf.try_emplace(st_.labels[s], s);
      if (inserted) {
        // s becomes the absorbing sink for its mask: its whole (dead)
        // row disappears, exactly like the final collapse would do.
        liveTransitions_ -= st_.rowSize(s);
        st_.freeRow(s);
        absorbed_[s] = 1;
        collapsedAny = true;
        continue;
      }
      st_.parent[s] = it->second;
      st_.status[s] = Status::Merged;
      liveTransitions_ -= st_.rowSize(s);
      st_.freeRow(s);
      --liveStates_;
      collapsedAny = true;
    }
    return collapsedAny;
  }

  /// Weak refinement of the live region with the frontier pinned (see the
  /// file comment of otf_compose.hpp); every multi-member class collapses
  /// onto its lowest-id member.
  bool weakCollapseInline() {
    const LiveSnapshot snap = snapshot();
    const detail::PinnedWeakPartition refined = detail::weakBisimulationPinned(
        snap.model, snap.pinned, opts_.weak, "otf-refine");
    const Partition& part = refined.partition;

    // Group the members of every multi-member class (in ascending-id
    // order; frontier states are singletons by construction, so every
    // member is expanded).
    std::vector<std::vector<StateId>> members(part.numClasses);
    bool collapsible = false;
    for (std::size_t d = 0; d < snap.live.size(); ++d) {
      members[part.classOf[d]].push_back(snap.live[d]);
      if (members[part.classOf[d]].size() == 2) collapsible = true;
    }
    if (!collapsible) return false;

    // Class of a raw edge target of an expanded state (the snapshot has
    // checked that it is live).
    auto classOfTarget = [&](StateId raw) {
      return part.classOf[snap.denseOf[raw]];
    };

    bool collapsedAny = false;
    for (std::uint32_t c = 0; c < part.numClasses; ++c) {
      if (members[c].size() < 2) continue;
      // Collapse onto the lowest-id member.  The merged node must
      // *realize* the whole class's behavior through direct edges — the
      // representative's raw row alone may reach parts of the class's
      // future only through a victim — so its new row is the union of all
      // members' rows with the intra-class (inert) taus dropped:
      //  * visible edges of every member are kept (each is a true move of
      //    a bisimilar state; the union is exactly the class signature);
      //  * inert taus disappear (they would become self-loops and, worse,
      //    make a semantically stable class look unstable);
      //  * a class with a stable member has no cross-class tau (a stable
      //    state can only match a tau move by staying put), and all its
      //    stable members carry bit-equal rate sums — the first stable
      //    member's Markovian row speaks for the class.  Unstable
      //    members' rates are maximal-progress phantoms and must not
      //    surface on the now-stable merged node;
      //  * a class with no stable member keeps every member's (phantom)
      //    rates — like the unstable states of the classic product — and,
      //    when it also has no cross-class tau, one inert tau survives as
      //    a self-loop so the divergent class stays unstable.
      const StateId repState = members[c].front();
      // Whether class \p target lies in the class's tau-closure (a class
      // invariant at convergence, read off the representative).
      auto tauReaches = [&](std::uint32_t target) {
        for (StateId u : refined.tau.closure(snap.denseOf[repState]))
          if (part.classOf[u] == target) return true;
        return false;
      };
      std::vector<InteractiveTransition> newInter;
      std::vector<MarkovianTransition> newMarkov;
      bool crossTau = false;
      bool haveStable = false;
      std::optional<InteractiveTransition> firstInertTau;
      for (const StateId m : members[c]) {
        bool stable = true;
        for (const InteractiveTransition& t : st_.inter[m]) {
          const ActionRole role = croles_[t.action];
          if (role == ActionRole::Internal) {
            stable = false;
            if (classOfTarget(t.to) == c) {
              if (!firstInertTau) firstInertTau = t;
              continue;  // inert: disappears in the merged node
            }
            crossTau = true;
            newInter.push_back(t);
          } else {
            if (role == ActionRole::Output)
              stable = false;
            // An input edge into the class's own tau-closure is the
            // implicit-self-loop equivalent the signature filters away;
            // materializing it on the merged node would make a
            // semantically unobservable state look observable to the
            // sink collapse (and differ from the classic product, where
            // the edge-free bisimilar member realizes the class).
            if (role == ActionRole::Input && tauReaches(classOfTarget(t.to)))
              continue;
            newInter.push_back(t);
          }
        }
        if (stable && !haveStable) {
          haveStable = true;
          newMarkov.assign(st_.markov[m].begin(), st_.markov[m].end());
        } else if (!haveStable) {
          newMarkov.insert(newMarkov.end(), st_.markov[m].begin(),
                           st_.markov[m].end());
        }
      }
      require(!(haveStable && crossTau),
              "merged class has both a stable member and a cross-class tau");
      if (!haveStable && !crossTau && firstInertTau)
        newInter.push_back({firstInertTau->action, repState});

      liveTransitions_ += newInter.size() + newMarkov.size();
      liveTransitions_ -= st_.rowSize(repState);
      st_.inter[repState] = std::move(newInter);
      st_.markov[repState] = std::move(newMarkov);
      absorbed_.resize(st_.pairs.size(), 0);
      absorbed_[repState] = 1;
      for (std::size_t i = 1; i < members[c].size(); ++i) {
        const StateId victim = members[c][i];
        require(st_.status[victim] == Status::Expanded,
                "refinement merged an unexpanded frontier state");
        st_.parent[victim] = repState;
        st_.status[victim] = Status::Merged;
        liveTransitions_ -= st_.rowSize(victim);
        st_.freeRow(victim);
        --liveStates_;
      }
      collapsedAny = true;
    }
    return collapsedAny;
  }

  /// Prune: anything no longer reachable from the root through
  /// representative-resolved edges is dropped; unexpanded states among
  /// them leave the work queue for good (unless revived later).  Absorbed
  /// representatives seed the walk too: their union (or absorbing) rows
  /// must keep resolving to live states, and they themselves stay live —
  /// their victims' rows are gone, so pruning them would be irreversible.
  void pruneUnreachable() {
    const std::size_t total = st_.pairs.size();
    std::vector<std::uint8_t> reachable(total, 0);
    std::vector<StateId> stack{st_.find(0)};
    reachable[stack.back()] = 1;
    for (StateId i = 0; i < total; ++i) {
      if (i < absorbed_.size() && absorbed_[i] && !reachable[i] &&
          st_.status[i] == Status::Expanded) {
        reachable[i] = 1;
        stack.push_back(i);
      }
    }
    while (!stack.empty()) {
      const StateId v = stack.back();
      stack.pop_back();
      auto visit = [&](StateId raw) {
        const StateId w = st_.find(raw);
        if (!reachable[w]) {
          reachable[w] = 1;
          stack.push_back(w);
        }
      };
      for (const auto& t : st_.inter[v]) visit(t.to);
      for (const auto& t : st_.markov[v]) visit(t.to);
    }
    for (StateId i = 0; i < total; ++i) {
      if (!isLive(i) || reachable[i]) continue;
      liveTransitions_ -= st_.rowSize(i);
      st_.freeRow(i);
      st_.status[i] = Status::Dead;
      --liveStates_;
    }
  }

  IOIMC finish(RefineStats& work) {
    // BFS renumbering of the reduced graph (interactive row first, then
    // Markovian, matching restrictToReachable's traversal convention).
    const StateId root = st_.find(0);
    constexpr StateId kUnvisited = static_cast<StateId>(-1);
    std::vector<StateId> remap(st_.pairs.size(), kUnvisited);
    std::vector<StateId> order;
    std::deque<StateId> bfs;
    remap[root] = 0;
    order.push_back(root);
    bfs.push_back(root);
    while (!bfs.empty()) {
      const StateId s = bfs.front();
      bfs.pop_front();
      require(st_.status[s] == Status::Expanded,
              "unexpanded state survived in the final live graph");
      auto visit = [&](StateId raw) {
        const StateId t = st_.find(raw);
        if (remap[t] == kUnvisited) {
          remap[t] = static_cast<StateId>(order.size());
          order.push_back(t);
          bfs.push_back(t);
        }
      };
      for (const auto& t : st_.inter[s]) visit(t.to);
      for (const auto& t : st_.markov[s]) visit(t.to);
    }

    CsrInteractive inter;
    CsrMarkovian markov;
    std::vector<std::uint32_t> labels(order.size());
    inter.offsets.reserve(order.size() + 1);
    markov.offsets.reserve(order.size() + 1);
    for (StateId ns = 0; ns < order.size(); ++ns) {
      const StateId os = order[ns];
      inter.beginState();
      markov.beginState();
      labels[ns] = st_.labels[os];
      for (const auto& t : st_.inter[os])
        inter.data.push_back({t.action, remap[st_.find(t.to)]});
      for (const auto& t : st_.markov[os])
        markov.data.push_back({t.rate, remap[st_.find(t.to)]});
    }
    inter.finish();
    markov.finish();

    IOIMC reduced("(" + a_.name() + "||" + b_.name() + ")", a_.symbols(),
                  std::move(sig_), 0, std::move(inter), std::move(markov),
                  std::move(labels), std::move(labelUnion_.names));
    reduced = collapseUnobservableSinks(reduced);

    // The classic tail: aggregate to the minimal quotient, exactly as the
    // classic chain does.  Only the fixpoint's renumbering must be
    // complete: an intermediate quotient may still hold strongly bisimilar
    // states (the classic chain keeps its order-dependent numbering for one
    // more pass too), but an incomplete renumbering of the final, minimal
    // quotient would leave its bytes a function of the discovery order,
    // which differs between the fused and the classic exploration.
    bool canonicalComplete = false;
    IOIMC result =
        aggregateFixpoint(reduced, opts_.weak, &canonicalComplete, &work);
    require(canonicalComplete,
            "canonical renumbering could not separate all quotient states");
    return result;
  }

  const IOIMC& a_;
  const IOIMC& b_;
  const OtfOptions& opts_;
  Signature sig_;
  detail::MergedLabels labelUnion_;
  std::vector<ActionRole> roleA_, roleB_, croles_;
  detail::GroupedModel groupedA_, groupedB_;

  ProductStore st_;
  /// Representatives that absorbed victims (their rows are class unions).
  std::vector<std::uint8_t> absorbed_;
  std::vector<StateId> queue_;  ///< LIFO exploration stack
  std::uint32_t pops_ = 0;      ///< frontier pops (budget-checkpoint stride)
  std::size_t liveStates_ = 0;
  std::size_t liveTransitions_ = 0;
  std::size_t lastRefineLive_ = 0;
  double cadence_ = kRefineCadence;  ///< working cadence (adapts per pass)
  OtfStats* stats_ = nullptr;
};

}  // namespace

OtfResult otfComposeAggregate(const IOIMC& a, const IOIMC& b,
                              const std::vector<ActionId>& hiddenOutputs,
                              const OtfOptions& opts) {
  OtfStats stats;
  IOIMC model = OtfEngine(a, b, hiddenOutputs, opts).run(stats);
  return {std::move(model), stats};
}

}  // namespace imcdft::ioimc::otf
