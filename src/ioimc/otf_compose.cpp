#include "ioimc/otf_compose.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "ioimc/compose_internal.hpp"
#include "ioimc/ops.hpp"
#include "ioimc/otf_partition.hpp"
#include "ioimc/signature_interner.hpp"
#include "obs/trace.hpp"

namespace imcdft::ioimc::otf {

namespace {

using detail::GroupedModel;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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
  std::unordered_map<std::uint64_t, StateId> ids;
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

/// Thrown for conditions that abort the fused engine but are served
/// correctly by the classic path (the caller falls back).
struct OtfAbort {
  std::string reason;
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
    cadence_ = std::max(1.0, opts_.refineCadence);
    const auto loopStart = Clock::now();
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
      // Budget checkpoint before the expansion work.  A BudgetExceeded
      // from here deliberately does NOT become an OtfAbort: falling back
      // to the classic chain would just re-explode the same product
      // without a live-region bound — otfComposeAggregate rethrows it.
      if (opts_.weak.cancel && (pops_++ & 255u) == 0u)
        opts_.weak.cancel->checkpoint("otf-frontier", liveStates_,
                                      liveTransitions_);
      expand(id);
      notePeak();
      if (opts_.maxLiveStates && liveStates_ > opts_.maxLiveStates)
        throw OtfAbort{"live region exceeded the configured cap of " +
                       std::to_string(opts_.maxLiveStates) + " states"};
      maybeRefine();
    }
    // Expansion time is the frontier loop minus the in-loop reductions the
    // sub-phase timers already claimed.
    stats_->expandSeconds =
        std::max(0.0, secondsSince(loopStart) - inLoopReduceSeconds_);
    span->arg("visited", stats_->statesVisited);
    span->arg("refine_rounds", stats_->refinementRounds);
    span.reset();
    span.emplace("otf.finish");
    return finish();
  }

 private:
  static std::uint64_t key(StateId sa, StateId sb) {
    return (static_cast<std::uint64_t>(sa) << 32) | sb;
  }

  StateId stateOf(StateId sa, StateId sb) {
    auto [it, inserted] =
        st_.ids.try_emplace(key(sa, sb), static_cast<StateId>(st_.pairs.size()));
    const StateId id = it->second;
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
  /// cadence doubles, capped at 8x the configured base, so a product
  /// whose live region genuinely has to grow stops paying for refinements
  /// that cannot shrink it; the first productive pass resets the cadence.
  /// Decisions depend only on live-state counts — never on wall time — so
  /// runs are reproducible, and the knob cannot change result bytes (the
  /// quotient tail reaches the minimal canonical quotient no matter when
  /// intermediate passes ran).  A shadow counter tracks what the old
  /// fixed-doubling policy would have done, so refinePassesSkipped
  /// reports the passes this policy saved.
  void maybeRefine() {
    if (liveStates_ < opts_.refineThreshold) return;
    const bool fixedWouldRun = liveStates_ >= 2 * lastFixedLive_;
    if (static_cast<double>(liveStates_) <
        cadence_ * static_cast<double>(lastRefineLive_)) {
      if (fixedWouldRun) {
        ++stats_->refinePassesSkipped;
        lastFixedLive_ = std::max(liveStates_, opts_.refineThreshold / 2);
      }
      return;
    }
    const std::size_t before = liveStates_;
    refineAndPrune();
    const std::size_t removed = before - liveStates_;
    const double base = std::max(1.0, opts_.refineCadence);
    cadence_ = removed * 8 < before ? std::min(cadence_ * 2.0, base * 8.0)
                                    : base;
    lastRefineLive_ = std::max(liveStates_, opts_.refineThreshold / 2);
    lastFixedLive_ = lastRefineLive_;
  }

  void refineAndPrune() {
    ++stats_->refinementRounds;
    // The inline sink collapse implements the same abstraction as the
    // classic chain's collapseUnobservableSinks; when the caller disabled
    // that pass, the fused engine must preserve those states too.
    auto t0 = Clock::now();
    bool changed;
    {
      obs::TraceSpan span("otf.collapse");
      changed = opts_.collapseSinks && sinkCollapseInline();
    }
    double dt = secondsSince(t0);
    stats_->collapseSeconds += dt;
    inLoopReduceSeconds_ += dt;
    t0 = Clock::now();
    {
      obs::TraceSpan span("otf.refine");
      changed = weakCollapseInline() || changed;
      if (changed) pruneUnreachable();
    }
    dt = secondsSince(t0);
    stats_->refineSeconds += dt;
    inLoopReduceSeconds_ += dt;
  }

  void collectLive(std::vector<StateId>& rep, std::vector<StateId>& live) {
    const std::size_t total = st_.pairs.size();
    rep.resize(total);
    for (StateId i = 0; i < total; ++i) rep[i] = st_.find(i);
    live.clear();
    live.reserve(liveStates_);
    for (StateId i = 0; i < total; ++i)
      if (st_.status[i] == Status::Frontier || st_.status[i] == Status::Expanded)
        live.push_back(i);
  }

  /// The co-inductive sink collapse of collapseUnobservableSinks, run over
  /// the partially explored graph with every frontier state conservatively
  /// observable (its future is unknown).  States whose entire *explored*
  /// firable future is unobservable and same-mask are exactly the states
  /// the final collapse would absorb too — merging them into one absorbing
  /// node per mask right now is what keeps the dead regions of the product
  /// (spares failing on after their module died) out of the live peak.
  bool sinkCollapseInline() {
    std::vector<StateId> rep, live;
    collectLive(rep, live);
    const std::size_t count = live.size();
    std::vector<std::uint32_t> denseOf(st_.pairs.size(),
                                       static_cast<std::uint32_t>(-1));
    for (std::uint32_t d = 0; d < count; ++d) denseOf[live[d]] = d;

    std::vector<std::uint8_t> bad(count, 0);
    std::vector<std::vector<std::uint32_t>> preds(count);
    for (std::uint32_t d = 0; d < count; ++d) {
      const StateId s = live[d];
      if (st_.status[s] != Status::Expanded) {
        bad[d] = 1;  // frontier: unknown future is observable until proven
        continue;
      }
      bool hasTau = false;
      for (const InteractiveTransition& t : st_.inter[s])
        if (croles_[t.action] == ActionRole::Internal) hasTau = true;
      auto target = [&](StateId raw) {
        const std::uint32_t td = denseOf[rep[raw]];
        require(td != static_cast<std::uint32_t>(-1),
                "otf sink collapse: edge target is not live");
        return td;
      };
      for (const InteractiveTransition& t : st_.inter[s]) {
        const std::uint32_t td = target(t.to);
        preds[td].push_back(d);
        if (croles_[t.action] == ActionRole::Output) bad[d] = 1;
        if (st_.labels[live[td]] != st_.labels[s]) bad[d] = 1;
      }
      for (const MarkovianTransition& t : st_.markov[s]) {
        if (hasTau) continue;  // maximal progress: this rate can never fire
        const std::uint32_t td = target(t.to);
        preds[td].push_back(d);
        if (st_.labels[live[td]] != st_.labels[s]) bad[d] = 1;
      }
    }
    std::vector<std::uint32_t> stack;
    for (std::uint32_t d = 0; d < count; ++d)
      if (bad[d]) stack.push_back(d);
    while (!stack.empty()) {
      const std::uint32_t d = stack.back();
      stack.pop_back();
      for (std::uint32_t p : preds[d])
        if (!bad[p]) {
          bad[p] = 1;
          stack.push_back(p);
        }
    }

    // One absorbing node per label mask, lowest id first (an absorbing
    // node from an earlier round is sinkable again and keeps its role).
    std::unordered_map<std::uint32_t, StateId> sinkOf;
    sinkOf.reserve(32);
    absorbed_.resize(st_.pairs.size(), 0);
    bool collapsedAny = false;
    for (std::uint32_t d = 0; d < count; ++d) {
      if (bad[d]) continue;
      const StateId s = live[d];
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
      ++stats_->statesSinkCollapsed;
      collapsedAny = true;
    }
    return collapsedAny;
  }

  bool weakCollapseInline() {
    std::vector<StateId> rep, live;
    collectLive(rep, live);
    const std::size_t total = st_.pairs.size();
    std::vector<std::uint8_t> expanded(total, 0);
    for (StateId i = 0; i < total; ++i)
      expanded[i] = st_.status[i] == Status::Expanded ? 1 : 0;

    PartialGraph g;
    g.inter = &st_.inter;
    g.markov = &st_.markov;
    g.labelMask = &st_.labels;
    g.rep = &rep;
    g.expanded = &expanded;
    g.roles = &croles_;
    g.outputsUrgent = opts_.weak.outputsUrgent;
    WorkerPool* pool = opts_.encodePool;
    if (pool && pool->threads() > 1 &&
        live.size() >= detail::kIntraParallelMinStates)
      stats_->intraWorkers = pool->threads();
    const PartialPartition part =
        refinePartial(g, live, pool, opts_.weak.cancel);

    // Group the members of every multi-member class (in ascending-id
    // order; frontier states are singletons by construction, so every
    // member is expanded).
    std::vector<std::vector<StateId>> members(part.numClasses);
    bool collapsible = false;
    for (std::size_t d = 0; d < live.size(); ++d) {
      members[part.classOf[d]].push_back(live[d]);
      if (members[part.classOf[d]].size() == 2) collapsible = true;
    }
    if (!collapsible) return false;

    // Dense class of a raw edge target under this round's partition.
    std::vector<std::uint32_t> denseOf(st_.pairs.size(),
                                       static_cast<std::uint32_t>(-1));
    for (std::uint32_t d = 0; d < live.size(); ++d) denseOf[live[d]] = d;
    auto classOfTarget = [&](StateId raw) {
      const std::uint32_t dense = denseOf[rep[raw]];
      require(dense != static_cast<std::uint32_t>(-1),
              "otf merge: edge target is not live");
      return part.classOf[dense];
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
            if (role == ActionRole::Output && opts_.weak.outputsUrgent)
              stable = false;
            // An input edge into the class's own tau-closure is the
            // implicit-self-loop equivalent the signature filters away;
            // materializing it on the merged node would make a
            // semantically unobservable state look observable to the
            // sink collapse (and differ from the classic product, where
            // the edge-free bisimilar member realizes the class).
            if (role == ActionRole::Input &&
                part.tauReaches(c, classOfTarget(t.to)))
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
      if (haveStable && crossTau)
        throw OtfAbort{
            "merged class has both a stable member and a cross-class tau"};
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
        if (st_.status[victim] != Status::Expanded)
          throw OtfAbort{"refinement merged an unexpanded frontier state"};
        st_.parent[victim] = repState;
        st_.status[victim] = Status::Merged;
        liveTransitions_ -= st_.rowSize(victim);
        st_.freeRow(victim);
        --liveStates_;
        ++stats_->statesMerged;
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
    std::vector<StateId> rep, live;
    collectLive(rep, live);
    const std::size_t total = st_.pairs.size();
    std::vector<std::uint8_t> reachable(total, 0);
    std::vector<StateId> stack{st_.find(0)};
    reachable[stack.back()] = 1;
    for (StateId i : live) {
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
    for (StateId i : live) {
      if (st_.status[i] == Status::Merged || reachable[i]) continue;
      liveTransitions_ -= st_.rowSize(i);
      st_.freeRow(i);
      st_.status[i] = Status::Dead;
      --liveStates_;
      ++stats_->statesPruned;
    }
  }

  /// One aggregation pass with the completeness check the fused path
  /// depends on: an incomplete canonical renumbering would leave the state
  /// order (hence the bytes) a function of the discovery order, which
  /// differs between the fused and the classic exploration — abort to the
  /// classic path instead of handing out order-dependent bytes.
  IOIMC aggregateChecked(const IOIMC& m) {
    bool canonicalComplete = false;
    IOIMC out = canonicalRenumber(
        restrictToReachable(weakQuotient(m, opts_.weak)), &canonicalComplete);
    if (!canonicalComplete)
      throw OtfAbort{
          "canonical renumbering could not separate all quotient states"};
    return out;
  }

  IOIMC finish() {
    // BFS renumbering of the reduced graph (interactive row first, then
    // Markovian, matching restrictToReachable's traversal convention).
    auto t0 = Clock::now();
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
      if (st_.status[s] != Status::Expanded)
        throw OtfAbort{"unexpanded state survived in the final live graph"};
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
    stats_->renumberSeconds += secondsSince(t0);
    t0 = Clock::now();
    if (opts_.collapseSinks) reduced = collapseUnobservableSinks(reduced);
    stats_->collapseSeconds += secondsSince(t0);

    // The classic tail: aggregate to the minimal quotient, exactly like
    // the classic chain's aggregateFixpoint — but with the canonical
    // completeness checked on every pass (see aggregateChecked) instead of
    // re-running a whole verification refinement + renumbering on the
    // converged result: the fixpoint test below already is that
    // verification, and canonicalRenumber is idempotent on its output.
    t0 = Clock::now();
    IOIMC result = aggregateChecked(reduced);
    while (true) {
      const Partition check = weakBisimulation(result, opts_.weak);
      if (check.numClasses == result.numStates()) break;
      result = aggregateChecked(result);
    }
    stats_->renumberSeconds += secondsSince(t0);
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
  std::size_t lastFixedLive_ = 0;  ///< shadow of the old fixed-doubling policy
  double cadence_ = 2.0;           ///< working cadence (adapts per pass)
  double inLoopReduceSeconds_ = 0.0;
  OtfStats* stats_ = nullptr;
};

}  // namespace

OtfResult otfComposeAggregate(const IOIMC& a, const IOIMC& b,
                              const std::vector<ActionId>& hiddenOutputs,
                              const OtfOptions& opts) {
  OtfResult result;
  try {
    OtfEngine engine(a, b, hiddenOutputs, opts);
    result.model.emplace(engine.run(result.stats));
    result.ok = true;
  } catch (const OtfAbort& abort) {
    result.ok = false;
    result.failureReason = abort.reason;
    result.model.reset();
  } catch (const BudgetExceeded&) {
    // A tripped budget must unwind the whole request, not trigger the
    // classic fallback: the classic chain would materialize the very
    // product the budget just refused to pay for.
    throw;
  } catch (const Error& e) {
    // Compatibility and validation errors: the classic path will throw the
    // same error — report, let the caller re-raise it there.
    result.ok = false;
    result.failureReason = e.what();
    result.model.reset();
  }
  return result;
}

}  // namespace imcdft::ioimc::otf
