#include "analysis/engine.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "analysis/symmetry.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/threads.hpp"
#include "dft/hash.hpp"
#include "dft/modules.hpp"
#include "ioimc/compose.hpp"
#include "ioimc/ops.hpp"
#include "ioimc/otf_compose.hpp"
#include "obs/trace.hpp"

namespace imcdft::analysis {

using ioimc::IOIMC;


void CompositionStats::foldSteps() {
  for (const CompositionStep& s : steps) {
    peakComposedStates = std::max(peakComposedStates, s.composedStates);
    peakComposedTransitions =
        std::max(peakComposedTransitions, s.composedTransitions);
    peakAggregatedStates = std::max(peakAggregatedStates, s.aggregatedStates);
    peakAggregatedTransitions =
        std::max(peakAggregatedTransitions, s.aggregatedTransitions);
  }
}

namespace {

/// The classic chain of one step: composes \p a and \p b, hides
/// \p hidden, then collapses and aggregates (except on the Unreduced
/// reference, which leaves all minimizing to finalize).  Records the
/// product's size in \p step.  With \p stopAtCaps, returns nullopt as
/// soon as the product outgrows the request's live-state or memory cap
/// (ioimc::composeWithinCaps), so the caller can run the fused engine.
std::optional<IOIMC> classicStep(const IOIMC& a, const IOIMC& b,
                                 const std::vector<ioimc::ActionId>& hidden,
                                 const EngineOptions& opts, bool stopAtCaps,
                                 CompositionStep& step) {
  // Each intermediate is dropped as soon as the next one exists.
  std::optional<IOIMC> m;
  {
    obs::TraceSpan span("classic.compose");
    std::size_t discovered = 0;
    if (stopAtCaps) {
      m = ioimc::composeWithinCaps(a, b, *opts.weak.cancel, discovered);
    } else {
      m.emplace(ioimc::compose(a, b, opts.weak.cancel));
      discovered = m->numStates();
    }
    span.arg("states", discovered);
    span.arg("overflow", m ? 0 : 1);
    if (!m) return std::nullopt;
    step.composedStates = m->numStates();
    step.composedTransitions = m->numTransitions();
  }
  {
    obs::TraceSpan span("classic.collapse");
    m = ioimc::hide(std::move(*m), hidden);
    if (opts.reference == Reference::Unreduced) return m;
    m = ioimc::collapseUnobservableSinks(*m);
  }
  obs::TraceSpan span("classic.aggregate");
  // To fixpoint, not a single pass: the fused path and this classic chain
  // reach byte-identical results only in the *minimal* quotient (both are
  // canonically renumbered there).
  ioimc::RefineStats work;
  IOIMC out = ioimc::aggregateFixpoint(*m, opts.weak, nullptr, &work);
  span.arg("refine_rounds", work.rounds);
  span.arg("encoded", work.encoded);
  span.arg("fixpoint_passes", work.fixpointPasses);
  return out;
}

/// The merge mergePool performs next.
struct MergePlan {
  std::size_t i = 0, j = 1;  ///< positions in the live list, i < j
  /// Outputs of the merged pair that no other pool member consumes and
  /// usedOutside does not claim: what the step hides right after composing.
  std::vector<ioimc::ActionId> hidden;
  double predicted = 0.0;  ///< the planner's cost estimate
};

/// Picks the next merge among the live entries of \p pool, with the list
/// of outputs it hides, which both engines are handed.  A pair (A, B)
/// is scored by the product it builds, |A||B| + |T_A||B| + |T_B||A| states
/// and interleaved transitions, doubled for every action the merged model
/// still shows: the union of both alphabets minus the outputs the merge
/// hides (those no other pool member consumes and \p usedOutside does not
/// claim).  Each visible action is behaviour the quotient must keep for
/// later merges, so merges that close an interface go first, and the
/// product term holds large or dense operands back.  Synchronizing pairs
/// are preferred; the lowest score wins, ties by pool position.  The score
/// reads only sizes, signatures and the static consumer sets, so the
/// choice is the same for every thread count, on either engine (both
/// produce the same canonical quotients), and mirrors a symmetric
/// sibling's choice under its order-preserving renaming.
MergePlan planMerge(const std::vector<std::optional<IOIMC>>& pool,
                    const std::vector<std::size_t>& live,
                    const std::function<bool(ioimc::ActionId)>& usedOutside) {
  // Consumers per action among all pool members, counted once per step
  // instead of per pair.
  std::unordered_map<ioimc::ActionId, std::uint32_t> consumers;
  for (const std::optional<IOIMC>& m : pool)
    if (m)
      for (ioimc::ActionId in : m->signature().inputs()) ++consumers[in];
  // Calls \p f on every output of x or y the merge of the two hides.
  auto forEachHidden = [&](const ioimc::Signature& x,
                           const ioimc::Signature& y, auto&& f) {
    for (const ioimc::Signature* own : {&x, &y}) {
      for (ioimc::ActionId out : own->outputs()) {
        auto it = consumers.find(out);
        const std::uint32_t all = it == consumers.end() ? 0 : it->second;
        const bool consumedElsewhere =
            all != static_cast<std::uint32_t>(x.isInput(out)) +
                       static_cast<std::uint32_t>(y.isInput(out));
        if (!consumedElsewhere && !(usedOutside && usedOutside(out))) f(out);
      }
    }
  };
  MergePlan best;
  best.predicted = std::numeric_limits<double>::infinity();
  bool bestSync = false;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const IOIMC& x = *pool[live[i]];
    const ioimc::Signature& sx = x.signature();
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      const IOIMC& y = *pool[live[j]];
      const ioimc::Signature& sy = y.signature();
      std::size_t shared = 0;
      for (const std::vector<ioimc::ActionId>* acts :
           {&sx.inputs(), &sx.outputs()})
        for (ioimc::ActionId a : *acts)
          if (sy.isInput(a) || sy.isOutput(a)) ++shared;
      const bool sync = shared != 0;
      if (bestSync && !sync) continue;
      const std::size_t alphabet = sx.inputs().size() + sx.outputs().size() +
                                   sy.inputs().size() + sy.outputs().size() -
                                   shared;
      std::size_t hidden = 0;
      forEachHidden(sx, sy, [&](ioimc::ActionId) { ++hidden; });
      const double statesX = static_cast<double>(x.numStates());
      const double statesY = static_cast<double>(y.numStates());
      const double product =
          statesX * statesY +
          static_cast<double>(x.numTransitions()) * statesY +
          static_cast<double>(y.numTransitions()) * statesX;
      const double predicted =
          std::ldexp(product, static_cast<int>(alphabet - hidden));
      if ((sync && !bestSync) || predicted < best.predicted) {
        best.i = i;
        best.j = j;
        best.predicted = predicted;
        bestSync = sync;
      }
    }
  }
  forEachHidden(pool[live[best.i]]->signature(),
                pool[live[best.j]]->signature(),
                [&](ioimc::ActionId out) { best.hidden.push_back(out); });
  return best;
}

/// Greedily folds the live entries of \p pool into one model, recording
/// one CompositionStep per pairwise composition into \p steps.  planMerge
/// picks each step's pair; \p usedOutside reports whether an output action
/// has consumers beyond this pool (null = none).  FusedChain fuses every
/// step; otherwise a step runs the classic chain, and only a capped request
/// off the Unreduced reference hands an over-cap product to the fused
/// engine (see Reference).
std::size_t mergePool(std::vector<std::optional<IOIMC>>& pool,
                      std::vector<std::size_t> live,
                      const EngineOptions& opts,
                      std::vector<CompositionStep>& steps,
                      const std::function<bool(ioimc::ActionId)>& usedOutside) {
  require(!live.empty(), "composeCommunity: empty module pool");
  const bool fuseEvery = opts.reference == Reference::FusedChain;
  const CancelToken* cancel = opts.weak.cancel;
  const bool stopAtCaps = cancel && opts.reference != Reference::Unreduced;
  while (live.size() > 1) {
    // One budget checkpoint per merge step: catches explosion between hot
    // loops (e.g. a pool whose pairwise products are individually cheap
    // but whose count is huge).  The live pool size is the step's peak
    // proxy; the finer-grained accounting happens inside compose / the
    // fused engine / the refinement loops, which all carry the same token.
    if (cancel) cancel->checkpoint("merge-step", live.size());
    const MergePlan plan = planMerge(pool, live, usedOutside);
    const std::size_t a = live[plan.i], b = live[plan.j];
    CompositionStep step;
    step.name = pool[a]->name() + " || " + pool[b]->name();
    step.leftStates = pool[a]->numStates();
    step.rightStates = pool[b]->numStates();
    obs::TraceSpan stepSpan("compose.step", step.name);
    stepSpan.arg("left_states", step.leftStates);
    stepSpan.arg("right_states", step.rightStates);
    stepSpan.arg("hidden", plan.hidden.size());
    stepSpan.arg("predicted",
                 static_cast<std::uint64_t>(std::min(plan.predicted, 0x1p63)));
    std::optional<IOIMC> result;
    if (!fuseEvery)
      result = classicStep(*pool[a], *pool[b], plan.hidden, opts, stopAtCaps,
                           step);
    if (!result) {
      ioimc::otf::OtfOptions fusedOpts;
      fusedOpts.weak = opts.weak;
      ioimc::otf::OtfResult r = ioimc::otf::otfComposeAggregate(
          *pool[a], *pool[b], plan.hidden, fusedOpts);
      step.onTheFly = true;
      step.composedStates = r.stats.peakLiveStates;
      step.composedTransitions = r.stats.peakLiveTransitions;
      step.otfRefinePassesRun = r.stats.refinementRounds;
      result.emplace(std::move(r.model));
    }
    step.aggregatedStates = result->numStates();
    step.aggregatedTransitions = result->numTransitions();
    stepSpan.arg("aggregated_states", step.aggregatedStates);
    stepSpan.arg("otf", step.onTheFly ? 1 : 0);
    steps.push_back(std::move(step));
    pool[a].reset();
    pool[b].reset();
    pool.emplace_back(std::move(*result));
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(plan.j));
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(plan.i));
    live.push_back(pool.size() - 1);
  }
  return live.front();
}

/// Node of the module containment tree (every reference but
/// DeclarationOrder).  composeCommunity numbers the tree in post-order:
/// children come before their parent, in their order, and the root is
/// last, so the subtree of node n is the index range [first, n].
struct ModuleNode {
  std::string name;
  dft::ModuleInfo info;
  std::vector<std::size_t> ownModels;  ///< community model indices
  std::vector<int> children;           ///< node indices
  int parent = -1;
  int first = 0;  ///< lowest index of the subtree
};

/// Numbers the module tree in post-order from \p root.  \p byModule holds
/// the nodes in dft::independentModules order (ascending size), children
/// and parents as module indices; the result holds them as described at
/// ModuleNode, and \p nodeOfModule receives each module's node index.
std::vector<ModuleNode> numberPostOrder(std::vector<ModuleNode> byModule,
                                        int root,
                                        std::vector<int>& nodeOfModule) {
  std::vector<ModuleNode> nodes;
  nodeOfModule.assign(byModule.size(), -1);
  std::vector<std::pair<int, std::size_t>> stack{{root, 0}};  // next child
  while (!stack.empty()) {
    auto& [module, next] = stack.back();
    ModuleNode& node = byModule[module];
    if (next < node.children.size()) {
      const int child = node.children[next++];
      stack.emplace_back(child, 0);
      continue;
    }
    const int n = static_cast<int>(nodes.size());
    for (int& c : node.children) {
      c = nodeOfModule[c];
      nodes[c].parent = n;
    }
    node.first = node.children.empty() ? n : nodes[node.children[0]].first;
    nodeOfModule[module] = n;
    nodes.push_back(std::move(node));
    stack.pop_back();
  }
  return nodes;
}

/// Parallel aggregation of the module containment tree: one task per
/// module node, executed once all child modules finished, on the calling
/// thread and a few helper threads.  Tasks share no mutable state — every
/// node folds its own community models plus its children's aggregated
/// results, and the question "is this output consumed outside the pool?"
/// is answered from the *static* input sets of the original community
/// models outside the node's subtree (a composite consumes an input action
/// iff one of its members did, so the static answer equals the sequential
/// engine's scan over live slots).  Results are therefore bitwise identical
/// for every thread count.
class ModularAggregator {
 public:
  ModularAggregator(std::vector<std::optional<IOIMC>> models,
                    std::vector<ModuleNode> nodes,
                    std::vector<int> nodeOfModule, const dft::Dft& dft,
                    const std::vector<std::vector<dft::ElementId>>& modelElements,
                    const std::vector<ActivationContext>& contexts,
                    const EngineOptions& opts, ModuleCache* cache)
      : models_(std::move(models)),
        nodes_(std::move(nodes)),
        nodeOfModule_(std::move(nodeOfModule)),
        dft_(dft),
        modelElements_(modelElements),
        contexts_(contexts),
        opts_(opts),
        cache_(cache),
        symbols_(models_.front()->symbols()),
        state_(nodes_.size()),
        ownerOf_(models_.size()) {
    for (int n = 0; n <= root(); ++n)
      for (std::size_t m : nodes_[n].ownModels) ownerOf_[m] = n;
    // Static consumer lists: which original community models input which
    // action.
    for (std::size_t m = 0; m < models_.size(); ++m)
      for (ioimc::ActionId in : models_[m]->signature().inputs())
        consumers_[in].push_back(static_cast<std::uint32_t>(m));
  }

  /// Resolves cache splices (sequentially, on the calling thread), plans
  /// the symmetry buckets, then aggregates all remaining module tasks on
  /// EngineOptions::numThreads threads (the calling thread among them) and
  /// returns the root model, deterministic post-ordered stats, and whether
  /// the root model came out of a merge step at the root.  A failed task
  /// stops the others, and its exception is rethrown here.
  std::tuple<IOIMC, CompositionStats, bool> run() {
    resolveSplices();
    if (opts_.symmetry) planSymmetry();
    scheduleReadyTasks();
    runOnThreads(opts_.numThreads, numTasks_, [this] { workLoop(); });
    NodeState& top = state_[root()];
    return {std::move(*top.result), collectStats(), top.record.has_value()};
  }

 private:
  /// A module whose model this run does not aggregate, and where the model
  /// comes from.  None of the tasks of its subtree run.
  struct Reused {
    enum class From : char { Nowhere, Cache, Representative };
    From from = From::Nowhere;
    /// Steps the reuse avoided: as recorded with the cached model, or the
    /// representative's subtree steps.
    std::size_t savedSteps = 0;
    /// From::Representative: the action renaming of the representative's
    /// model into this module's.
    std::unordered_map<ioimc::ActionId, std::string> renaming;
  };

  /// Per-node state.  Each field of a node is written by one thread at a
  /// time: the planning on the calling thread, then the node's task (or
  /// its representative's, for a symmetric sibling); collectStats reads
  /// them after the helpers are joined.
  struct NodeState {
    std::optional<IOIMC> result;  ///< until the parent's task takes it
    std::vector<CompositionStep> steps;  ///< the node's own merges
    /// Its CompositionStats::modules entry: the aggregated model of a
    /// proper module (more than one model merged) or the reused model.
    std::optional<ModuleResult> record;
    Reused reuse;
    bool belowReuse = false;  ///< inside a reused node's subtree
    std::vector<int> siblings;  ///< a representative's symmetric siblings
    int pending = 0;  ///< unfinished children; mutex_-guarded
  };

  int root() const { return static_cast<int>(nodes_.size()) - 1; }

  /// A module whose reuse would save no composition.
  bool trivial(int n) const {
    return nodes_[n].children.empty() && nodes_[n].ownModels.size() <= 1;
  }

  bool reused(int n) const {
    return state_[n].reuse.from != Reused::From::Nowhere;
  }

  /// Whether community model \p m belongs to the subtree of \p node.
  bool ownedWithin(std::size_t m, int node) const {
    return nodes_[node].first <= ownerOf_[m] && ownerOf_[m] <= node;
  }

  bool usedOutsideSubtree(ioimc::ActionId action, int node) const {
    auto it = consumers_.find(action);
    if (it == consumers_.end()) return false;
    for (std::uint32_t m : it->second)
      if (!ownedWithin(m, node)) return true;
    return false;
  }

  /// Marks \p n reused and frees the community models of its subtree: they
  /// will never be composed and must not hold memory for the whole run
  /// (the static consumer lists were built from their signatures).
  void reuseSubtree(int n, Reused::From from) {
    state_[n].reuse.from = from;
    for (int d = nodes_[n].first; d <= n; ++d) {
      state_[d].belowReuse = d < n;
      for (std::size_t m : nodes_[d].ownModels) models_[m].reset();
    }
  }

  /// Consults the cache for every non-trivial child module, visiting the
  /// nodes in descending index order, which is the order of a LIFO walk
  /// from the root; a hit splices the child, and the walk skips its
  /// subtree (its tasks never run).
  void resolveSplices() {
    if (!cache_) return;
    for (int n = root(); n >= 0; --n) {
      if (reused(n)) {
        n = nodes_[n].first;
        continue;
      }
      for (int child : nodes_[n].children) {
        if (trivial(child)) continue;
        std::optional<CachedModule> hit =
            cache_->lookup(dft_, nodes_[child].info.root);
        if (!hit) continue;
        state_[child].record = ModuleResult{nodes_[child].name,
                                            hit->model.numStates(),
                                            hit->model.numTransitions()};
        state_[child].reuse.savedSteps = hit->steps;
        state_[child].result.emplace(std::move(hit->model));
        reuseSubtree(child, Reused::From::Cache);
      }
    }
  }

  // ---------------------------------------------------------------------
  // Symmetry reduction: one aggregation per module shape.
  // ---------------------------------------------------------------------

  /// Buckets the eligible module nodes by their rename-invariant shape
  /// (dft::moduleShape).  The first member of a bucket becomes its
  /// *representative* and is aggregated normally; every further member
  /// whose structure and induced action renaming pass the checks of
  /// planSiblingRenaming() is marked symmetric — its subtree is never
  /// scheduled, and its result is instantiated from the representative's
  /// via ioimc::renameActions when the representative completes.  Any
  /// check failure silently falls back to normal aggregation.
  void planSymmetry() {
    if (contexts_.empty()) return;
    std::unordered_map<std::string, int> repOfShape;
    std::unordered_map<int, dft::ModuleShape> shapeOf;
    // Walk larger modules first: when an outer sibling is reused, its inner
    // modules are marked before they are visited, so nested buckets never
    // overlap.  Nodes inside a spliced subtree never run; they must not
    // become representatives (their results would never materialize).
    for (std::size_t i = nodeOfModule_.size(); i-- > 0;) {
      const int node = nodeOfModule_[i];
      if (node == root() || reused(node) || state_[node].belowReuse ||
          trivial(node))
        continue;
      const dft::ElementId moduleRoot = nodes_[node].info.root;
      if (moduleRoot >= contexts_.size() || !contexts_[moduleRoot].alwaysActive)
        continue;  // context-dependent conversion; not reusable
      if (subtreeHasSplice(node)) continue;  // the cache already covers it
      dft::ModuleShape shape = dft::moduleShape(dft_, moduleRoot);
      auto [it, fresh] = repOfShape.try_emplace(shape.key, node);
      if (fresh) {
        shapeOf.emplace(node, std::move(shape));
        continue;
      }
      const int rep = it->second;
      std::optional<std::unordered_map<ioimc::ActionId, std::string>> renaming =
          planSiblingRenaming(rep, shapeOf.at(rep), node, shape);
      if (!renaming) continue;  // fall back to aggregating this module
      state_[rep].siblings.push_back(node);
      state_[node].reuse.renaming = std::move(*renaming);
      reuseSubtree(node, Reused::From::Representative);
    }
  }

  bool subtreeHasSplice(int node) const {
    for (int d = nodes_[node].first; d < node; ++d)
      if (state_[d].reuse.from == Reused::From::Cache) return true;
    return false;
  }

  /// All action ids appearing in the signatures of the node's subtree
  /// community models, sorted and deduplicated.  This over-approximates
  /// the action universe of every model the subtree's aggregation can
  /// produce (compose introduces no actions, hiding only changes roles,
  /// and the quotient adds only tau).
  std::vector<ioimc::ActionId> subtreeActions(int node) const {
    std::vector<ioimc::ActionId> acts;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      if (!models_[m] || !ownedWithin(m, node)) continue;
      const ioimc::Signature& s = models_[m]->signature();
      acts.insert(acts.end(), s.inputs().begin(), s.inputs().end());
      acts.insert(acts.end(), s.outputs().begin(), s.outputs().end());
      acts.insert(acts.end(), s.internals().begin(), s.internals().end());
    }
    std::sort(acts.begin(), acts.end());
    acts.erase(std::unique(acts.begin(), acts.end()), acts.end());
    return acts;
  }

  /// Verifies that the sibling's module subtree corresponds node-for-node
  /// and model-for-model to the representative's under the index-wise
  /// member substitution — same child order, same own-model element sets.
  /// Both subtrees are post-ordered index ranges, and a post-order
  /// sequence of child counts fixes the tree's shape, so the k-th nodes of
  /// the two ranges correspond.  Corresponding structures plus an
  /// order-preserving action map make the representative's aggregation
  /// *equivariant*: every ordering decision on the sibling's side mirrors
  /// the representative's, so the renamed result is bitwise what
  /// aggregating the sibling would have produced.
  bool structuresCorrespond(int rep, int sib) const {
    static constexpr dft::ElementId kNoElement =
        static_cast<dft::ElementId>(-1);
    const std::vector<dft::ElementId>& ma = nodes_[rep].info.members;
    const std::vector<dft::ElementId>& mb = nodes_[sib].info.members;
    if (ma.size() != mb.size()) return false;
    if (rep - nodes_[rep].first != sib - nodes_[sib].first) return false;
    std::vector<dft::ElementId> toSib(dft_.size(), kNoElement);
    for (std::size_t i = 0; i < ma.size(); ++i) toSib[ma[i]] = mb[i];
    for (int x = nodes_[rep].first, y = nodes_[sib].first; x <= rep;
         ++x, ++y) {
      const ModuleNode& nx = nodes_[x];
      const ModuleNode& ny = nodes_[y];
      if (toSib[nx.info.root] != ny.info.root) return false;
      if (nx.children.size() != ny.children.size()) return false;
      if (nx.ownModels.size() != ny.ownModels.size()) return false;
      for (std::size_t k = 0; k < nx.ownModels.size(); ++k) {
        std::vector<dft::ElementId> ea = modelElements_[nx.ownModels[k]];
        for (dft::ElementId& e : ea) {
          if (e >= toSib.size() || toSib[e] == kNoElement) return false;
          e = toSib[e];
        }
        std::sort(ea.begin(), ea.end());
        std::vector<dft::ElementId> eb = modelElements_[ny.ownModels[k]];
        std::sort(eb.begin(), eb.end());
        if (ea != eb) return false;
      }
    }
    return true;
  }

  /// Builds and validates the ActionId renaming that instantiates \p sib
  /// from \p rep: structures must correspond, the lifted name substitution
  /// must cover the representative's whole subtree action universe, its
  /// image must be exactly the sibling's universe, the id map must be
  /// strictly order-preserving (the bitwise-identity condition, see
  /// analysis/symmetry.hpp), and externally visible outputs must stay
  /// externally visible on both sides (equal hide sets).
  std::optional<std::unordered_map<ioimc::ActionId, std::string>>
  planSiblingRenaming(int rep, const dft::ModuleShape& repShape, int sib,
                      const dft::ModuleShape& sibShape) const {
    if (repShape.names.size() != sibShape.names.size()) return std::nullopt;
    if (!structuresCorrespond(rep, sib)) return std::nullopt;

    const dft::Dft repModule = dft::extractModule(dft_, nodes_[rep].info.root);
    std::optional<std::unordered_map<std::string, std::string>> lift =
        liftElementRenaming(repModule, repShape.names, sibShape.names);
    if (!lift) return std::nullopt;

    const SymbolTable& symbols = *symbols_;
    const std::vector<ioimc::ActionId> repActs = subtreeActions(rep);
    std::vector<ActionIdPair> pairs;
    pairs.reserve(repActs.size() + 1);
    for (ioimc::ActionId a : repActs) {
      auto it = lift->find(symbols.name(a));
      if (it == lift->end()) return std::nullopt;
      ioimc::ActionId to = symbols.find(it->second);
      if (to == SymbolTable::npos) return std::nullopt;
      pairs.emplace_back(a, to);
    }
    // In a warm session tau may already be interned between the two
    // modules' name blocks; it stays fixed, so it must not break the
    // order correspondence.  (Cold runs intern tau after every community
    // name, where it cannot interfere.)
    const ioimc::ActionId tau = symbols.find(ioimc::kTauName);
    if (tau != SymbolTable::npos) pairs.emplace_back(tau, tau);
    if (!orderPreserving(pairs)) return std::nullopt;

    // The image must be exactly the sibling's action universe.
    std::vector<ioimc::ActionId> image;
    image.reserve(repActs.size());
    for (const ActionIdPair& p : pairs)
      if (p.first != tau || tau == SymbolTable::npos) image.push_back(p.second);
    std::sort(image.begin(), image.end());
    if (image != subtreeActions(sib)) return std::nullopt;

    // Equal hide sets: an output consumed outside one subtree must map to
    // an output consumed outside the other, and vice versa.
    std::unordered_map<ioimc::ActionId, ioimc::ActionId> idMap(pairs.begin(),
                                                               pairs.end());
    for (std::size_t m = 0; m < models_.size(); ++m) {
      if (!models_[m] || !ownedWithin(m, rep)) continue;
      for (ioimc::ActionId out : models_[m]->signature().outputs())
        if (usedOutsideSubtree(out, rep) !=
            usedOutsideSubtree(idMap.at(out), sib))
          return std::nullopt;
    }

    std::unordered_map<ioimc::ActionId, std::string> renaming;
    for (const ActionIdPair& p : pairs)
      if (p.first != p.second) renaming.emplace(p.first, symbols.name(p.second));
    return renaming;
  }

  /// Instantiates every symmetric sibling of \p rep by renaming the
  /// representative's aggregated model (called right after the
  /// representative's task finishes, before its parent may consume it).
  /// The order-preserving rename makes each instance bitwise what
  /// aggregating the sibling would give, so it is offered to the cache
  /// under the sibling's own key, as a fresh aggregation would be.
  void instantiateSiblings(int rep) {
    const std::size_t steps = subtreeSteps(rep);
    for (int sib : state_[rep].siblings) {
      NodeState& s = state_[sib];
      IOIMC instance =
          ioimc::renameActions(*state_[rep].result, s.reuse.renaming);
      s.record = ModuleResult{nodes_[sib].name, instance.numStates(),
                              instance.numTransitions()};
      s.reuse.savedSteps = steps;
      if (cache_ && state_[rep].record)
        cache_->store(dft_, nodes_[sib].info.root, instance, steps);
      s.result.emplace(std::move(instance));
    }
  }

  /// Queues, in ascending index order, every task without an unfinished
  /// child: the leaf order of a depth-first walk.  Reused nodes carry
  /// results already or get them from their representative, and nothing
  /// below them runs.
  void scheduleReadyTasks() {
    for (int n = 0; n <= root(); ++n) {
      NodeState& s = state_[n];
      if (reused(n) || s.belowReuse) continue;
      ++numTasks_;
      for (int c : nodes_[n].children)
        if (state_[c].reuse.from != Reused::From::Cache) ++s.pending;
      if (s.pending == 0) ready_.push_back(n);
    }
  }

  /// Runs ready tasks until the root finished or a task failed; a failed
  /// task stops every loop and its exception leaves this one.
  void workLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
      if (stop_) return;
      const int node = ready_.front();
      ready_.pop_front();
      lock.unlock();
      std::exception_ptr error;
      try {
        runModuleTask(node);
        // Symmetric siblings are pure renames of this result; materialize
        // them before any parent (theirs or ours) can become ready.
        if (!state_[node].siblings.empty()) instantiateSiblings(node);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error || node == root()) {
        stop_ = true;
      } else if (!stop_) {
        auto childDone = [this](int parent) {
          if (--state_[parent].pending == 0) ready_.push_back(parent);
        };
        childDone(nodes_[node].parent);
        for (int sib : state_[node].siblings) childDone(nodes_[sib].parent);
      }
      cv_.notify_all();
      if (error) std::rethrow_exception(error);
    }
  }

  void runModuleTask(int nodeIdx) {
    const ModuleNode& node = nodes_[nodeIdx];
    NodeState& state = state_[nodeIdx];
    obs::TraceSpan span("module", node.name);
    std::vector<std::optional<IOIMC>> pool;
    std::vector<std::size_t> live;
    pool.reserve(node.ownModels.size() + node.children.size());
    for (std::size_t m : node.ownModels) {
      pool.emplace_back(std::move(models_[m]));
      live.push_back(pool.size() - 1);
    }
    for (int c : node.children) {
      pool.emplace_back(std::move(state_[c].result));
      state_[c].result.reset();
      live.push_back(pool.size() - 1);
    }
    const bool properModule = live.size() > 1;
    auto usedOutside = [this, nodeIdx](ioimc::ActionId a) {
      return usedOutsideSubtree(a, nodeIdx);
    };
    IOIMC& model = *pool[mergePool(pool, std::move(live), opts_, state.steps,
                                   usedOutside)];
    if (properModule) {
      state.record = ModuleResult{node.name, model.numStates(),
                                  model.numTransitions()};
      if (cache_ && nodeIdx != root())
        cache_->store(dft_, node.info.root, model, subtreeSteps(nodeIdx));
    }
    span.arg("states", model.numStates());
    span.arg("transitions", model.numTransitions());
    state.result.emplace(std::move(model));
  }

  /// Compose steps actually executed for this node's whole subtree (what a
  /// future cache hit on the module saves).  Reused nodes ran none.
  std::size_t subtreeSteps(int node) const {
    std::size_t steps = 0;
    for (int d = nodes_[node].first; d <= node; ++d)
      steps += state_[d].steps.size();
    return steps;
  }

  /// Concatenates per-node stats in ascending index order, the sequential
  /// engine's post-order.  A reused node holds its record and no steps,
  /// and no node below it holds either.
  CompositionStats collectStats() const {
    CompositionStats out;
    for (const NodeState& s : state_) {
      out.steps.insert(out.steps.end(), s.steps.begin(), s.steps.end());
      if (!s.siblings.empty()) ++out.symmetricBuckets;
      if (s.record) out.modules.push_back(*s.record);
      if (s.reuse.from == Reused::From::Cache) {
        ++out.cachedModules;
        out.stepsSaved += s.reuse.savedSteps;
      } else if (s.reuse.from == Reused::From::Representative) {
        ++out.symmetricModulesReused;
        out.symmetrySavedSteps += s.reuse.savedSteps;
      }
    }
    out.foldSteps();
    return out;
  }

  std::vector<std::optional<IOIMC>> models_;
  const std::vector<ModuleNode> nodes_;
  /// Node of each module, in ascending module size.
  const std::vector<int> nodeOfModule_;
  const dft::Dft& dft_;
  const std::vector<std::vector<dft::ElementId>>& modelElements_;
  const std::vector<ActivationContext>& contexts_;
  const EngineOptions& opts_;
  ModuleCache* cache_;
  /// The one table every community model interns in (compose() asserts
  /// as much).
  const ioimc::SymbolTablePtr symbols_;

  std::vector<NodeState> state_;
  std::vector<int> ownerOf_;  ///< community model -> node
  std::unordered_map<ioimc::ActionId, std::vector<std::uint32_t>> consumers_;

  std::size_t numTasks_ = 0;  ///< scheduled (non-reused) module tasks
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<int> ready_;
  bool stop_ = false;  ///< the root finished or a task failed
};

}  // namespace

EngineResult composeCommunity(Community community, const dft::Dft& dft,
                              const EngineOptions& opts, ModuleCache* cache) {
  require(!community.models.empty(), "composeCommunity: empty community");

  // Remember the element sets and activation contexts before taking the
  // models (the symmetry planner consults both).
  std::vector<std::vector<dft::ElementId>> modelElements;
  for (const CommunityModel& m : community.models)
    modelElements.push_back(m.elements);
  const std::vector<ActivationContext> contexts =
      std::move(community.contexts);
  std::vector<std::optional<IOIMC>> slots;
  slots.reserve(community.models.size());
  for (CommunityModel& m : community.models)
    slots.emplace_back(std::move(m.model));

  // A merge step hides every output nobody else consumes, collapses, and
  // aggregates to a canonically renumbered weak-bisimulation fixpoint.  When
  // the final merge left no output visible, its result is already the
  // closed minimal quotient: hide, collapse and aggregate would map it to
  // itself.  Only a model not closed that way (a lone community model, a
  // spliced module, or an Unreduced run) is finalized, also to a fixpoint,
  // so every result is minimal (the Analyzer's extraction relies on it).
  auto finishResult = [&](EngineResult result, bool merged) {
    if (merged && opts.reference != Reference::Unreduced &&
        result.model.signature().outputs().empty())
      return result;
    obs::TraceSpan span("finalize");
    result.model = ioimc::aggregateFixpoint(
        ioimc::collapseUnobservableSinks(ioimc::hideAllOutputs(result.model)),
        opts.weak);
    span.arg("states", result.model.numStates());
    return result;
  };

  if (opts.reference == Reference::DeclarationOrder) {
    CompositionStats stats;
    const std::size_t originalCount = slots.size();
    std::size_t acc = 0;
    for (std::size_t i = 1; i < originalCount; ++i) {
      std::vector<std::size_t> pair{acc, i};
      acc = mergePool(slots, std::move(pair), opts, stats.steps, nullptr);
    }
    stats.foldSteps();
    return finishResult(
        EngineResult{std::move(*slots[acc]), std::move(stats)},
        originalCount > 1);
  }

  // Build the module containment tree (modules sorted by size, so a
  // module's parent is the first later module that contains its root).
  std::optional<obs::TraceSpan> modularizeSpan;
  modularizeSpan.emplace("modularize");
  std::vector<ModuleNode> tree;
  for (dft::ModuleInfo& info : dft::independentModules(dft))
    tree.push_back({dft.element(info.root).name, std::move(info), {}, {}});
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const dft::ModuleInfo& inner = tree[i].info;
    for (std::size_t j = i + 1; j < tree.size(); ++j) {
      const dft::ModuleInfo& outer = tree[j].info;
      if (std::binary_search(outer.members.begin(), outer.members.end(),
                             inner.root) &&
          outer.root != inner.root) {
        tree[i].parent = static_cast<int>(j);
        tree[j].children.push_back(static_cast<int>(i));
        break;
      }
    }
  }
  // The root module (whole tree) is the largest one containing top.
  // Trees where an element below the top is also watched by a gate
  // outside the top's dependency closure have no independent module
  // around the top at all; their tree is one root node, named after the
  // top and without children, so the assignment below gives it every
  // community model and the merge planner folds them as one pool.
  modularizeSpan->arg("modules", tree.size());
  int rootModule = -1;
  for (std::size_t i = 0; i < tree.size(); ++i)
    if (tree[i].parent < 0 && std::binary_search(tree[i].info.members.begin(),
                                                 tree[i].info.members.end(),
                                                 dft.top()))
      rootModule = static_cast<int>(i);
  if (rootModule < 0) {
    tree.assign(1, {dft.element(dft.top()).name, {dft.top(), {}}, {}, {}});
    rootModule = 0;
  }
  // Any other parentless module hangs off the root (conservative).
  for (std::size_t i = 0; i < tree.size(); ++i)
    if (tree[i].parent < 0 && static_cast<int>(i) != rootModule)
      tree[rootModule].children.push_back(static_cast<int>(i));

  // Assign every community model to the smallest module containing all
  // the elements it involves (the lone root of a tree without a top
  // module contains nothing and takes them all).
  for (std::size_t m = 0; m < modelElements.size(); ++m) {
    const std::vector<dft::ElementId>& elements = modelElements[m];
    auto containsAll = [&](const ModuleNode& node) {
      const std::vector<dft::ElementId>& members = node.info.members;
      return std::all_of(elements.begin(), elements.end(), [&](auto e) {
        return std::binary_search(members.begin(), members.end(), e);
      });
    };
    // Modules are sorted by size: the first hit is the smallest.
    auto best = std::find_if(tree.begin(), tree.end(), containsAll);
    (best == tree.end() ? tree[rootModule] : *best).ownModels.push_back(m);
  }
  std::vector<int> nodeOfModule;
  std::vector<ModuleNode> nodes =
      numberPostOrder(std::move(tree), rootModule, nodeOfModule);
  modularizeSpan.reset();

  ModularAggregator aggregator(std::move(slots), std::move(nodes),
                               std::move(nodeOfModule), dft, modelElements,
                               contexts, opts, cache);
  auto [model, stats, merged] = aggregator.run();
  return finishResult(EngineResult{std::move(model), std::move(stats)},
                      merged);
}

}  // namespace imcdft::analysis
