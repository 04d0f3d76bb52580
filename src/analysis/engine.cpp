#include "analysis/engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "analysis/symmetry.hpp"
#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "dft/hash.hpp"
#include "dft/modules.hpp"
#include "ioimc/compose.hpp"
#include "ioimc/ops.hpp"
#include "ioimc/otf_compose.hpp"
#include "ioimc/signature_interner.hpp"
#include "obs/trace.hpp"

namespace imcdft::analysis {

using ioimc::IOIMC;


void CompositionStats::noteOnTheFlyFallbackReason(const std::string& reason) {
  if (onTheFlyFallbackReasons.size() >= 8) return;
  if (std::find(onTheFlyFallbackReasons.begin(), onTheFlyFallbackReasons.end(),
                reason) != onTheFlyFallbackReasons.end())
    return;
  onTheFlyFallbackReasons.push_back(reason);
}

namespace {

/// The outputs among \p outputs that are consumed neither by a live pool
/// member (other than the two operands) nor externally — what the step
/// hides right after composing.
std::vector<ioimc::ActionId> hiddenOutputsFor(
    const std::vector<ioimc::ActionId>& outputs,
    const std::vector<std::optional<IOIMC>>& pool, std::size_t skipA,
    std::size_t skipB, const std::function<bool(ioimc::ActionId)>& usedOutside) {
  std::vector<ioimc::ActionId> hidden;
  for (ioimc::ActionId out : outputs) {
    bool used = false;
    for (std::size_t i = 0; i < pool.size() && !used; ++i) {
      if (!pool[i] || i == skipA || i == skipB) continue;
      used = pool[i]->signature().isInput(out);
    }
    if (!used && usedOutside) used = usedOutside(out);
    if (!used) hidden.push_back(out);
  }
  return hidden;
}

/// Hides the outputs of \p m that are consumed neither by a live pool
/// member nor externally, then collapses/aggregates per the options.
IOIMC hideAndAggregatePool(
    IOIMC m, const EngineOptions& opts,
    const std::vector<std::optional<IOIMC>>& pool, std::size_t skipA,
    std::size_t skipB, const std::function<bool(ioimc::ActionId)>& usedOutside) {
  IOIMC result = ioimc::hide(
      m, hiddenOutputsFor(m.signature().outputs(), pool, skipA, skipB,
                          usedOutside));
  if (opts.collapseSinks) result = ioimc::collapseUnobservableSinks(result);
  // To fixpoint, not a single pass: the fused on-the-fly path and this
  // classic chain reach byte-identical results only in the *minimal*
  // quotient (both are canonically renumbered there).
  if (opts.aggregateEachStep)
    result = ioimc::aggregateFixpoint(result, opts.weak);
  return result;
}

/// Folds the per-step size maxima and on-the-fly counters into the stats.
void foldPeaks(CompositionStats& stats) {
  for (const CompositionStep& s : stats.steps) {
    stats.peakComposedStates =
        std::max(stats.peakComposedStates, s.composedStates);
    stats.peakComposedTransitions =
        std::max(stats.peakComposedTransitions, s.composedTransitions);
    stats.peakAggregatedStates =
        std::max(stats.peakAggregatedStates, s.aggregatedStates);
    stats.peakAggregatedTransitions =
        std::max(stats.peakAggregatedTransitions, s.aggregatedTransitions);
    if (s.onTheFly) {
      ++stats.onTheFlySteps;
      const std::size_t bound = s.leftStates * s.rightStates;
      if (bound > s.composedStates)
        stats.onTheFlySavedPeakStates += bound - s.composedStates;
    }
    if (s.onTheFlyFallback) {
      ++stats.onTheFlyFallbacks;
      stats.noteOnTheFlyFallbackReason(s.onTheFlyFallbackReason);
    }
    stats.otfRefinePassesRun += s.otfRefinePassesRun;
    stats.otfRefinePassesSkipped += s.otfRefinePassesSkipped;
    stats.otfIntraWorkers = std::max(stats.otfIntraWorkers, s.otfIntraWorkers);
  }
}

/// True when the two models share a synchronizing action.
bool synchronize(const IOIMC& a, const IOIMC& b) {
  const ioimc::Signature& sa = a.signature();
  const ioimc::Signature& sb = b.signature();
  auto anyShared = [](const std::vector<ioimc::ActionId>& xs,
                      const ioimc::Signature& other) {
    return std::any_of(xs.begin(), xs.end(), [&](ioimc::ActionId x) {
      return other.isInput(x) || other.isOutput(x);
    });
  };
  return anyShared(sa.outputs(), sb) || anyShared(sa.inputs(), sb);
}

/// Resolves a thread-count option: 0 means hardware concurrency.
unsigned resolveThreads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Greedily folds the live entries of \p pool into one model, recording
/// one CompositionStep per pairwise composition into \p steps.  The
/// cheapest synchronizing pair merges first; \p usedOutside reports
/// whether an output action has consumers beyond this pool (null = none).
std::size_t mergePool(std::vector<std::optional<IOIMC>>& pool,
                      std::vector<std::size_t> live,
                      const EngineOptions& opts,
                      std::vector<CompositionStep>& steps,
                      const std::function<bool(ioimc::ActionId)>& usedOutside) {
  require(!live.empty(), "composeCommunity: empty module pool");
  // One encoding pool shared by every fused step of this merge (partial
  // refinement and quotient tail alike), so repeated refinement passes
  // reuse the same worker threads instead of respawning them.  Sized by
  // EngineOptions::numThreads and created lazily: only once a step's
  // product bound is big enough that the parallel encode could engage.
  const unsigned encodeThreads = resolveThreads(opts.numThreads);
  std::unique_ptr<WorkerPool> encodePool;
  auto encodePoolFor = [&](std::size_t leftStates,
                           std::size_t rightStates) -> WorkerPool* {
    if (!encodePool && encodeThreads > 1 &&
        leftStates * rightStates >= ioimc::detail::kIntraParallelMinStates)
      encodePool = std::make_unique<WorkerPool>(encodeThreads);
    return encodePool.get();
  };

  while (live.size() > 1) {
    // One budget checkpoint per merge step: catches explosion between hot
    // loops (e.g. a pool whose pairwise products are individually cheap
    // but whose count is huge).  The live pool size is the step's peak
    // proxy; the finer-grained accounting happens inside compose / the
    // fused engine / the refinement loops, which all carry the same token.
    if (opts.cancel) opts.cancel->checkpoint("merge-step", live.size());
    std::size_t bestI = 0, bestJ = 1;
    double bestCost = std::numeric_limits<double>::infinity();
    bool bestSync = false;
    for (std::size_t i = 0; i < live.size(); ++i) {
      for (std::size_t j = i + 1; j < live.size(); ++j) {
        double cost = static_cast<double>(pool[live[i]]->numStates()) *
                      static_cast<double>(pool[live[j]]->numStates());
        bool sync = synchronize(*pool[live[i]], *pool[live[j]]);
        if ((sync && !bestSync) || (sync == bestSync && cost < bestCost)) {
          bestI = i;
          bestJ = j;
          bestCost = cost;
          bestSync = sync;
        }
      }
    }
    std::size_t a = live[bestI], b = live[bestJ];
    CompositionStep step;
    step.name = pool[a]->name() + " || " + pool[b]->name();
    step.leftStates = pool[a]->numStates();
    step.rightStates = pool[b]->numStates();
    obs::TraceSpan stepSpan("compose.step", step.name);
    stepSpan.arg("left_states", step.leftStates);
    stepSpan.arg("right_states", step.rightStates);
    std::optional<IOIMC> fused;
    if (opts.onTheFly && opts.aggregateEachStep) {
      // The composite's outputs (out(A) u out(B); shared outputs are
      // rejected by compose anyway) determine the hide set without
      // materializing the product.
      std::vector<ioimc::ActionId> outs = pool[a]->signature().outputs();
      const std::vector<ioimc::ActionId>& outsB =
          pool[b]->signature().outputs();
      outs.insert(outs.end(), outsB.begin(), outsB.end());
      std::sort(outs.begin(), outs.end());
      outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
      ioimc::otf::OtfOptions fusedOpts;
      fusedOpts.weak = opts.weak;
      fusedOpts.collapseSinks = opts.collapseSinks;
      fusedOpts.maxLiveStates = opts.onTheFlyMaxVisited;
      fusedOpts.refineCadence = opts.otfRefineCadence;
      fusedOpts.encodePool = fusedOpts.weak.encodePool =
          encodePoolFor(step.leftStates, step.rightStates);
      ioimc::otf::OtfResult r = ioimc::otf::otfComposeAggregate(
          *pool[a], *pool[b],
          hiddenOutputsFor(outs, pool, a, b, usedOutside), fusedOpts);
      if (r.ok) {
        step.onTheFly = true;
        step.composedStates = r.stats.peakLiveStates;
        step.composedTransitions = r.stats.peakLiveTransitions;
        step.otfRefinePassesRun = r.stats.refinementRounds;
        step.otfRefinePassesSkipped = r.stats.refinePassesSkipped;
        step.otfIntraWorkers = r.stats.intraWorkers;
        step.otfExpandSeconds = r.stats.expandSeconds;
        step.otfRefineSeconds = r.stats.refineSeconds;
        step.otfCollapseSeconds = r.stats.collapseSeconds;
        step.otfRenumberSeconds = r.stats.renumberSeconds;
        fused.emplace(std::move(*r.model));
      } else {
        step.onTheFlyFallback = true;
        step.onTheFlyFallbackReason = std::move(r.failureReason);
        obs::traceInstant("otf-fallback", step.onTheFlyFallbackReason);
      }
    }
    IOIMC result = [&] {
      if (fused) return std::move(*fused);
      IOIMC composed = ioimc::compose(*pool[a], *pool[b], opts.cancel.get());
      step.composedStates = composed.numStates();
      step.composedTransitions = composed.numTransitions();
      return hideAndAggregatePool(std::move(composed), opts, pool, a, b,
                                  usedOutside);
    }();
    step.aggregatedStates = result.numStates();
    step.aggregatedTransitions = result.numTransitions();
    stepSpan.arg("aggregated_states", step.aggregatedStates);
    stepSpan.arg("otf", step.onTheFly ? 1 : 0);
    steps.push_back(std::move(step));
    pool[a].reset();
    pool[b].reset();
    pool.emplace_back(std::move(result));
    live.erase(live.begin() + bestJ);
    live.erase(live.begin() + bestI);
    live.push_back(pool.size() - 1);
  }
  return live.front();
}

/// Node of the module containment tree used by the Modular strategy.
struct ModuleNode {
  std::string name;
  std::vector<std::size_t> ownModels;     // community model indices
  std::vector<std::size_t> childModules;  // indices into the node array
};

/// Parallel aggregation of the module containment tree: one task per
/// module node, executed once all child modules finished, on a small
/// worker pool.  Tasks share no mutable state — every node folds its own
/// community models plus its children's aggregated results, and the
/// question "is this output consumed outside the pool?" is answered from
/// the *static* input sets of the original community models outside the
/// node's subtree (a composite consumes an input action iff one of its
/// members did, so the static answer equals the sequential engine's scan
/// over live slots).  Results are therefore bitwise identical for every
/// thread count.
class ModularAggregator {
 public:
  ModularAggregator(std::vector<std::optional<IOIMC>> models,
                    std::vector<ModuleNode> nodes, int rootNode,
                    const std::vector<dft::ModuleInfo>& modules,
                    std::vector<int> parentOf, const dft::Dft& dft,
                    const std::vector<std::vector<dft::ElementId>>& modelElements,
                    const std::vector<ActivationContext>& contexts,
                    const EngineOptions& opts, ModuleCache* cache)
      : models_(std::move(models)),
        nodes_(std::move(nodes)),
        parentOf_(std::move(parentOf)),
        rootNode_(rootNode),
        modules_(modules),
        dft_(dft),
        modelElements_(modelElements),
        contexts_(contexts),
        opts_(opts),
        cache_(cache) {
    const std::size_t numNodes = nodes_.size();
    spliced_.assign(numNodes, false);
    spliceRecord_.resize(numNodes);
    spliceSavedSteps_.assign(numNodes, 0);
    results_.resize(numNodes);
    stats_.resize(numNodes);
    moduleRecord_.resize(numNodes);
    properModule_.assign(numNodes, 0);
    pending_.assign(numNodes, 0);
    symmetric_.assign(numNodes, 0);
    symRepOf_.assign(numNodes, -1);
    symSiblingsOf_.resize(numNodes);
    symRenaming_.resize(numNodes);
    symRecord_.resize(numNodes);
    buildSubtreeMembership();
  }

  /// Resolves cache splices (sequentially, on the calling thread), plans
  /// the symmetry buckets, then aggregates all remaining module tasks on
  /// \p numThreads workers and returns the root model plus deterministic,
  /// post-ordered stats.
  std::pair<IOIMC, CompositionStats> run(unsigned numThreads) {
    resolveSplices(rootNode_);
    if (opts_.symmetry) planSymmetry();
    scheduleReadyTasks();
    runWorkers(numThreads);
    if (firstError_) std::rethrow_exception(firstError_);

    CompositionStats stats;
    stats.symmetricBuckets = symmetricBuckets_;
    collectStats(rootNode_, stats);
    foldPeaks(stats);
    return {std::move(*results_[rootNode_]), std::move(stats)};
  }

 private:
  /// models_ index sets of each node's subtree (own models + descendants),
  /// used for the static "consumed outside this subtree?" test.
  void buildSubtreeMembership() {
    inSubtree_.assign(nodes_.size(),
                      std::vector<char>(models_.size(), 0));
    // Children have larger module indices than parents is not guaranteed;
    // do an explicit post-order walk.
    struct Frame {
      int node;
      std::size_t child = 0;
    };
    std::vector<Frame> stack{{rootNode_, 0}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.child < nodes_[f.node].childModules.size()) {
        stack.push_back({static_cast<int>(nodes_[f.node].childModules[f.child++]), 0});
        continue;
      }
      std::vector<char>& mine = inSubtree_[f.node];
      for (std::size_t m : nodes_[f.node].ownModels) mine[m] = 1;
      for (std::size_t c : nodes_[f.node].childModules)
        for (std::size_t m = 0; m < models_.size(); ++m)
          if (inSubtree_[c][m]) mine[m] = 1;
      stack.pop_back();
    }
    // Static consumer lists: which original community models input which
    // action.
    for (std::size_t m = 0; m < models_.size(); ++m)
      for (ioimc::ActionId in : models_[m]->signature().inputs())
        consumers_[in].push_back(static_cast<std::uint32_t>(m));
  }

  bool usedOutsideSubtree(ioimc::ActionId action, int node) const {
    auto it = consumers_.find(action);
    if (it == consumers_.end()) return false;
    const std::vector<char>& mine = inSubtree_[node];
    for (std::uint32_t m : it->second)
      if (!mine[m]) return true;
    return false;
  }

  /// Walks the tree in the sequential engine's order, consulting the cache
  /// for every non-trivial child module; a hit marks the whole child
  /// subtree spliced (its tasks never run).
  void resolveSplices(int root) {
    std::vector<int> pendingNodes{root};
    while (!pendingNodes.empty()) {
      int node = pendingNodes.back();
      pendingNodes.pop_back();
      for (std::size_t childIdx : nodes_[node].childModules) {
        int child = static_cast<int>(childIdx);
        const ModuleNode& childNode = nodes_[child];
        const bool trivial =
            childNode.childModules.empty() && childNode.ownModels.size() <= 1;
        if (cache_ && !trivial) {
          if (std::optional<CachedModule> hit =
                  cache_->lookup(dft_, modules_[child].root)) {
            spliced_[child] = true;
            spliceRecord_[child] = ModuleResult{childNode.name,
                                                hit->model.numStates(),
                                                hit->model.numTransitions()};
            spliceSavedSteps_[child] = hit->steps;
            results_[child].emplace(std::move(hit->model));
            releaseSubtreeModels(child);
            continue;
          }
        }
        pendingNodes.push_back(child);
      }
    }
  }

  /// Frees the community models of a spliced-away subtree: they will
  /// never be composed and must not hold memory for the whole run (the
  /// static consumer lists were built from their signatures beforehand).
  void releaseSubtreeModels(int root) {
    std::vector<int> pendingNodes{root};
    while (!pendingNodes.empty()) {
      int node = pendingNodes.back();
      pendingNodes.pop_back();
      for (std::size_t m : nodes_[node].ownModels) models_[m].reset();
      for (std::size_t c : nodes_[node].childModules)
        pendingNodes.push_back(static_cast<int>(c));
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
    std::vector<char> absorbed(nodes_.size(), 0);
    // Nodes inside a spliced subtree never run; they must not become
    // representatives (their results would never materialize).
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      if (spliced_[i]) absorbSubtree(static_cast<int>(i), absorbed);
    std::unordered_map<std::string, int> repOfShape;
    std::unordered_map<int, dft::ModuleShape> shapeOf;
    // Walk larger modules first (node indices ascend with module size):
    // when an outer sibling is absorbed, its inner modules are marked
    // before they are visited, so nested buckets never overlap.
    for (int node = static_cast<int>(nodes_.size()) - 1; node >= 0; --node) {
      if (node == rootNode_ || spliced_[node] || absorbed[node]) continue;
      const ModuleNode& n = nodes_[node];
      if (n.childModules.empty() && n.ownModels.size() <= 1)
        continue;  // trivial: reuse would not save any composition
      const dft::ElementId moduleRoot = modules_[node].root;
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
      symmetric_[node] = 1;
      symRepOf_[node] = rep;
      symSiblingsOf_[rep].push_back(node);
      symRenaming_[node] = std::move(*renaming);
      absorbSubtree(node, absorbed);
      releaseSubtreeModels(node);
    }
    for (const std::vector<int>& siblings : symSiblingsOf_)
      if (!siblings.empty()) ++symmetricBuckets_;
  }

  void absorbSubtree(int root, std::vector<char>& absorbed) const {
    std::vector<int> stack{root};
    while (!stack.empty()) {
      int node = stack.back();
      stack.pop_back();
      absorbed[node] = 1;
      for (std::size_t c : nodes_[node].childModules)
        stack.push_back(static_cast<int>(c));
    }
  }

  bool subtreeHasSplice(int root) const {
    std::vector<int> stack{root};
    while (!stack.empty()) {
      int node = stack.back();
      stack.pop_back();
      for (std::size_t c : nodes_[node].childModules) {
        if (spliced_[c]) return true;
        stack.push_back(static_cast<int>(c));
      }
    }
    return false;
  }

  /// All action ids appearing in the signatures of the node's subtree
  /// community models, sorted and deduplicated.  This over-approximates
  /// the action universe of every model the subtree's aggregation can
  /// produce (compose introduces no actions, hiding only changes roles,
  /// and the quotient adds only tau).
  std::vector<ioimc::ActionId> subtreeActions(int node) const {
    std::vector<ioimc::ActionId> acts;
    const std::vector<char>& mine = inSubtree_[node];
    for (std::size_t m = 0; m < models_.size(); ++m) {
      if (!mine[m] || !models_[m]) continue;
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
  /// Corresponding structures plus an order-preserving action map make the
  /// representative's aggregation *equivariant*: every ordering decision
  /// on the sibling's side mirrors the representative's, so the renamed
  /// result is bitwise what aggregating the sibling would have produced.
  bool structuresCorrespond(int rep, int sib) const {
    static constexpr dft::ElementId kNoElement =
        static_cast<dft::ElementId>(-1);
    const std::vector<dft::ElementId>& ma = modules_[rep].members;
    const std::vector<dft::ElementId>& mb = modules_[sib].members;
    if (ma.size() != mb.size()) return false;
    std::vector<dft::ElementId> toSib(dft_.size(), kNoElement);
    for (std::size_t i = 0; i < ma.size(); ++i) toSib[ma[i]] = mb[i];
    std::vector<std::pair<int, int>> stack{{rep, sib}};
    while (!stack.empty()) {
      auto [x, y] = stack.back();
      stack.pop_back();
      if (toSib[modules_[x].root] != modules_[y].root) return false;
      const ModuleNode& nx = nodes_[x];
      const ModuleNode& ny = nodes_[y];
      if (nx.childModules.size() != ny.childModules.size()) return false;
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
      for (std::size_t c = 0; c < nx.childModules.size(); ++c)
        stack.push_back({static_cast<int>(nx.childModules[c]),
                         static_cast<int>(ny.childModules[c])});
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

    const dft::Dft repModule = dft::extractModule(dft_, modules_[rep].root);
    std::optional<std::unordered_map<std::string, std::string>> lift =
        liftElementRenaming(repModule, repShape.names, sibShape.names);
    if (!lift) return std::nullopt;

    const SymbolTable& symbols = *symbolTable();
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
    const std::vector<char>& mine = inSubtree_[rep];
    for (std::size_t m = 0; m < models_.size(); ++m) {
      if (!mine[m] || !models_[m]) continue;
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

  /// The shared symbol table (every community model interns in one table;
  /// compose() asserts as much).
  const ioimc::SymbolTablePtr& symbolTable() const {
    for (const std::optional<IOIMC>& m : models_)
      if (m) return m->symbols();
    for (const std::optional<IOIMC>& r : results_)
      if (r) return r->symbols();
    throw ModelError("composeCommunity: no model left to take symbols from");
  }

  /// Instantiates every symmetric sibling of \p rep by renaming the
  /// representative's aggregated model (called right after the
  /// representative's task finishes, before its parent may consume it).
  void instantiateSiblings(int rep) {
    for (int sib : symSiblingsOf_[rep]) {
      IOIMC instance =
          ioimc::renameActions(*results_[rep], symRenaming_[sib]);
      symRecord_[sib] = ModuleResult{nodes_[sib].name, instance.numStates(),
                                     instance.numTransitions()};
      results_[sib].emplace(std::move(instance));
    }
  }

  int liveChildren(int node) const {
    int count = 0;
    for (std::size_t c : nodes_[node].childModules)
      if (!spliced_[c]) ++count;
    return count;
  }

  void scheduleReadyTasks() {
    struct Frame {
      int node;
      std::size_t child = 0;
    };
    std::vector<Frame> stack{{rootNode_, 0}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      const ModuleNode& node = nodes_[f.node];
      if (f.child == 0) {
        ++numTasks_;
        int live = liveChildren(f.node);
        pending_[f.node] = live;
        if (live == 0) ready_.push_back(f.node);
      }
      if (f.child < node.childModules.size()) {
        int child = static_cast<int>(node.childModules[f.child++]);
        // Spliced children already carry results; symmetric children are
        // instantiated when their representative finishes — neither
        // subtree gets tasks of its own.
        if (!spliced_[child] && !symmetric_[child])
          stack.push_back({child, 0});
        continue;
      }
      stack.pop_back();
    }
  }

  void runWorkers(unsigned numThreads) {
    // More workers than module tasks would only block on the condition
    // variable and be joined again; a small tree gets a small pool.
    numThreads =
        static_cast<unsigned>(std::min<std::size_t>(numThreads, numTasks_));
    if (numThreads <= 1) {
      while (!ready_.empty() && !firstError_) {
        int node = ready_.front();
        ready_.pop_front();
        runTask(node);
      }
      return;
    }
    std::vector<std::thread> workers;
    auto workerLoop = [this] {
      // Module-task spans of this worker land in the submitting request's
      // trace group (the context was captured at aggregator construction).
      obs::ScopedTraceContext ctxGuard(traceCtx_);
      std::unique_lock<std::mutex> lock(mutex_);
      while (true) {
        cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
        if (stop_ || ready_.empty()) return;  // error, completion, or drained
        int node = ready_.front();
        ready_.pop_front();
        lock.unlock();
        runTask(node);
        lock.lock();
      }
    };
    workers.reserve(numThreads);
    for (unsigned i = 0; i < numThreads; ++i)
      workers.emplace_back(workerLoop);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return done_ || firstError_ != nullptr; });
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers) w.join();
  }

  void runTask(int node) {
    try {
      runModuleTask(node);
      // Symmetric siblings are pure renames of this result; materialize
      // them before any parent (theirs or ours) can become ready.
      if (!symSiblingsOf_[node].empty()) instantiateSiblings(node);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!firstError_) firstError_ = std::current_exception();
      stop_ = true;
      cv_.notify_all();
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (node == rootNode_) {
      done_ = true;
      stop_ = true;
    } else if (!stop_) {
      int parent = parentOf_[node];
      if (--pending_[parent] == 0) ready_.push_back(parent);
      for (int sib : symSiblingsOf_[node]) {
        int sibParent = parentOf_[sib];
        if (--pending_[sibParent] == 0) ready_.push_back(sibParent);
      }
    }
    cv_.notify_all();
  }

  void runModuleTask(int nodeIdx) {
    const ModuleNode& node = nodes_[nodeIdx];
    obs::TraceSpan span("module", node.name);
    std::vector<std::optional<IOIMC>> pool;
    std::vector<std::size_t> live;
    pool.reserve(node.ownModels.size() + node.childModules.size());
    for (std::size_t m : node.ownModels) {
      pool.emplace_back(std::move(models_[m]));
      live.push_back(pool.size() - 1);
    }
    for (std::size_t c : node.childModules) {
      pool.emplace_back(std::move(results_[c]));
      results_[c].reset();
      live.push_back(pool.size() - 1);
    }
    const bool properModule = live.size() > 1;
    properModule_[nodeIdx] = properModule ? 1 : 0;
    auto usedOutside = [this, nodeIdx](ioimc::ActionId a) {
      return usedOutsideSubtree(a, nodeIdx);
    };
    std::size_t merged =
        mergePool(pool, std::move(live), opts_, stats_[nodeIdx], usedOutside);
    if (properModule)
      moduleRecord_[nodeIdx] = ModuleResult{node.name,
                                            pool[merged]->numStates(),
                                            pool[merged]->numTransitions()};
    if (cache_ && properModule && nodeIdx != rootNode_)
      cache_->store(dft_, modules_[nodeIdx].root, *pool[merged],
                    subtreeSteps(nodeIdx));
    span.arg("states", pool[merged]->numStates());
    span.arg("transitions", pool[merged]->numTransitions());
    results_[nodeIdx].emplace(std::move(*pool[merged]));
  }

  /// Compose steps actually executed for this node's whole subtree (what a
  /// future cache hit on the module saves).
  std::size_t subtreeSteps(int root) const {
    std::size_t steps = 0;
    std::vector<int> pendingNodes{root};
    while (!pendingNodes.empty()) {
      int node = pendingNodes.back();
      pendingNodes.pop_back();
      steps += stats_[node].size();
      for (std::size_t c : nodes_[node].childModules)
        if (!spliced_[c]) pendingNodes.push_back(static_cast<int>(c));
    }
    return steps;
  }

  /// Concatenates per-node stats in the sequential engine's post-order.
  void collectStats(int root, CompositionStats& out) const {
    struct Frame {
      int node;
      std::size_t child = 0;
    };
    std::vector<Frame> stack{{root, 0}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      const std::vector<std::size_t>& children = nodes_[f.node].childModules;
      if (f.child < children.size()) {
        int child = static_cast<int>(children[f.child++]);
        if (spliced_[child]) {
          out.modules.push_back(spliceRecord_[child]);
          ++out.cachedModules;
          out.stepsSaved += spliceSavedSteps_[child];
        } else if (symmetric_[child]) {
          out.modules.push_back(symRecord_[child]);
          ++out.symmetricModulesReused;
          out.symmetrySavedSteps += subtreeSteps(symRepOf_[child]);
        } else {
          stack.push_back({child, 0});
        }
        continue;
      }
      out.steps.insert(out.steps.end(), stats_[f.node].begin(),
                       stats_[f.node].end());
      if (properModule_[f.node]) out.modules.push_back(moduleRecord_[f.node]);
      stack.pop_back();
    }
  }

  std::vector<std::optional<IOIMC>> models_;
  std::vector<ModuleNode> nodes_;
  std::vector<int> parentOf_;
  int rootNode_;
  const std::vector<dft::ModuleInfo>& modules_;
  const dft::Dft& dft_;
  const std::vector<std::vector<dft::ElementId>>& modelElements_;
  const std::vector<ActivationContext>& contexts_;
  const EngineOptions& opts_;
  ModuleCache* cache_;

  std::vector<std::vector<char>> inSubtree_;
  std::unordered_map<ioimc::ActionId, std::vector<std::uint32_t>> consumers_;

  std::vector<bool> spliced_;
  std::vector<ModuleResult> spliceRecord_;
  std::vector<std::size_t> spliceSavedSteps_;
  std::vector<std::optional<IOIMC>> results_;
  std::vector<std::vector<CompositionStep>> stats_;
  std::vector<ModuleResult> moduleRecord_;
  std::vector<char> properModule_;  ///< char: workers write concurrently
  std::vector<int> pending_;  ///< unfinished children; mutex_-guarded

  /// Symmetry plan (fixed before scheduling; only symRecord_ is written
  /// later, by the representative's worker, before any reader can run).
  std::vector<char> symmetric_;  ///< instantiated from a representative
  std::vector<int> symRepOf_;    ///< sibling -> its bucket representative
  std::vector<std::vector<int>> symSiblingsOf_;  ///< representative -> siblings
  std::vector<std::unordered_map<ioimc::ActionId, std::string>> symRenaming_;
  std::vector<ModuleResult> symRecord_;
  std::size_t symmetricBuckets_ = 0;

  std::size_t numTasks_ = 0;  ///< scheduled (non-spliced) module tasks
  /// The submitting request's trace context, re-established in workers.
  const std::uint64_t traceCtx_ = obs::currentTraceContext();
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<int> ready_;
  bool stop_ = false;
  bool done_ = false;
  std::exception_ptr firstError_;
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

  auto finishResult = [&](EngineResult result) {
    obs::TraceSpan span("finalize");
    result.model = ioimc::hideAllOutputs(result.model);
    if (opts.collapseSinks)
      result.model = ioimc::collapseUnobservableSinks(result.model);
    result.model = ioimc::aggregate(result.model, opts.weak);
    span.arg("states", result.model.numStates());
    return result;
  };

  auto sequentialMerge = [&](std::vector<std::size_t> live) {
    CompositionStats stats;
    std::size_t finalIdx =
        mergePool(slots, std::move(live), opts, stats.steps, nullptr);
    foldPeaks(stats);
    return EngineResult{std::move(*slots[finalIdx]), std::move(stats)};
  };

  if (opts.strategy != CompositionStrategy::Modular) {
    std::vector<std::size_t> live(slots.size());
    for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
    if (opts.strategy == CompositionStrategy::Declaration) {
      CompositionStats stats;
      const std::size_t originalCount = slots.size();
      std::size_t acc = 0;
      for (std::size_t i = 1; i < originalCount; ++i) {
        std::vector<std::size_t> pair{acc, i};
        acc = mergePool(slots, std::move(pair), opts, stats.steps, nullptr);
      }
      foldPeaks(stats);
      return finishResult(
          EngineResult{std::move(*slots[acc]), std::move(stats)});
    }
    return finishResult(sequentialMerge(std::move(live)));
  }

  // Build the module containment tree (modules sorted by size, so a
  // module's parent is the first later module that contains its root).
  std::optional<obs::TraceSpan> modularizeSpan;
  modularizeSpan.emplace("modularize");
  std::vector<dft::ModuleInfo> modules = dft::independentModules(dft);
  std::vector<ModuleNode> nodes(modules.size());
  std::vector<int> parent(modules.size(), -1);
  for (std::size_t i = 0; i < modules.size(); ++i) {
    nodes[i].name = dft.element(modules[i].root).name;
    for (std::size_t j = i + 1; j < modules.size(); ++j) {
      if (std::binary_search(modules[j].members.begin(),
                             modules[j].members.end(), modules[i].root) &&
          modules[j].root != modules[i].root) {
        parent[i] = static_cast<int>(j);
        break;
      }
    }
    if (parent[i] >= 0)
      nodes[parent[i]].childModules.push_back(i);
  }
  // The root module (whole tree) is the largest one containing top.
  // Trees where an element below the top is also watched by a gate
  // outside the top's dependency closure have no independent module
  // around the top at all; fall back to plain greedy composition then.
  int rootNode = -1;
  for (std::size_t i = 0; i < modules.size(); ++i)
    if (parent[i] < 0 && std::binary_search(modules[i].members.begin(),
                                            modules[i].members.end(),
                                            dft.top()))
      rootNode = static_cast<int>(i);
  if (rootNode < 0) {
    std::vector<std::size_t> live(slots.size());
    for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
    return finishResult(sequentialMerge(std::move(live)));
  }
  // Any other parentless module hangs off the root (conservative).
  for (std::size_t i = 0; i < modules.size(); ++i)
    if (parent[i] < 0 && static_cast<int>(i) != rootNode) {
      parent[i] = rootNode;
      nodes[rootNode].childModules.push_back(i);
    }

  // Assign every community model to the smallest module containing all
  // the elements it involves.
  for (std::size_t m = 0; m < modelElements.size(); ++m) {
    int best = rootNode;
    for (std::size_t i = 0; i < modules.size(); ++i) {
      bool containsAll = std::all_of(
          modelElements[m].begin(), modelElements[m].end(),
          [&](dft::ElementId e) {
            return std::binary_search(modules[i].members.begin(),
                                      modules[i].members.end(), e);
          });
      if (containsAll) {
        best = static_cast<int>(i);
        break;  // modules are sorted by size: first hit is smallest
      }
    }
    nodes[best].ownModels.push_back(m);
  }

  modularizeSpan->arg("modules", modules.size());
  modularizeSpan.reset();

  ModularAggregator aggregator(std::move(slots), std::move(nodes), rootNode,
                               modules, std::move(parent), dft, modelElements,
                               contexts, opts, cache);
  auto [model, stats] = aggregator.run(resolveThreads(opts.numThreads));
  return finishResult(EngineResult{std::move(model), std::move(stats)});
}

}  // namespace imcdft::analysis
