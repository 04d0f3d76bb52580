#include "analysis/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/static_combine.hpp"
#include "analysis/symmetry.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ctmc/mttf.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "dft/galileo.hpp"
#include "dft/hash.hpp"
#include "dft/modules.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/quotient_store.hpp"

namespace imcdft::analysis {

namespace {

using Clock = std::chrono::steady_clock;

/// The absorbed extraction of a closed engine result, which is already a
/// minimal quotient.  Making the down states absorbing changes nothing when
/// none of them has an outgoing transition, and aggregate() maps a minimal
/// quotient to itself, so such a model goes straight to extract().  Only
/// when repairs lead out of a down state is the absorbed model aggregated
/// again (it usually shrinks).
Extraction absorbedExtraction(const ioimc::IOIMC& closed,
                              const ioimc::WeakOptions& weak) {
  const int down = closed.labelIndex(kDownLabel);
  bool downHasBehaviour = down < 0;  // makeLabelAbsorbing reports the error
  for (ioimc::StateId s = 0; s < closed.numStates() && !downHasBehaviour; ++s)
    downHasBehaviour = closed.hasLabel(s, down) &&
                       (!closed.interactive(s).empty() ||
                        !closed.markovian(s).empty());
  if (!downHasBehaviour) return extract(closed, kDownLabel);
  return extract(
      ioimc::aggregate(ioimc::makeLabelAbsorbing(closed, kDownLabel), weak),
      kDownLabel);
}

/// Auto-assigned request/trace ids (AnalysisRequest::requestId == 0).
std::uint64_t nextRequestId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Mirrors one finished request's scattered counters into the central
/// metrics registry.  Runs unconditionally (a handful of relaxed atomic
/// adds; measure-neutral by construction, like the tracing dead branch).
void publishRequestMetrics(const AnalysisReport& report, double wallSeconds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  static obs::Counter& requests = reg.counter("analyzer.requests");
  static obs::Counter& treeHits = reg.counter("analyzer.cache.tree_hits");
  static obs::Counter& treeMisses = reg.counter("analyzer.cache.tree_misses");
  static obs::Counter& moduleHits = reg.counter("analyzer.cache.module_hits");
  static obs::Counter& moduleMisses =
      reg.counter("analyzer.cache.module_misses");
  static obs::Counter& stepsRun = reg.counter("engine.steps_run");
  static obs::Counter& stepsSaved = reg.counter("engine.steps_saved");
  static obs::Counter& storeHits = reg.counter("store.hits");
  static obs::Counter& storeMisses = reg.counter("store.misses");
  static obs::Counter& storeWrites = reg.counter("store.writes");
  static obs::Counter& storeErrors = reg.counter("store.errors");
  static obs::Counter& inflightJoins = reg.counter("analyzer.inflight_joins");
  static obs::Counter& evictions = reg.counter("analyzer.cache.evictions");
  static obs::Counter& refineRun = reg.counter("otf.refine_passes_run");
  static obs::Counter& measuresOk = reg.counter("analyzer.measures_ok");
  static obs::Counter& measuresFailed =
      reg.counter("analyzer.measures_failed");
  static obs::Gauge& peakStates = reg.gauge("engine.peak_aggregated_states");
  static obs::Histogram& wall = reg.histogram("analyzer.request_nanos");
  requests.add();
  treeHits.add(report.cache.treeHits);
  treeMisses.add(report.cache.treeMisses);
  moduleHits.add(report.cache.moduleHits);
  moduleMisses.add(report.cache.moduleMisses);
  stepsRun.add(report.cache.stepsRun);
  stepsSaved.add(report.cache.stepsSaved);
  storeHits.add(report.cache.storeHits);
  storeMisses.add(report.cache.storeMisses);
  storeWrites.add(report.cache.storeWrites);
  storeErrors.add(report.cache.storeErrors);
  inflightJoins.add(report.cache.inflightJoins);
  evictions.add(report.cache.treeEvictions + report.cache.moduleEvictions +
                report.cache.chainEvictions + report.cache.curveEvictions);
  refineRun.add(report.cache.otfRefinePassesRun);
  for (const MeasureResult& m : report.measures)
    (m.ok ? measuresOk : measuresFailed).add();
  if (report.analysis)
    peakStates.atLeast(report.stats().peakAggregatedStates);
  wall.record(static_cast<std::uint64_t>(wallSeconds * 1e9));
}

/// Serialization of every option that influences the composed model (or
/// its reported statistics, which symmetry changes); part of both cache
/// keys.  EngineOptions::storeDir is deliberately absent: a store hit is
/// bitwise identical to cold aggregation, so the same analysis keyed with
/// and without a store must share cache entries (and store records written
/// by a session with one store directory stay valid for every other).
std::string optionsKey(const AnalysisOptions& opts) {
  std::string key = "sg=";
  key += opts.conversion.subsetGates ? '1' : '0';
  key += ";st=";
  key += std::to_string(static_cast<int>(opts.engine.strategy));
  key += ";ae=";
  key += opts.engine.aggregateEachStep ? '1' : '0';
  key += ";cs=";
  key += opts.engine.collapseSinks ? '1' : '0';
  key += ";ou=";
  key += opts.engine.weak.outputsUrgent ? '1' : '0';
  key += ";sy=";
  key += opts.engine.symmetry ? '1' : '0';
  // The fused engine is built to be bit-identical to the classic path, but
  // its stats (peaks, fused-step counters) differ — and fallback behavior
  // may evolve — so cached analyses are keyed per path.  The live-state
  // cap changes which steps fall back (and hence the cached stats and
  // diagnostics), so it is part of the key too.
  key += ";ot=";
  key += opts.engine.onTheFly ? '1' : '0';
  key += ";oc=";
  key += std::to_string(opts.engine.onTheFlyMaxVisited);
  // numThreads is deliberately absent: it is bit-identical for every
  // value.
  return key;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Exact serialization of a time grid (hexfloat: no rounding collisions);
/// the curve-cache key suffix.
std::string gridKey(const std::vector<double>& times) {
  std::string key;
  char buf[40];
  for (double t : times) {
    std::snprintf(buf, sizeof buf, "%a,", t);
    key += buf;
  }
  return key;
}

/// The numeric path's per-module fingerprint: rename-invariant shape under
/// symmetry (isomorphic siblings share one solved chain and one curve),
/// exact module key otherwise — mirroring the module cache's keying.
std::string chainKey(const dft::Dft& tree, dft::ElementId root,
                     const AnalysisOptions& opts, const std::string& optsKey) {
  std::string k;
  if (opts.engine.symmetry) {
    k = "shape\x1f";
    k += dft::moduleShape(tree, root).key;
  } else {
    k = dft::moduleKey(tree, root);
  }
  k += '\x1f';
  k += optsKey;
  return k;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

const Extraction& fullExtraction(const DftAnalysis& analysis) {
  require(!analysis.staticCombo,
          "fullExtraction: not available under static combination (the "
          "joint model was never built); rerun with "
          "EngineOptions::staticCombine off");
  // Concurrent sessions share one DftAnalysis; the memo is installed with
  // a first-write-wins CAS.  Racing threads compute identical extractions
  // (the pipeline is deterministic), so whichever pointer lands is correct
  // and, being immutable afterwards, safe to return by reference.
  auto memo = std::atomic_load_explicit(&analysis.fullMemo,
                                        std::memory_order_acquire);
  if (!memo) {
    Extraction full = extract(analysis.closedModel, kDownLabel);
    require(full.deterministic,
            "unavailability: the model is nondeterministic; no "
            "scheduler-free answer exists");
    auto fresh = std::make_shared<const Extraction>(std::move(full));
    std::shared_ptr<const Extraction> expected;
    if (std::atomic_compare_exchange_strong(&analysis.fullMemo, &expected,
                                            fresh))
      memo = std::move(fresh);
    else
      memo = std::move(expected);
  }
  return *memo;
}

const char* measureKindName(MeasureKind kind) {
  switch (kind) {
    case MeasureKind::Unreliability: return "unreliability";
    case MeasureKind::UnreliabilityBounds: return "unreliability-bounds";
    case MeasureKind::Unavailability: return "unavailability";
    case MeasureKind::SteadyStateUnavailability:
      return "steady-state-unavailability";
    case MeasureKind::Mttf: return "mttf";
  }
  return "?";
}

/// The engine-facing adapter around the session's module cache and the
/// persistent store.  Only always-active modules are cacheable: a module
/// activated from outside (it is somebody's spare) converts to different
/// elementary models depending on that outside context, which the module
/// key cannot see.  Independence guarantees everything else — no element
/// below the module root is referenced from outside it, so the key (the
/// canonical fingerprint of the module's sub-tree) determines the
/// aggregated model.
///
/// With symmetric keying (EngineOptions::symmetry) the fingerprint is the
/// rename-invariant shape instead, and each entry records the concrete
/// name basis it was stored under.  A hit whose names differ from the
/// entry's instantiates the stored model via ioimc::renameActions; the
/// induced ActionId map must cover the model and be injective (see
/// analysis/symmetry.hpp) or the lookup counts as a miss and the module
/// aggregates normally.
///
/// Lookup order is memory, then store: a store hit deserializes the module
/// quotient into the session symbol table, promotes it into the in-memory
/// LRU, and then behaves exactly like a session hit (including the
/// rename-instantiation path).  Freshly aggregated modules are published
/// back to the store.
///
/// Thread safety: lookup() runs on this request's calling thread (per the
/// ModuleCache contract) and may write the request's CacheStats directly;
/// store() runs on engine worker threads and accumulates its counters in
/// atomics, folded into the request stats by foldInto() after the engine
/// returns.
class Analyzer::SessionModuleCache : public ModuleCache {
 public:
  SessionModuleCache(Analyzer& owner, const std::vector<ActivationContext>& ctx,
                     std::string optsKey, bool shapeKeyed,
                     CacheStats& requestStats,
                     std::shared_ptr<store::QuotientStore> store)
      : owner_(owner),
        contexts_(ctx),
        optsKey_(std::move(optsKey)),
        shapeKeyed_(shapeKeyed),
        stats_(requestStats),
        store_(std::move(store)) {}

  std::optional<CachedModule> lookup(const dft::Dft& dft,
                                     dft::ElementId root) override {
    if (!cacheable(root)) return std::nullopt;
    dft::ModuleShape shape;
    const std::string k = key(dft, root, shape);
    std::shared_ptr<const ModuleEntry> entry;
    if (std::optional<std::shared_ptr<const ModuleEntry>> hit =
            owner_.modules_.get(k))
      entry = std::move(*hit);
    if (!entry && store_) {
      if (std::optional<store::QuotientStore::LoadedModule> loaded =
              store_->loadModule(k, owner_.symbols_)) {
        entry = std::make_shared<const ModuleEntry>(
            ModuleEntry{std::move(loaded->model), loaded->steps,
                        std::move(loaded->names)});
        ++stats_.storeHits;
        stats_.moduleEvictions += owner_.modules_.put(k, entry);
      } else {
        ++stats_.storeMisses;
      }
    }
    if (!entry) {
      ++stats_.moduleMisses;
      obs::traceInstant("module-cache", dft.element(root).name, {{"hit", 0}});
      return std::nullopt;
    }
    if (!shapeKeyed_ || entry->names == shape.names) {
      ++stats_.moduleHits;
      obs::traceInstant("module-cache", dft.element(root).name, {{"hit", 1}});
      return CachedModule{entry->model, entry->steps};
    }
    // Same shape, different names: instantiate the stored model under the
    // lifted substitution.  Cross-request reuse only needs an injective,
    // complete map — the instance is isomorphic to what aggregating this
    // module would produce, so all measures agree exactly.
    std::optional<ioimc::IOIMC> instance =
        renamedInstance(dft, root, shape, *entry);
    if (!instance) {
      ++stats_.moduleMisses;
      return std::nullopt;
    }
    ++stats_.moduleHits;
    return CachedModule{std::move(*instance), entry->steps};
  }

  void store(const dft::Dft& dft, dft::ElementId root,
             const ioimc::IOIMC& model, std::size_t steps) override {
    if (!cacheable(root)) return;
    dft::ModuleShape shape;
    std::string k = key(dft, root, shape);
    if (store_ && store_->storeModule(k, model, steps, shape.names))
      storeWrites_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t evicted = owner_.modules_.put(
        std::move(k), std::make_shared<const ModuleEntry>(
                          ModuleEntry{model, steps, std::move(shape.names)}));
    moduleEvictions_.fetch_add(evicted, std::memory_order_relaxed);
  }

  /// Folds the worker-thread counters into the request's stats; call after
  /// composeCommunity() has returned (no store() can still be running).
  void foldInto(CacheStats& stats) const {
    stats.storeWrites += storeWrites_.load(std::memory_order_relaxed);
    stats.moduleEvictions += moduleEvictions_.load(std::memory_order_relaxed);
  }

 private:
  bool cacheable(dft::ElementId root) const {
    return root < contexts_.size() && contexts_[root].alwaysActive;
  }
  /// Builds the cache key; under shape keying \p shape receives the
  /// computed shape (key and name basis) as a side product.
  std::string key(const dft::Dft& dft, dft::ElementId root,
                  dft::ModuleShape& shape) const {
    std::string k;
    if (shapeKeyed_) {
      shape = dft::moduleShape(dft, root);
      k = "shape\x1f";
      k += shape.key;
    } else {
      k = dft::moduleKey(dft, root);
    }
    k += '\x1f';
    k += optsKey_;
    return k;
  }

  std::optional<ioimc::IOIMC> renamedInstance(const dft::Dft& dft,
                                              dft::ElementId root,
                                              const dft::ModuleShape& shape,
                                              const ModuleEntry& entry) const {
    const dft::Dft module = dft::extractModule(dft, root);
    std::optional<std::unordered_map<std::string, std::string>> lift =
        liftElementRenaming(module, entry.names, shape.names);
    if (!lift) return std::nullopt;
    std::optional<std::unordered_map<ioimc::ActionId, std::string>> renaming =
        modelRenaming(entry.model, *lift);
    if (!renaming) return std::nullopt;
    return ioimc::renameActions(entry.model, *renaming);
  }

  Analyzer& owner_;
  const std::vector<ActivationContext>& contexts_;
  std::string optsKey_;
  const bool shapeKeyed_;
  CacheStats& stats_;
  std::shared_ptr<store::QuotientStore> store_;
  /// Worker-thread counters (store() side); see foldInto().
  std::atomic<std::size_t> storeWrites_{0};
  std::atomic<std::size_t> moduleEvictions_{0};
};

Analyzer::Analyzer(AnalyzerOptions opts)
    : opts_(opts),
      symbols_(ioimc::makeSymbolTable()),
      trees_(opts.maxCachedTrees),
      modules_(opts.maxCachedModules),
      chains_(opts.maxCachedModules),
      curves_(opts.maxCachedCurves) {}

Analyzer::~Analyzer() = default;

CacheStats Analyzer::cacheStats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return sessionStats_;
}

void Analyzer::clearCache() {
  trees_.clear();
  modules_.clear();
  chains_.clear();
  curves_.clear();
}

std::shared_ptr<store::QuotientStore> Analyzer::openStore(
    const std::string& dir, std::vector<Diagnostic>& diagnostics) {
  if (dir.empty()) return nullptr;
  std::lock_guard<std::mutex> lock(storesMutex_);
  auto it = stores_.find(dir);
  if (it != stores_.end()) return it->second;
  std::shared_ptr<store::QuotientStore> handle;
  try {
    handle = store::QuotientStore::open(dir);
  } catch (const Error& e) {
    // Soft: the session keeps serving without persistence.  Remembered as
    // disabled so a long-lived service warns once, not once per request.
    diagnostics.push_back(
        {Severity::Warning,
         std::string("quotient store disabled: ") + e.what()});
  }
  stores_.emplace(dir, handle);
  return handle;
}

std::shared_ptr<const DftAnalysis> Analyzer::runNumericPipeline(
    const dft::Dft& tree, const dft::StaticLayer& layer,
    const AnalysisOptions& opts, CacheStats& requestStats,
    std::vector<Diagnostic>& diagnostics,
    const std::shared_ptr<store::QuotientStore>& store) {
  obs::TraceSpan span("numeric-combine");
  // Belt and suspenders: the layer's structural checks already imply that
  // every frontier module is always active (its only referencers are the
  // layer's static gates), but the conversion's activation analysis is the
  // authority — disagree and we fall back.
  const std::vector<ActivationContext> contexts = activationContexts(tree);
  for (dft::ElementId root : layer.moduleRoots) {
    if (root >= contexts.size() || !contexts[root].alwaysActive) {
      diagnostics.push_back(
          {Severity::Info,
           "static combination disabled: module '" +
               tree.element(root).name + "' is not always active"});
      return nullptr;
    }
  }

  const std::string optsKey_ = optionsKey(opts);
  const bool useChainCache = opts_.cacheModules;
  std::vector<StaticCombination::SolvedChain> solved;
  std::vector<NumericModule> modules;
  std::vector<std::size_t> solvedSteps;          // per solved chain
  std::vector<std::size_t> membersOfChain;       // bucket sizes
  std::unordered_map<std::string, std::size_t> localIndex;
  CompositionStats stats;

  for (dft::ElementId root : layer.moduleRoots) {
    const std::string key = chainKey(tree, root, opts, optsKey_);
    std::size_t index;
    auto local = localIndex.find(key);
    if (local != localIndex.end()) {
      // Symmetric sibling within this request: one curve for free.
      index = local->second;
      ++membersOfChain[index];
      ++stats.symmetricModulesReused;
      stats.symmetrySavedSteps += solvedSteps[index];
    } else {
      std::shared_ptr<const DftAnalysis> sub;
      std::size_t steps = 0;
      if (useChainCache) {
        if (std::optional<ChainEntry> hit = chains_.get(key)) {
          sub = std::move(hit->analysis);
          steps = hit->steps;
          ++requestStats.moduleHits;
          ++stats.cachedModules;
          stats.stepsSaved += steps;
          requestStats.stepsSaved += steps;
        }
      }
      if (!sub) {
        ++requestStats.moduleMisses;
        const dft::Dft moduleDft = dft::extractModule(tree, root);
        sub = runPipeline(moduleDft, opts, requestStats, store);
        if (sub->nondeterministic) {
          diagnostics.push_back(
              {Severity::Warning,
               "static combination fell back to full composition: module '" +
                   tree.element(root).name +
                   "' is nondeterministic (FDEP-induced simultaneity, "
                   "Section 4.4)"});
          return nullptr;
        }
        steps = sub->stats.steps.size();
        // The per-module pipelines' steps are the only compositions that
        // happen at all; the step-derived fields are folded from them once,
        // below.
        stats.steps.insert(stats.steps.end(), sub->stats.steps.begin(),
                           sub->stats.steps.end());
        stats.cachedModules += sub->stats.cachedModules;
        stats.stepsSaved += sub->stats.stepsSaved;
        stats.symmetricBuckets += sub->stats.symmetricBuckets;
        stats.symmetricModulesReused += sub->stats.symmetricModulesReused;
        stats.symmetrySavedSteps += sub->stats.symmetrySavedSteps;
        if (useChainCache)
          requestStats.chainEvictions += chains_.put(key, ChainEntry{sub, steps});
      }
      index = solved.size();
      solved.push_back({key, std::move(sub)});
      solvedSteps.push_back(steps);
      membersOfChain.push_back(1);
      localIndex.emplace(key, index);
    }
    const DftAnalysis& chain = *solved[index].analysis;
    modules.push_back(NumericModule{tree.element(root).name, index,
                                    chain.closedModel.numStates(),
                                    chain.closedModel.numTransitions()});
  }
  stats.foldSteps();
  for (std::size_t members : membersOfChain)
    if (members >= 2) ++stats.symmetricBuckets;
  for (const NumericModule& m : modules)
    stats.modules.push_back(ModuleResult{m.name, m.states, m.transitions});

  // The placeholder model keeps DftAnalysis well-formed (exports and state
  // counts read 1 state, 0 transitions); every measure evaluates through
  // staticCombo instead.
  std::vector<std::vector<ioimc::InteractiveTransition>> inter(1);
  std::vector<std::vector<ioimc::MarkovianTransition>> markov(1);
  ioimc::IOIMC placeholder("static-combination", symbols_, ioimc::Signature{},
                           0, std::move(inter), std::move(markov), {0}, {});
  DftAnalysis result{std::move(placeholder),
                     std::move(stats),
                     Extraction{},
                     /*nondeterministic=*/false,
                     /*repairable=*/false,
                     nullptr,
                     std::make_shared<StaticCombination>(
                         tree, layer, std::move(solved), std::move(modules))};
  return std::make_shared<DftAnalysis>(std::move(result));
}

std::vector<double> Analyzer::cachedCurve(
    const StaticCombination& combo, std::size_t chainIndex,
    const std::vector<double>& times,
    const std::shared_ptr<store::QuotientStore>& store, CacheStats& stats,
    const CancelToken* cancel) {
  if (!opts_.cacheModules) return combo.solveCurve(chainIndex, times, cancel);
  std::string key = combo.chains()[chainIndex].key;
  key += '\x1f';
  key += gridKey(times);
  if (std::optional<std::vector<double>> hit = curves_.get(key))
    return std::move(*hit);
  if (store) {
    if (std::optional<std::vector<double>> loaded = store->loadCurve(key)) {
      ++stats.storeHits;
      stats.curveEvictions += curves_.put(std::move(key), *loaded);
      return std::move(*loaded);
    }
    ++stats.storeMisses;
  }
  std::vector<double> curve = combo.solveCurve(chainIndex, times, cancel);
  if (store && store->storeCurve(key, curve)) ++stats.storeWrites;
  stats.curveEvictions += curves_.put(std::move(key), curve);
  return curve;
}

std::shared_ptr<const DftAnalysis> Analyzer::runPipeline(
    const dft::Dft& tree, const AnalysisOptions& opts,
    CacheStats& requestStats,
    const std::shared_ptr<store::QuotientStore>& store) {
  ConversionOptions conversion = opts.conversion;
  const bool customSymbols =
      conversion.symbols && conversion.symbols != symbols_;
  if (!conversion.symbols) conversion.symbols = symbols_;

  std::optional<obs::TraceSpan> span;
  span.emplace("convert");
  Community community = convertDft(tree, conversion);
  span->arg("models", community.models.size());
  span.reset();
  const bool repairable = community.repairable;
  // Keep the activation contexts alive past the move of the community into
  // the engine: the module-cache hook consults them for cacheability.
  const std::vector<ActivationContext> contexts = community.contexts;

  span.emplace("compose");
  // Cached module models are interned in the session table; a community
  // built over a caller-supplied table cannot exchange models with them.
  const bool useModuleCache =
      opts_.cacheModules && !customSymbols &&
      opts.engine.strategy == CompositionStrategy::Modular;
  SessionModuleCache moduleCache(*this, contexts, optionsKey(opts),
                                 /*shapeKeyed=*/opts.engine.symmetry,
                                 requestStats,
                                 useModuleCache ? store : nullptr);
  EngineResult engine =
      composeCommunity(std::move(community), tree, opts.engine,
                       useModuleCache ? &moduleCache : nullptr);
  moduleCache.foldInto(requestStats);
  span->arg("steps", engine.stats.steps.size());
  span->arg("states", engine.model.numStates());
  span.reset();
  requestStats.stepsRun += engine.stats.steps.size();
  requestStats.stepsSaved += engine.stats.stepsSaved;
  requestStats.otfRefinePassesRun += engine.stats.otfRefinePassesRun;

  span.emplace("extract");
  Extraction absorbed = absorbedExtraction(engine.model, opts.engine.weak);
  span.reset();

  DftAnalysis result{std::move(engine.model), std::move(engine.stats),
                     std::move(absorbed), false, repairable, nullptr,
                     nullptr};
  result.nondeterministic = !result.absorbed.deterministic;
  return std::make_shared<DftAnalysis>(std::move(result));
}

AnalysisReport Analyzer::analyze(const AnalysisRequest& request) {
  AnalysisReport report;
  report.label = request.label;
  report.requestId =
      request.requestId != 0 ? request.requestId : nextRequestId();

  // Every span this request emits (including those from engine worker
  // threads, which re-establish the context) carries the request id as its
  // trace context; the Chrome export groups them into one per-request
  // track.  The context guard outlives the request span (declared first).
  const Clock::time_point requestStart = Clock::now();
  obs::ScopedTraceContext traceCtx(report.requestId);
  obs::TraceSpan requestSpan("request", request.label);

  // --- Resolve the DFT source. ---
  std::optional<dft::Dft> parsed;
  const dft::Dft* tree = nullptr;
  {
    obs::TraceSpan parseSpan("parse");
    switch (request.source) {
      case AnalysisRequest::Source::InMemory:
        require(request.tree.has_value(),
                "AnalysisRequest: in-memory request without a tree");
        tree = &*request.tree;
        break;
      case AnalysisRequest::Source::GalileoText:
        parsed = dft::parseGalileo(request.galileo);
        tree = &*parsed;
        break;
      case AnalysisRequest::Source::GalileoFile:
        parsed = dft::parseGalileo(readFile(request.galileo));
        tree = &*parsed;
        break;
    }
  }

  // --- Resource budget. ---
  // A limited request gets a CancelToken wired through the engine options
  // into every hot loop (merge steps, product expansion, refinement
  // passes, the OTF frontier, uniformization sweeps).  The options *copy*
  // carries the token; the cache keys below are computed from the same
  // options and are budget-blind by construction (optionsKey never
  // serializes the token), so budgeted and unbudgeted requests share the
  // tree cache — a budget decides whether an answer is produced, never
  // which answer.
  AnalysisOptions options = request.options;
  std::shared_ptr<CancelToken> cancel;
  if (request.budget.limited()) {
    cancel = std::make_shared<CancelToken>();
    if (request.budget.deadlineSeconds > 0.0)
      cancel->limitDeadline(request.budget.deadlineSeconds);
    if (request.budget.maxLiveStates > 0)
      cancel->limitLiveStates(request.budget.maxLiveStates);
    if (request.budget.maxMemoryBytes > 0)
      cancel->limitMemoryBytes(request.budget.maxMemoryBytes);
    if (request.budget.maxCheckpoints > 0)
      cancel->limitCheckpoints(request.budget.maxCheckpoints);
    options.engine.cancel = cancel;
    options.engine.weak.cancel = cancel.get();
  }

  // --- Whole-tree cache lookup / pipeline run. ---
  std::string treeKey = dft::canonicalKey(*tree);
  report.treeHash = dft::fnv1a(treeKey);
  treeKey += '\x1f';
  treeKey += optionsKey(options);

  // Requests with their own symbol table are served one-shot: every cached
  // model (and every model a cached DftAnalysis holds) is interned in the
  // session table, which is not the table such a request asked for.  The
  // persistent store deserializes into the session table too, so it is
  // gated the same way.
  const bool sessionSymbols = !options.conversion.symbols ||
                              options.conversion.symbols == symbols_;
  const bool useTreeCache = opts_.cacheTrees && sessionSymbols;

  // Static-layer numeric combination (EngineOptions::staticCombine): only
  // unreliability-kind measures can be read off per-module curves, so any
  // other requested measure routes to the full composition pipeline — and
  // the tree-cache key records which kind of analysis is stored (";nc=").
  // A numeric-kind request probes the numeric key first and the full key
  // second (a full analysis answers unreliability too, and an ineligible
  // or fallen-back tree is stored under the full key); other requests
  // probe only the full key.  Layer detection itself — a structural walk
  // over the whole tree — runs only on a cache miss.
  const bool wantNumeric =
      options.engine.staticCombine && sessionSymbols &&
      options.engine.strategy == CompositionStrategy::Modular &&
      !request.measures.empty() &&
      std::all_of(request.measures.begin(), request.measures.end(),
                  [](const MeasureSpec& m) {
                    return m.kind == MeasureKind::Unreliability ||
                           m.kind == MeasureKind::UnreliabilityBounds;
                  });
  const std::string fullKey = treeKey + ";nc=0";
  const std::string numericKey = treeKey + ";nc=1";

  const std::shared_ptr<store::QuotientStore> storeHandle =
      sessionSymbols ? openStore(options.engine.storeDir, report.diagnostics)
                     : nullptr;

  auto probeTreeCache = [&]() -> std::shared_ptr<const DftAnalysis> {
    if (!useTreeCache) return nullptr;
    if (wantNumeric)
      if (std::optional<std::shared_ptr<const DftAnalysis>> hit =
              trees_.get(numericKey))
        return *hit;
    if (std::optional<std::shared_ptr<const DftAnalysis>> hit =
            trees_.get(fullKey))
      return *hit;
    return nullptr;
  };
  auto noteTreeHit = [&]() {
    report.fromCache = true;
    ++report.cache.treeHits;
    obs::traceInstant("tree-cache", request.label, {{"hit", 1}});
    report.diagnostics.push_back(
        {Severity::Info, "composition served from the whole-tree cache"});
  };

  std::shared_ptr<const DftAnalysis> analysis = probeTreeCache();
  if (analysis) noteTreeHit();

  // --- In-flight dedup. ---
  // The first concurrent request for a fingerprint becomes the leader and
  // aggregates; identical requests arriving while it runs join its future
  // instead of aggregating again.  The wantNumeric flag is part of the
  // flight key because the two request kinds build different analyses.
  // Budgeted requests never lead or join a flight with differently (or un-)
  // budgeted ones: a joiner inherits the leader's exception, and a leader
  // whose budget trips mid-aggregation would fail joiners who asked for no
  // limit at all.  Identically budgeted concurrent requests still dedup.
  std::string flightKey = treeKey + (wantNumeric ? ";wn=1" : ";wn=0");
  if (request.budget.limited()) {
    const Budget& b = request.budget;
    flightKey += ";bg=" + std::to_string(b.deadlineSeconds) + ',' +
                 std::to_string(b.maxLiveStates) + ',' +
                 std::to_string(b.maxMemoryBytes) + ',' +
                 std::to_string(b.maxCheckpoints);
  }
  bool leader = false;
  std::promise<std::shared_ptr<const DftAnalysis>> flightPromise;
  std::shared_future<std::shared_ptr<const DftAnalysis>> flight;
  if (!analysis && useTreeCache) {
    std::unique_lock<std::mutex> lock(inflightMutex_);
    auto it = inflight_.find(flightKey);
    if (it != inflight_.end()) {
      flight = it->second;
    } else {
      // Double-check the tree cache under the flight lock: a leader may
      // have finished (published and left the map) between our first probe
      // and here.
      analysis = probeTreeCache();
      if (analysis) {
        noteTreeHit();
      } else {
        flight = flightPromise.get_future().share();
        inflight_.emplace(flightKey, flight);
        leader = true;
      }
    }
    lock.unlock();
    if (!leader && !analysis) {
      // Joiner: block on the leader's aggregation (its exception, if any,
      // rethrows here — identical input, identical failure).
      analysis = flight.get();
      report.fromCache = true;
      ++report.cache.inflightJoins;
      report.diagnostics.push_back(
          {Severity::Info,
           "served from an in-flight aggregation of a concurrent identical "
           "request"});
    }
  }

  if (!analysis) {
    std::string storeKey = fullKey;
    try {
      ++report.cache.treeMisses;
      obs::traceInstant("tree-cache", request.label, {{"hit", 0}});
      if (wantNumeric) {
        dft::StaticLayer layer = dft::detectStaticLayer(*tree);
        if (layer.eligible) {
          analysis =
              runNumericPipeline(*tree, layer, options, report.cache,
                                 report.diagnostics, storeHandle);
          if (analysis) storeKey = numericKey;
          // Null = a module was nondeterministic (Warning already
          // attached); the fallen-back full analysis lands under fullKey.
        } else {
          report.diagnostics.push_back(
              {Severity::Info,
               "static combination not applicable: " + layer.reason});
        }
      }
      bool fresh = false;
      if (!analysis && storeHandle) {
        // Whole-tree store probe: a hit skips conversion and composition
        // entirely; only the extraction tail runs on the already-aggregated
        // quotient.  Numeric-path analyses are never persisted whole-tree
        // (their value lives in module and curve records), so the probe is
        // for the full key.  The probe is timed as an extract span.
        obs::TraceSpan extractSpan("extract");
        if (std::optional<store::QuotientStore::LoadedTree> loaded =
                storeHandle->loadTree(fullKey, symbols_)) {
          Extraction absorbed =
              absorbedExtraction(loaded->model, options.engine.weak);
          DftAnalysis rebuilt{std::move(loaded->model), CompositionStats{},
                              std::move(absorbed), false, loaded->repairable,
                              nullptr, nullptr};
          rebuilt.nondeterministic = !rebuilt.absorbed.deterministic;
          analysis = std::make_shared<DftAnalysis>(std::move(rebuilt));
          ++report.cache.storeHits;
          obs::traceInstant("store-probe", request.label, {{"hit", 1}});
          report.diagnostics.push_back(
              {Severity::Info,
               "whole-tree quotient served from the persistent store "
               "(composition skipped)"});
        } else {
          ++report.cache.storeMisses;
          obs::traceInstant("store-probe", request.label, {{"hit", 0}});
        }
      }
      if (!analysis) {
        analysis = runPipeline(*tree, options, report.cache, storeHandle);
        fresh = true;
      }
      if (report.cache.moduleHits > 0)
        report.diagnostics.push_back(
            {Severity::Info,
             std::to_string(report.cache.moduleHits) +
                 " module(s) spliced from the session cache, saving " +
                 std::to_string(report.cache.stepsSaved) +
                 " composition step(s)"});
      if (analysis->stats.symmetricModulesReused > 0)
        report.diagnostics.push_back(
            {Severity::Info,
             std::to_string(analysis->stats.symmetricModulesReused) +
                 " symmetric module(s) instantiated by renaming (" +
                 std::to_string(analysis->stats.symmetricBuckets) +
                 " shape bucket(s)), saving " +
                 std::to_string(analysis->stats.symmetrySavedSteps) +
                 " composition step(s)"});
      if (analysis->stats.onTheFlySteps > 0)
        report.diagnostics.push_back(
            {Severity::Info,
             std::to_string(analysis->stats.onTheFlySteps) +
                 " composition step(s) ran fused (on-the-fly), keeping at "
                 "least " +
                 std::to_string(analysis->stats.onTheFlySavedPeakStates) +
                 " product state(s) below the materialization bound"});
      if (analysis->stats.onTheFlyFallbacks > 0) {
        std::string why;
        for (const std::string& reason :
             analysis->stats.onTheFlyFallbackReasons) {
          if (!why.empty()) why += "; ";
          why += reason;
        }
        report.diagnostics.push_back(
            {Severity::Warning,
             "on-the-fly composition fell back to the classic path for " +
                 std::to_string(analysis->stats.onTheFlyFallbacks) +
                 " step(s): " + why});
      }
      // Publish the freshly composed whole-tree quotient to the store.
      // Store-loaded and numeric analyses are skipped: the former's record
      // already exists, the latter is served by module/curve records.
      if (fresh && storeHandle && !analysis->staticCombo) {
        if (storeHandle->storeTree(fullKey, analysis->closedModel,
                                   analysis->repairable))
          ++report.cache.storeWrites;
      }
      if (useTreeCache)
        report.cache.treeEvictions +=
            trees_.put(std::move(storeKey), analysis);
    } catch (...) {
      if (leader) {
        flightPromise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(inflightMutex_);
        inflight_.erase(flightKey);
      }
      throw;
    }
    if (leader) {
      flightPromise.set_value(analysis);
      std::lock_guard<std::mutex> lock(inflightMutex_);
      inflight_.erase(flightKey);
    }
  }
  report.analysis = analysis;
  if (analysis->staticCombo)
    report.diagnostics.push_back(
        {Severity::Info, analysis->staticCombo->summary()});

  // --- Evaluate the measures. ---
  // Numeric-path curves are served through the session curve cache, so a
  // batch over symmetric or repeated grids solves each distinct chain once.
  auto numericCurve = [&](const std::vector<double>& times) {
    return analysis->staticCombo->evaluate(
        times, [&](std::size_t index, const std::vector<double>& ts) {
          return cachedCurve(*analysis->staticCombo, index, ts, storeHandle,
                             report.cache, cancel.get());
        });
  };
  // Every solver of a budgeted request checkpoints once per iteration
  // (null token = zero overhead).
  ctmc::TransientOptions solveOpts;
  solveOpts.cancel = cancel.get();
  ctmdp::ReachabilityOptions boundsOpts;
  boundsOpts.cancel = cancel.get();
  ctmc::SteadyStateOptions steadyOpts;
  steadyOpts.cancel = cancel.get();
  auto warn = [&](const std::string& message) {
    report.diagnostics.push_back({Severity::Warning, message});
  };
  auto fail = [&](MeasureResult& r, const std::string& message) {
    r.ok = false;
    r.error = message;
    report.diagnostics.push_back(
        {Severity::Error,
         std::string(measureKindName(r.spec.kind)) + ": " + message});
  };
  auto requireGrid = [&](MeasureResult& r) {
    if (!r.spec.times.empty()) return true;
    fail(r, "empty time grid");
    return false;
  };

  // A budget trip during measure evaluation degrades, it does not fail:
  // the analysis itself (cached or fresh) is already paid for, so the
  // measures solved before the trip stay in the report, the tripped and
  // remaining measures are marked failed, and a Warning flags the report
  // as partial.  Contrast with a trip during aggregation, which unwinds
  // analyze() entirely (there is no analysis to report measures against).
  bool budgetSpent = false;
  for (const MeasureSpec& spec : request.measures) {
    obs::TraceSpan measureSpan("measure", measureKindName(spec.kind));
    measureSpan.arg("points", spec.times.size());
    MeasureResult r;
    r.spec = spec;
    r.ok = true;
    if (budgetSpent) {
      r.ok = false;
      r.error = "skipped: resource budget exhausted by an earlier measure";
      report.measures.push_back(std::move(r));
      continue;
    }
    try {
      switch (spec.kind) {
        case MeasureKind::Unreliability:
          if (!requireGrid(r)) break;
          if (analysis->staticCombo) {
            r.values = numericCurve(spec.times);
          } else if (analysis->nondeterministic) {
            r.boundsSubstituted = true;
            for (double t : spec.times)
              r.bounds.push_back(ctmdp::reachabilityBounds(
                  analysis->absorbed.mdp, t, boundsOpts));
            warn(
                "the model is nondeterministic (FDEP-induced simultaneity, "
                "Section 4.4): scheduler bounds substituted for point "
                "unreliability");
          } else {
            // One shared uniformization sweep for the whole grid.
            r.values = ctmc::labelCurve(analysis->absorbed.chain, kDownLabel,
                                        spec.times, solveOpts);
          }
          break;
        case MeasureKind::UnreliabilityBounds:
          if (!requireGrid(r)) break;
          if (analysis->staticCombo) {
            // The numeric path only exists when every module extraction is
            // deterministic; the scheduler bounds coincide.
            for (double v : numericCurve(spec.times))
              r.bounds.push_back(ctmdp::ReachabilityBounds{v, v});
          } else {
            for (double t : spec.times)
              r.bounds.push_back(ctmdp::reachabilityBounds(
                  analysis->absorbed.mdp, t, boundsOpts));
          }
          break;
        case MeasureKind::Unavailability:
          if (!requireGrid(r)) break;
          // One shared uniformization sweep for the whole grid (each point
          // is bitwise identical to a one-point grid).
          r.values = ctmc::labelCurve(fullExtraction(*analysis).chain,
                                      kDownLabel, spec.times, solveOpts);
          break;
        case MeasureKind::SteadyStateUnavailability:
          require(analysis->repairable,
                  "steadyStateUnavailability: the tree is not repairable; "
                  "the limit is trivially the probability of eventual "
                  "failure");
          r.values.push_back(ctmc::steadyStateLabelProbability(
              fullExtraction(*analysis).chain, kDownLabel, steadyOpts));
          break;
        case MeasureKind::Mttf: {
          if (analysis->nondeterministic) {
            fail(r,
                 "the model is nondeterministic; no scheduler-free "
                 "expectation exists");
            break;
          }
          ctmc::MttfResult mttf = ctmc::expectedTimeToLabel(
              analysis->absorbed.chain, kDownLabel, solveOpts.cancel);
          if (!mttf.finite) {
            r.values.push_back(kInf);
            warn(
                "MTTF is infinite: the top event is missed with positive "
                "probability");
          } else {
            r.values.push_back(mttf.value);
          }
          break;
        }
      }
    } catch (const BudgetExceeded& e) {
      fail(r, e.what());
      warn(std::string("partial report: resource budget exhausted at '") +
           e.checkpoint() + "' while evaluating " +
           measureKindName(spec.kind) +
           "; remaining measure(s) skipped, earlier results kept");
      budgetSpent = true;
    } catch (const Error& e) {
      fail(r, e.what());
    }
    report.measures.push_back(std::move(r));
  }

  // --- Session bookkeeping. ---
  if (storeHandle) {
    // Surface soft store failures on whichever request drains them first
    // (the store is shared; attribution is best-effort by design).
    for (std::string& w : storeHandle->drainWarnings()) {
      ++report.cache.storeErrors;
      report.diagnostics.push_back(
          {Severity::Warning, "quotient store: " + std::move(w)});
    }
  }
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    sessionStats_.accumulate(report.cache);
  }
  requestSpan.arg("from_cache", report.fromCache ? 1 : 0);
  requestSpan.arg("measures", report.measures.size());
  publishRequestMetrics(
      report,
      std::chrono::duration<double>(Clock::now() - requestStart).count());
  return report;
}

std::vector<AnalysisReport> Analyzer::analyzeBatch(
    const std::vector<AnalysisRequest>& requests) {
  std::vector<AnalysisReport> reports;
  reports.reserve(requests.size());
  for (const AnalysisRequest& request : requests)
    reports.push_back(analyze(request));
  return reports;
}

std::vector<AnalysisReport> Analyzer::analyzeBatch(
    const std::vector<AnalysisRequest>& requests, unsigned workers) {
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  if (workers > requests.size())
    workers = static_cast<unsigned>(requests.size());
  if (workers <= 1) return analyzeBatch(requests);

  std::vector<AnalysisReport> reports(requests.size());
  std::atomic<std::size_t> next{0};
  std::mutex errorMutex;
  std::exception_ptr firstError;
  auto work = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      try {
        reports[i] = analyze(requests[i]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  if (firstError) std::rethrow_exception(firstError);
  return reports;
}

}  // namespace imcdft::analysis
