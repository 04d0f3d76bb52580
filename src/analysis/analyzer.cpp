#include "analysis/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <utility>

#include "analysis/static_combine.hpp"
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
  static obs::Counter& evictions = reg.counter("analyzer.cache.evictions");
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
  evictions.add(report.cache.treeEvictions + report.cache.moduleEvictions);
  for (const MeasureResult& m : report.measures)
    (m.ok ? measuresOk : measuresFailed).add();
  if (report.analysis)
    peakStates.atLeast(report.stats().peakAggregatedStates);
  wall.record(static_cast<std::uint64_t>(wallSeconds * 1e9));
}

/// Serialization of every option that influences the composed model (or
/// its reported statistics, which symmetry changes); part of both cache
/// keys.  The store directory (AnalyzerOptions::storeDir) is a session
/// setting, not a request option: a store hit is bitwise identical to cold
/// aggregation, so records written by a session with one store directory
/// stay valid for every other.
std::string optionsKey(const AnalysisOptions& opts) {
  std::string key = "sg=";
  key += opts.conversion.subsetGates ? '1' : '0';
  // Every reference path yields the production measures, but its stats
  // (merge order, peaks, fused steps) differ, so cached analyses are keyed
  // per path.  Store records carry this key: the values may never move.
  static_assert(static_cast<int>(Reference::Production) == 0 &&
                static_cast<int>(Reference::DeclarationOrder) == 2 &&
                static_cast<int>(Reference::Unreduced) == 3 &&
                static_cast<int>(Reference::FusedChain) == 5);
  key += ";rf=";
  key += std::to_string(static_cast<int>(opts.engine.reference));
  // Output urgency was once a weak-bisimulation option and is now always
  // on; the literal keeps every cache and store key byte-identical, so
  // records already on disk stay reachable.
  key += ";ou=1";
  key += ";sy=";
  key += opts.engine.symmetry ? '1' : '0';
  // numThreads is deliberately absent: it is bit-identical for every
  // value.
  return key;
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
/// exact canonical fingerprint of the module's sub-tree plus the options)
/// determines the aggregated model.
///
/// Lookup order is memory, then store: a store hit deserializes the module
/// quotient into the session symbol table, promotes it into the in-memory
/// LRU, and then behaves exactly like a session hit.  Freshly aggregated
/// modules, and the symmetric siblings the engine instantiates from them,
/// are published back to the store.
///
/// Thread safety: lookup() runs on this request's calling thread (per the
/// ModuleCache contract) and may write the request's CacheStats directly;
/// store() runs on engine worker threads and accumulates its counters in
/// atomics, folded into the request stats by foldInto() after the engine
/// returns.
class Analyzer::SessionModuleCache : public ModuleCache {
 public:
  SessionModuleCache(Analyzer& owner, const std::vector<ActivationContext>& ctx,
                     std::string optsKey, CacheStats& requestStats)
      : owner_(owner),
        contexts_(ctx),
        optsKey_(std::move(optsKey)),
        stats_(requestStats) {}

  std::optional<CachedModule> lookup(const dft::Dft& dft,
                                     dft::ElementId root) override {
    if (!cacheable(root)) return std::nullopt;
    const std::string k = key(dft, root);
    std::shared_ptr<const CachedModule> entry;
    if (std::optional<std::shared_ptr<const CachedModule>> hit =
            owner_.modules_.get(k))
      entry = std::move(*hit);
    if (!entry && owner_.store_) {
      if (std::optional<store::Record> loaded =
              owner_.store_->load(k, owner_.symbols_)) {
        entry = std::make_shared<const CachedModule>(
            CachedModule{std::move(loaded->model), loaded->steps});
        ++stats_.storeHits;
        stats_.moduleEvictions += owner_.modules_.put(k, entry);
      } else {
        ++stats_.storeMisses;
      }
    }
    obs::traceInstant("module-cache", dft.element(root).name,
                      {{"hit", entry ? 1u : 0u}});
    if (!entry) {
      ++stats_.moduleMisses;
      return std::nullopt;
    }
    ++stats_.moduleHits;
    return *entry;
  }

  void store(const dft::Dft& dft, dft::ElementId root,
             const ioimc::IOIMC& model, std::size_t steps) override {
    if (!cacheable(root)) return;
    std::string k = key(dft, root);
    if (owner_.store_ && owner_.store_->store(k, model, steps))
      storeWrites_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t evicted = owner_.modules_.put(
        std::move(k),
        std::make_shared<const CachedModule>(CachedModule{model, steps}));
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
  std::string key(const dft::Dft& dft, dft::ElementId root) const {
    std::string k = dft::moduleKey(dft, root);
    k += '\x1f';
    k += optsKey_;
    return k;
  }

  Analyzer& owner_;
  const std::vector<ActivationContext>& contexts_;
  std::string optsKey_;
  CacheStats& stats_;
  /// Worker-thread counters (store() side); see foldInto().
  std::atomic<std::size_t> storeWrites_{0};
  std::atomic<std::size_t> moduleEvictions_{0};
};

Analyzer::Analyzer(AnalyzerOptions opts)
    : symbols_(ioimc::makeSymbolTable()),
      trees_(opts.maxCachedTrees),
      modules_(opts.maxCachedModules) {
  if (opts.storeDir.empty()) return;
  try {
    store_ = store::QuotientStore::open(opts.storeDir);
  } catch (const Error& e) {
    // Soft: the session serves without persistence, and its first request
    // carries the one warning.
    storeDisabled_ = std::string("quotient store disabled: ") + e.what();
    storeWarningPending_ = true;
  }
}

Analyzer::~Analyzer() = default;

CacheStats Analyzer::cacheStats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return sessionStats_;
}

std::shared_ptr<const DftAnalysis> Analyzer::serveTree(
    const dft::Dft& tree, const std::string& key, const std::string& label,
    const AnalysisOptions& opts, CacheStats& requestStats, bool& fromStore) {
  fromStore = false;
  std::shared_ptr<const DftAnalysis> analysis;
  if (store_) {
    // Whole-tree store probe: a hit skips conversion and composition
    // entirely; only the extraction tail runs on the already-aggregated
    // quotient.  The probe is timed as an extract span.
    obs::TraceSpan extractSpan("extract");
    if (std::optional<store::Record> loaded = store_->load(key, symbols_)) {
      Extraction absorbed = absorbedExtraction(loaded->model, opts.engine.weak);
      DftAnalysis rebuilt{std::move(loaded->model), CompositionStats{},
                          std::move(absorbed), false, tree.isRepairable(),
                          nullptr, nullptr};
      rebuilt.nondeterministic = !rebuilt.absorbed.deterministic;
      rebuilt.composeSteps = loaded->steps;
      analysis = std::make_shared<DftAnalysis>(std::move(rebuilt));
      fromStore = true;
      ++requestStats.storeHits;
      obs::traceInstant("store-probe", label, {{"hit", 1}});
    } else {
      ++requestStats.storeMisses;
      obs::traceInstant("store-probe", label, {{"hit", 0}});
    }
  }
  if (!analysis) {
    analysis = runPipeline(tree, opts, requestStats);
    if (store_ &&
        store_->store(key, analysis->closedModel, analysis->composeSteps))
      ++requestStats.storeWrites;
  }
  requestStats.treeEvictions += trees_.put(key, analysis);
  return analysis;
}

std::shared_ptr<const DftAnalysis> Analyzer::runNumericPipeline(
    const dft::Dft& tree, const dft::StaticLayer& layer,
    const AnalysisOptions& opts, CacheStats& requestStats,
    std::vector<Diagnostic>& diagnostics) {
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

  const std::string optsKey = optionsKey(opts);
  std::vector<StaticCombination::SolvedChain> solved;
  std::vector<NumericModule> modules;
  std::vector<std::size_t> solvedSteps;          // per solved chain
  std::vector<std::size_t> membersOfChain;       // bucket sizes
  std::unordered_map<std::string, std::size_t> localIndex;
  CompositionStats stats;

  for (dft::ElementId root : layer.moduleRoots) {
    const std::string& name = tree.element(root).name;
    // Symmetric siblings within this request share one solved chain: the
    // rename-invariant shape under symmetry, the exact key otherwise.
    const std::string localKey =
        opts.engine.symmetry ? "shape\x1f" + dft::moduleShape(tree, root).key
                             : dft::moduleKey(tree, root);
    std::size_t index;
    auto local = localIndex.find(localKey);
    if (local != localIndex.end()) {
      // Symmetric sibling within this request: one curve for free.
      index = local->second;
      ++membersOfChain[index];
      ++stats.symmetricModulesReused;
      stats.symmetrySavedSteps += solvedSteps[index];
    } else {
      // The frontier module is an ordinary tree, under the key a request
      // for the extracted module alone probes (see analyze()).
      const dft::Dft moduleDft = dft::extractModule(tree, root);
      std::string key =
          opts.engine.symmetry ? dft::canonicalKey(moduleDft) : localKey;
      key += '\x1f';
      key += optsKey;
      key += ";nc=0";
      // A module served from the tree cache or from a whole-tree store
      // record is a hit, as a store-served module is on the composition
      // path: it saves every step that originally built it.
      bool hit = true;
      std::shared_ptr<const DftAnalysis> sub;
      if (std::optional<std::shared_ptr<const DftAnalysis>> cached =
              trees_.get(key))
        sub = std::move(*cached);
      else
        sub = serveTree(moduleDft, key, name, opts, requestStats, hit);
      const std::size_t steps = sub->composeSteps;
      obs::traceInstant("module-cache", name, {{"hit", hit ? 1u : 0u}});
      if (hit) {
        ++requestStats.moduleHits;
        ++stats.cachedModules;
        stats.stepsSaved += steps;
        requestStats.stepsSaved += steps;
      } else {
        ++requestStats.moduleMisses;
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
      }
      if (sub->nondeterministic) {
        diagnostics.push_back(
            {Severity::Warning,
             "static combination fell back to full composition: module '" +
                 name +
                 "' is nondeterministic (FDEP-induced simultaneity, "
                 "Section 4.4)"});
        return nullptr;
      }
      index = solved.size();
      solved.push_back({localKey, std::move(sub)});
      solvedSteps.push_back(steps);
      membersOfChain.push_back(1);
      localIndex.emplace(localKey, index);
    }
    const DftAnalysis& chain = *solved[index].analysis;
    modules.push_back(NumericModule{name, index,
                                    chain.closedModel.numStates(),
                                    chain.closedModel.numTransitions()});
  }
  stats.foldSteps();
  for (std::size_t members : membersOfChain)
    if (members >= 2) ++stats.symmetricBuckets;
  for (const NumericModule& m : modules)
    stats.modules.push_back(ModuleResult{m.name, m.states, m.transitions});
  span.arg("modules", modules.size());
  span.arg("chains", solved.size());

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
  result.composeSteps = result.stats.steps.size();
  return std::make_shared<DftAnalysis>(std::move(result));
}

std::shared_ptr<const DftAnalysis> Analyzer::runPipeline(
    const dft::Dft& tree, const AnalysisOptions& opts,
    CacheStats& requestStats) {
  ConversionOptions conversion = opts.conversion;
  conversion.symbols = symbols_;

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
  const bool useModuleCache =
      opts.engine.reference != Reference::DeclarationOrder;
  SessionModuleCache moduleCache(*this, contexts, optionsKey(opts),
                                 requestStats);
  EngineResult engine =
      composeCommunity(std::move(community), tree, opts.engine,
                       useModuleCache ? &moduleCache : nullptr);
  moduleCache.foldInto(requestStats);
  span->arg("steps", engine.stats.steps.size());
  span->arg("states", engine.model.numStates());
  span.reset();
  requestStats.stepsRun += engine.stats.steps.size();
  requestStats.stepsSaved += engine.stats.stepsSaved;

  span.emplace("extract");
  Extraction absorbed = absorbedExtraction(engine.model, opts.engine.weak);
  span.reset();

  DftAnalysis result{std::move(engine.model), std::move(engine.stats),
                     std::move(absorbed), false, repairable, nullptr,
                     nullptr};
  result.nondeterministic = !result.absorbed.deterministic;
  result.composeSteps = result.stats.steps.size();
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

  // Every cached model (and every model a cached DftAnalysis holds) is
  // interned in the session table, and so is everything the store loads.
  require(!request.options.conversion.symbols ||
              request.options.conversion.symbols == symbols_,
          "AnalysisRequest: conversion.symbols must be null or the "
          "session's own table (Analyzer::symbols())");

  // --- Resolve the DFT source: the in-memory tree, else the text. ---
  std::optional<dft::Dft> parsed;
  {
    obs::TraceSpan parseSpan("parse");
    if (!request.tree) parsed = dft::parseGalileo(request.galileo);
  }
  const dft::Dft* tree = request.tree ? &*request.tree : &*parsed;

  // --- Resource budget. ---
  // A limited request gets a CancelToken wired through the engine options
  // into every hot loop (merge steps, product expansion, refinement
  // passes, the OTF frontier, uniformization sweeps).  The options *copy*
  // carries a pointer to it (EngineOptions::weak.cancel), and `cancel`
  // keeps it alive for the whole call.  The cache keys below are computed
  // from the same options and are budget-blind by construction
  // (optionsKey never serializes the token), so budgeted and unbudgeted
  // requests share the tree cache — a budget decides whether an answer is
  // produced, never which answer.  A trip unwinds before the tree-cache
  // put, so no tripped analysis ever reaches a shared cache.
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
    options.engine.weak.cancel = cancel.get();
  }

  // --- Whole-tree cache lookup / pipeline run. ---
  std::string treeKey = dft::canonicalKey(*tree);
  report.treeHash = dft::fnv1a(treeKey);
  treeKey += '\x1f';
  treeKey += optionsKey(options);

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
      options.engine.staticCombine &&
      options.engine.reference != Reference::DeclarationOrder &&
      !request.measures.empty() &&
      std::all_of(request.measures.begin(), request.measures.end(),
                  [](const MeasureSpec& m) {
                    return m.kind == MeasureKind::Unreliability ||
                           m.kind == MeasureKind::UnreliabilityBounds;
                  });
  const std::string fullKey = treeKey + ";nc=0";
  const std::string numericKey = treeKey + ";nc=1";

  if (storeWarningPending_.exchange(false))
    report.diagnostics.push_back({Severity::Warning, storeDisabled_});

  std::shared_ptr<const DftAnalysis> analysis;
  if (wantNumeric)
    if (std::optional<std::shared_ptr<const DftAnalysis>> hit =
            trees_.get(numericKey))
      analysis = std::move(*hit);
  if (!analysis)
    if (std::optional<std::shared_ptr<const DftAnalysis>> hit =
            trees_.get(fullKey))
      analysis = std::move(*hit);

  if (analysis) {
    report.fromCache = true;
    ++report.cache.treeHits;
    obs::traceInstant("tree-cache", request.label, {{"hit", 1}});
    report.diagnostics.push_back(
        {Severity::Info, "composition served from the whole-tree cache"});
  } else {
    // A miss computes, even while a concurrent identical request computes
    // the same analysis: both results are bitwise identical, and the later
    // put overwrites the earlier with an equal entry.
    ++report.cache.treeMisses;
    obs::traceInstant("tree-cache", request.label, {{"hit", 0}});
    if (wantNumeric) {
      dft::StaticLayer layer = dft::detectStaticLayer(*tree);
      if (layer.eligible) {
        analysis = runNumericPipeline(*tree, layer, options, report.cache,
                                      report.diagnostics);
        // Null = a module was nondeterministic (Warning already attached);
        // the fallen-back full analysis lands under fullKey.
        if (analysis)
          report.cache.treeEvictions += trees_.put(numericKey, analysis);
      } else {
        report.diagnostics.push_back(
            {Severity::Info,
             "static combination not applicable: " + layer.reason});
      }
    }
    if (!analysis) {
      bool fromStore = false;
      analysis = serveTree(*tree, fullKey, request.label, options,
                           report.cache, fromStore);
      if (fromStore)
        report.diagnostics.push_back(
            {Severity::Info,
             "whole-tree quotient served from the persistent store "
             "(composition skipped)"});
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
  }
  report.analysis = analysis;
  if (analysis->staticCombo)
    report.diagnostics.push_back(
        {Severity::Info, analysis->staticCombo->summary()});

  // --- Evaluate the measures. ---
  // Numeric-path curves are solved per evaluation, one uniformization sweep
  // per distinct chain, as the full path solves its one chain.
  auto numericCurve = [&](const std::vector<double>& times) {
    const StaticCombination& combo = *analysis->staticCombo;
    return combo.evaluate(
        times, [&](std::size_t index, const std::vector<double>& ts) {
          return combo.solveCurve(index, ts, cancel.get());
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
  if (store_) {
    // Surface soft store failures on whichever request drains them first
    // (the store is shared; attribution is best-effort by design).
    for (std::string& w : store_->drainWarnings()) {
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

}  // namespace imcdft::analysis
