#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/converter.hpp"
#include "common/cancel.hpp"
#include "dft/model.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/model.hpp"

/// \file engine.hpp
/// Steps 2-5 of the paper's conversion/analysis algorithm: repeatedly pick
/// two I/O-IMC of the community, parallel-compose them, hide the output
/// signals that are no longer synchronized on, and aggregate with weak
/// bisimulation, until a single model remains.

namespace imcdft::analysis {

/// Order in which the community is folded.
enum class CompositionStrategy {
  /// Compose the models of each independent DFT module first (the paper's
  /// Section 5.2 modular analysis); the merge planner orders each module.
  Modular,
  /// Fold the community left to right as converted.  Kept as the tests'
  /// cross-order oracle: the same measures from a different merge order.
  Declaration,
};

struct EngineOptions {
  CompositionStrategy strategy = CompositionStrategy::Modular;
  /// Aggregate after every composition step (turning this off reproduces
  /// the state-space blow-up the paper warns about).
  bool aggregateEachStep = true;
  /// Merge states whose whole future is unobservable (see
  /// ioimc::collapseUnobservableSinks); measure-preserving.
  bool collapseSinks = true;
  /// Worker threads for both thread layers of the engine: the Modular
  /// strategy's per-module aggregation (independent modules share no
  /// mutable state, so their compose/hide/aggregate chains run
  /// concurrently) and the signature-encode pool each merge shares across
  /// its fused steps.  0 means std::thread::hardware_concurrency(); 1 runs
  /// everything on the calling thread.  Results are bitwise identical for
  /// every thread count: each module task is a pure function of its inputs,
  /// the results are folded in a fixed order, and encoding is block-parallel
  /// while interning stays sequential in state order.
  unsigned numThreads = 0;
  /// Symmetry reduction (Modular strategy only): bucket independent modules
  /// by their rename-invariant shape (dft::moduleShape), aggregate exactly
  /// one representative per bucket, and instantiate the isomorphic siblings
  /// with ioimc::renameActions under the recorded name substitution — the
  /// paper's Section 5.2 manual reuse of the CAS motor/pump unit, automated.
  /// Symmetric trees then cost O(shapes) aggregations instead of
  /// O(modules).  Reuse only happens when the induced ActionId map is
  /// strictly order-preserving and the module structures correspond
  /// exactly, which makes every measure *bitwise identical* to the
  /// symmetry-off run; any check failure falls back to aggregating the
  /// module normally (see analysis/symmetry.hpp).
  bool symmetry = true;
  /// Static-layer numeric combination (Analyzer pipeline, Modular strategy
  /// only): when the top of the tree is a static combination layer over
  /// independent modules (dft::detectStaticLayer), solve each module's
  /// unreliability numerically on its own absorbing CTMC and evaluate the
  /// layer's structure function over the per-time probabilities with a BDD
  /// instead of composing the joint unfired product — linear in the number
  /// of modules where composition is exponential (see
  /// analysis/static_combine.hpp).  Falls back to full composition, with a
  /// diagnostic, whenever eligibility cannot be proven or a module turns
  /// out nondeterministic.  Exact up to CTMC transient tolerances; the E14
  /// tests enforce 1e-9-relative agreement with the composition path.
  bool staticCombine = true;
  /// Fused compose-and-minimize (ioimc::otf::otfComposeAggregate): every
  /// per-step compose/hide/collapse/aggregate chain explores the
  /// synchronized product frontier-by-frontier and collapses product
  /// states into weak-bisimulation classes *while exploration is still
  /// running*, so the peak memory of a composition step scales with the
  /// running quotient instead of the full reachable product.  The fused
  /// result is canonically renumbered and verified inline as a fixpoint of
  /// the ordinary refinement; measures are bit-identical to the classic path
  /// (the E15 tests enforce this).  Any invariant failure falls back to
  /// the classic chain for that step — never a wrong answer — and is
  /// counted in CompositionStats::onTheFlyFallbacks (the Analyzer attaches
  /// a Diagnostic).  Only applies when aggregateEachStep is on.
  bool onTheFly = true;
  /// Safety valve for the fused engine: a step whose live region exceeds
  /// this many states falls back to the classic chain.  0 = unlimited.
  std::size_t onTheFlyMaxVisited = 0;
  /// Directory of the persistent quotient store (store/quotient_store.hpp).
  /// Empty disables persistence.  The Analyzer reads aggregated module and
  /// whole-tree quotients plus solved curves from it before aggregating,
  /// and publishes fresh results back; a fleet of processes pointed at one
  /// directory shares a warm cache across restarts.  Deliberately NOT part
  /// of the semantic cache key (optionsKey): store hits are bitwise
  /// identical to cold aggregation, so the same analysis keyed with and
  /// without a store must share cache entries.
  std::string storeDir;
  /// Cooperative cancellation / resource budget (common/cancel.hpp).  The
  /// engine checkpoints the token once per merge step and hands it to
  /// every hot loop below it (compose expansion, refinement iterations,
  /// the on-the-fly frontier); an exhausted budget unwinds the whole
  /// composition with BudgetExceeded.  Deliberately NOT part of the
  /// semantic cache key (optionsKey): a budget never changes a result,
  /// only whether it is produced.  The Analyzer builds the token from
  /// AnalysisRequest::budget and mirrors it into weak.cancel; direct
  /// engine callers who set one should do the same.
  std::shared_ptr<CancelToken> cancel;
  ioimc::WeakOptions weak;
};

/// Records of one compose/hide/aggregate step.
struct CompositionStep {
  std::string name;                 ///< "left || right" of the composed pair
  std::size_t leftStates = 0;       ///< operand sizes going in
  std::size_t rightStates = 0;
  /// Largest intermediate of the step: the full product size on the
  /// classic path, the peak *live* region when the step ran fused
  /// (onTheFly) — both are the step's peak-memory proxy.
  std::size_t composedStates = 0;
  std::size_t composedTransitions = 0;
  std::size_t aggregatedStates = 0; ///< size after hide/collapse/aggregate
  std::size_t aggregatedTransitions = 0;
  /// The step ran through the fused compose-and-minimize engine.
  bool onTheFly = false;
  /// The fused engine was attempted but hit an invariant failure; the step
  /// was served by the classic chain instead (reason below).
  bool onTheFlyFallback = false;
  std::string onTheFlyFallbackReason;
  /// Fused-step detail (all zero on classic steps): partial refinement
  /// passes run and the intra-step encoding pool size (0 = the refinement
  /// never went parallel).  Stage times come from the otf.* trace spans.
  std::size_t otfRefinePassesRun = 0;
  unsigned otfIntraWorkers = 0;
};

/// Aggregated I/O-IMC of one completed independent module.  Modules that
/// were spliced from a cache or instantiated by symmetry renaming appear
/// here too, under their own name with the reused model's sizes.
struct ModuleResult {
  std::string name;        ///< module root element's name
  std::size_t states = 0;  ///< aggregated module model size
  std::size_t transitions = 0;
};

struct CompositionStats {
  std::vector<CompositionStep> steps;
  std::vector<ModuleResult> modules;
  /// Modules spliced in from a ModuleCache instead of being composed.
  std::size_t cachedModules = 0;
  /// Compose/hide/aggregate steps those splices avoided (as recorded when
  /// the cached model was originally built).
  std::size_t stepsSaved = 0;
  /// Symmetry reduction (EngineOptions::symmetry): shape buckets that held
  /// at least two isomorphic modules in this run.
  std::size_t symmetricBuckets = 0;
  /// Sibling module aggregations skipped by instantiating the bucket
  /// representative's aggregated model under an action renaming.
  std::size_t symmetricModulesReused = 0;
  /// Compose/hide/aggregate steps those instantiations avoided (the
  /// representative's subtree step count, once per reused sibling).
  std::size_t symmetrySavedSteps = 0;
  /// Size of the biggest intermediate any composition step materialized
  /// (full product on the classic path, peak live region on fused steps).
  std::size_t peakComposedStates = 0;
  std::size_t peakComposedTransitions = 0;
  /// Size of the biggest model after aggregation.
  std::size_t peakAggregatedStates = 0;
  std::size_t peakAggregatedTransitions = 0;
  /// Fused compose-and-minimize (EngineOptions::onTheFly): steps served by
  /// the fused engine, and steps that fell back to the classic chain.
  std::size_t onTheFlySteps = 0;
  std::size_t onTheFlyFallbacks = 0;
  /// Peak states the fused steps never materialized, summed against the
  /// |left| x |right| materialization bound of each fused step (the exact
  /// reachable-product size is only known when the classic path runs; the
  /// E15 tests make that comparison directly).
  std::size_t onTheFlySavedPeakStates = 0;
  /// Partial refinement passes run across all fused steps.
  std::size_t otfRefinePassesRun = 0;
  /// Largest intra-step encoding pool any fused step used (0 = the
  /// refinement never went parallel anywhere).
  unsigned otfIntraWorkers = 0;
  /// Distinct fallback reasons seen (deduplicated, capped; Diagnostics).
  std::vector<std::string> onTheFlyFallbackReasons;

  /// Folds every entry of steps into the step-derived fields above: the
  /// four peaks, the onTheFly* counters, otfRefinePassesRun,
  /// otfIntraWorkers and the fallback reasons.  Call it once, on stats
  /// whose step-derived fields are still zero.
  void foldSteps();

 private:
  /// Appends \p reason to onTheFlyFallbackReasons unless it is already
  /// recorded or the cap (8 distinct reasons) is reached.
  void noteOnTheFlyFallbackReason(const std::string& reason);
};

struct EngineResult {
  ioimc::IOIMC model;  ///< single remaining I/O-IMC, all outputs hidden
  CompositionStats stats;
};

/// A reusable aggregated module model, as exchanged with a ModuleCache.
struct CachedModule {
  ioimc::IOIMC model;
  /// Compose/hide/aggregate steps it originally took to build the model
  /// (what a cache hit saves).
  std::size_t steps = 0;
};

/// Cache consulted by the Modular strategy for whole independent modules.
/// lookup() is called before a module subtree is composed; a hit splices
/// the cached aggregated I/O-IMC into the community and skips the subtree
/// entirely.  store() offers every freshly aggregated proper module.  The
/// implementation decides cacheability and keying (see
/// analysis/analyzer.hpp for the session implementation; it keys on the
/// module's canonical sub-tree hash and rejects modules whose activation
/// depends on context outside the module).
///
/// Thread safety: lookup() is only invoked from the engine's calling
/// thread, but store() is invoked from worker threads when
/// EngineOptions::numThreads enables parallel module aggregation —
/// implementations must synchronize store() against itself and lookup().
class ModuleCache {
 public:
  virtual ~ModuleCache() = default;
  virtual std::optional<CachedModule> lookup(const dft::Dft& dft,
                                             dft::ElementId root) = 0;
  virtual void store(const dft::Dft& dft, dft::ElementId root,
                     const ioimc::IOIMC& model, std::size_t steps) = 0;
};

/// Folds the community into a single aggregated I/O-IMC.  The result is
/// closed (every output hidden) and a weak-bisimulation fixpoint in
/// canonical numbering, so ioimc::aggregate maps it to itself.  \p dft is used by
/// the Modular strategy to group models by independent module.  \p cache,
/// when non-null, lets the Modular strategy reuse previously aggregated
/// module models across invocations (other strategies ignore it).
EngineResult composeCommunity(Community community, const dft::Dft& dft,
                              const EngineOptions& opts = {},
                              ModuleCache* cache = nullptr);

}  // namespace imcdft::analysis
