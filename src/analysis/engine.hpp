#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/converter.hpp"
#include "dft/model.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/model.hpp"

/// \file engine.hpp
/// Steps 2-5 of the paper's conversion/analysis algorithm: repeatedly pick
/// two I/O-IMC of the community, parallel-compose them, hide the output
/// signals that are no longer synchronized on, and aggregate with weak
/// bisimulation, until a single model remains.  EngineOptions are set per
/// request; the persistent quotient store is a session resource
/// (AnalyzerOptions::storeDir) that reaches the engine only through the
/// ModuleCache hook.

namespace imcdft::analysis {

/// Which composition path composeCommunity runs.  Production is the
/// paper's algorithm as every caller runs it: independent modules fold
/// first (Section 5.2), the merge planner orders each pool, and every step
/// composes, hides, collapses and aggregates on the classic chain.  Under a
/// capped request the classic compose gives up as soon as the product
/// outgrows the live-state or memory cap (ioimc::composeWithinCaps), and
/// only such a step runs the fused engine (ioimc::otf::otfComposeAggregate),
/// whose live region can stay under the cap where the full product would
/// not.  An uncapped request runs classic throughout, so it is also the
/// classic reference the fused engine is checked against.  Either engine
/// runs a step on one thread.  Both engines emit the same canonical minimal
/// quotient, so the choice never changes a bit; a fused step that cannot
/// deliver it throws, it is never rerun on the classic chain.
/// The other values are reference paths that tests and the fuzz oracle
/// compare against it.  (The values are part of the semantic cache key:
/// every value is explicit, and a deleted one — 1 and 4 — is never reused.)
enum class Reference {
  Production = 0,
  /// The community folds left to right as converted (no module tree),
  /// each step on Production's engine: the cross-order reference, the
  /// same measures from a different merge order.
  DeclarationOrder = 2,
  /// No per-step collapse or aggregation, so finalize does all the
  /// minimizing: the state-space blow-up the paper's Section 4 warns
  /// about.  Every step runs the classic chain, whose compose trips the
  /// budget on an over-cap product.
  Unreduced = 3,
  /// Every step runs through the fused engine, whatever the caps.
  FusedChain = 5,
};

struct EngineOptions {
  Reference reference = Reference::Production;
  /// Threads of the module tree: independent modules share no mutable
  /// state, so their compose/hide/aggregate chains run concurrently.  Each
  /// merge step, and every refinement inside it, runs on one thread.  The
  /// module tasks run through runOnThreads (common/threads.hpp): 0 means
  /// std::thread::hardware_concurrency(); 1 runs everything on the calling
  /// thread; N >= 2 means the calling thread plus N - 1 helper threads
  /// (never more threads than module tasks).  Results are bitwise
  /// identical for every thread count: each module task is a pure function
  /// of its inputs, and the results are folded in a fixed order.
  unsigned numThreads = 0;
  /// Symmetry reduction (module tree only, so not DeclarationOrder): bucket
  /// independent modules by their rename-invariant shape (dft::moduleShape),
  /// aggregate exactly one representative per bucket, and instantiate the
  /// isomorphic siblings with ioimc::renameActions under the recorded name
  /// substitution — the paper's Section 5.2 manual reuse of the CAS
  /// motor/pump unit, automated.
  /// Symmetric trees then cost O(shapes) aggregations instead of
  /// O(modules).  Reuse only happens when the induced ActionId map is
  /// strictly order-preserving and the module structures correspond
  /// exactly, which makes every measure *bitwise identical* to the
  /// symmetry-off run; any check failure falls back to aggregating the
  /// module normally (see analysis/symmetry.hpp).
  bool symmetry = true;
  /// Static-layer numeric combination (Analyzer pipeline, module tree
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
  /// Refinement options, and the request's one budget token (weak.cancel,
  /// common/cancel.hpp; not owned).  The engine checkpoints it once per
  /// merge step and hands it to every hot loop below (compose expansion,
  /// refinement iterations, the fused engine's frontier); an exhausted
  /// budget unwinds the whole composition with BudgetExceeded.  Its
  /// live-state and memory caps also pick each step's engine on Production
  /// and DeclarationOrder (see Reference): a classic product that outgrows
  /// them hands its step to the fused engine without a trip; without a
  /// token such steps run classic.  The token is deliberately NOT part of
  /// the cache key (optionsKey): a budget never changes a result, only
  /// whether it is produced.
  ioimc::WeakOptions weak;
};

/// Records of one compose/hide/aggregate step.
struct CompositionStep {
  std::string name;                 ///< "left || right" of the composed pair
  std::size_t leftStates = 0;       ///< operand sizes going in
  std::size_t rightStates = 0;
  /// Largest intermediate of the step: the full product size on the
  /// classic path, the peak *live* region when the step ran fused —
  /// both are the step's peak-memory proxy.
  std::size_t composedStates = 0;
  std::size_t composedTransitions = 0;
  std::size_t aggregatedStates = 0; ///< size after hide/collapse/aggregate
  std::size_t aggregatedTransitions = 0;
  /// The step ran through the fused compose-and-minimize engine.
  bool onTheFly = false;
  /// Fused-step detail (zero on classic steps): inline refinement passes
  /// run.  Stage times come from the otf.* trace spans.
  std::size_t otfRefinePassesRun = 0;
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
  /// Always 0: a fused step returns the classic chain's quotient or
  /// throws, and never falls back.  Kept only because the perfbench ledger
  /// reads it for its engine.otf_fallbacks metric; both go together.
  std::size_t onTheFlyFallbacks = 0;

  /// Folds every entry of steps into the step-derived fields above: the
  /// four peaks.  Call it once, on stats whose peaks are still zero.
  void foldSteps();
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

/// Cache consulted by the module tree for whole independent modules.
/// lookup() is called before a module subtree is composed; a hit splices
/// the cached aggregated I/O-IMC into the community and skips the subtree
/// entirely.  store() offers every freshly aggregated proper module, and
/// every symmetric sibling instantiated from one (EngineOptions::symmetry)
/// under the sibling's own root, with the representative's subtree step
/// count.  The implementation decides cacheability and keying (see
/// analysis/analyzer.hpp for the session implementation; it keys on the
/// module's exact canonical sub-tree fingerprint and rejects modules whose
/// activation depends on context outside the module).
///
/// Thread safety: lookup() is only invoked from the engine's calling
/// thread, but store() is invoked from whichever thread runs the module's
/// task, a helper thread too when EngineOptions::numThreads is above 1 —
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
/// canonical numbering, so ioimc::aggregate maps it to itself.  \p dft
/// groups the models by independent module.  \p cache, when non-null,
/// lets the module tree reuse previously aggregated module models across
/// invocations (DeclarationOrder ignores it).
EngineResult composeCommunity(Community community, const dft::Dft& dft,
                              const EngineOptions& opts = {},
                              ModuleCache* cache = nullptr);

}  // namespace imcdft::analysis
