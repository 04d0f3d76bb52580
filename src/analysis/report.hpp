#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/extract.hpp"
#include "analysis/request.hpp"
#include "ctmdp/reachability.hpp"

/// \file report.hpp
/// The typed response side of the Analyzer session API: per-measure
/// results, structured diagnostics, composition statistics and cache-hit
/// counters.  Phase times are the request's trace spans (obs/trace.hpp).

namespace imcdft::analysis {

class StaticCombination;  // analysis/static_combine.hpp

/// The state label the top-event monitor attaches to failed states.
inline constexpr const char* kDownLabel = "down";

/// Result of the compositional-aggregation pipeline, ready for measures.
/// (The Analyzer shares one instance per distinct tree across all measures
/// and cached requests.)
struct DftAnalysis {
  /// The single aggregated I/O-IMC of the whole tree, all signals hidden.
  ioimc::IOIMC closedModel;
  CompositionStats stats;
  /// Extraction of the failure-absorbed model (for unreliability).
  Extraction absorbed;
  /// True when FDEP-induced simultaneity left real nondeterminism, in which
  /// case only scheduler bounds exist (Section 4.4 of the paper).
  bool nondeterministic = false;
  bool repairable = false;
  /// Lazily computed extraction of the *non-absorbed* model (needed by the
  /// unavailability measures, where the system leaves the down states again
  /// after repair).  Use fullExtraction() in analyzer.hpp; do not touch.
  /// Accessed only through the std::atomic_* shared_ptr free functions:
  /// reports of concurrent sessions share a single DftAnalysis, and the
  /// first successfully installed extraction wins (racing threads compute
  /// identical values, so the race is benign and the published pointer
  /// never changes afterwards).
  mutable std::shared_ptr<const Extraction> fullMemo;
  /// Set when the static-combination numeric path served this analysis
  /// (EngineOptions::staticCombine): per-module absorbing CTMCs plus the
  /// layer's BDD structure function.  closedModel is then a one-state
  /// placeholder and absorbed is empty — unreliability measures evaluate
  /// through this object instead (see analysis/static_combine.hpp).
  std::shared_ptr<const StaticCombination> staticCombo;
  /// Compose/hide/aggregate steps that built this analysis (what a later
  /// cache hit on it saves): stats.steps.size() after a pipeline run, the
  /// recorded count when it was loaded from the store.
  std::size_t composeSteps = 0;
};

enum class Severity : std::uint8_t { Info, Warning, Error };

/// A structured note attached to a report, e.g. "nondeterministic model:
/// bounds substituted for point unreliability".
struct Diagnostic {
  Severity severity = Severity::Info;
  std::string message;
};

/// Result of one MeasureSpec.
struct MeasureResult {
  MeasureSpec spec;  ///< echo of the request
  /// False when the measure does not apply to this model (the reason is in
  /// error and mirrored as an Error diagnostic on the report).
  bool ok = false;
  /// Point values, one per grid point (one entry for the scalar kinds).
  /// Empty when boundsSubstituted is set.
  std::vector<double> values;
  /// Scheduler bounds per grid point; filled for UnreliabilityBounds and
  /// for Unreliability on nondeterministic models.
  std::vector<ctmdp::ReachabilityBounds> bounds;
  /// Set when an Unreliability request met a nondeterministic model and
  /// bounds were returned instead of point values (with a warning).
  bool boundsSubstituted = false;
  std::string error;
};

/// Cache activity, either of one request (AnalysisReport::cache) or of a
/// whole session (Analyzer::cacheStats()).
struct CacheStats {
  /// Whole-tree cache: a hit skips conversion, composition and extraction.
  std::size_t treeHits = 0;
  std::size_t treeMisses = 0;
  /// Module cache: a hit splices a previously aggregated module I/O-IMC.
  /// A static-combination frontier module served from the tree cache
  /// counts here too (a miss is any other source).
  std::size_t moduleHits = 0;
  std::size_t moduleMisses = 0;
  /// Compose/hide/aggregate steps actually executed vs avoided by hits.
  std::size_t stepsRun = 0;
  std::size_t stepsSaved = 0;
  /// Persistent quotient store (AnalyzerOptions::storeDir): records served
  /// from / probed and absent in the on-disk store, whole-tree and module
  /// quotients alike.
  /// Store hits at the module level also count as moduleHits (they splice
  /// like a session-cache hit would).
  std::size_t storeHits = 0;
  std::size_t storeMisses = 0;
  /// New record files published to the store (existing records are never
  /// rewritten and do not count).
  std::size_t storeWrites = 0;
  /// Soft store problems observed (a record that failed to load —
  /// truncation, corruption, checksum or version mismatch — or a publish
  /// that failed).  Each degrades to the cold path and attaches a Warning
  /// diagnostic — never a wrong answer.
  std::size_t storeErrors = 0;
  /// Always 0: concurrent identical misses each compute, and nothing joins
  /// another request's aggregation.  Kept only because the perfbench ledger
  /// reads it for its in-flight-joins metric; both go together.
  std::size_t inflightJoins = 0;
  /// LRU evictions per session cache (entries dropped past the capacity
  /// bounds in AnalyzerOptions).
  std::size_t treeEvictions = 0;
  std::size_t moduleEvictions = 0;

  /// Field-wise sum (request stats folding into session stats).
  void accumulate(const CacheStats& other) {
    treeHits += other.treeHits;
    treeMisses += other.treeMisses;
    moduleHits += other.moduleHits;
    moduleMisses += other.moduleMisses;
    stepsRun += other.stepsRun;
    stepsSaved += other.stepsSaved;
    storeHits += other.storeHits;
    storeMisses += other.storeMisses;
    storeWrites += other.storeWrites;
    storeErrors += other.storeErrors;
    treeEvictions += other.treeEvictions;
    moduleEvictions += other.moduleEvictions;
  }
};

/// Response to one AnalysisRequest.
struct AnalysisReport {
  std::string label;  ///< echo of the request label
  /// The request/trace id this report was served under (the requested id,
  /// or the auto-assigned one when the request left it 0).  Matches the
  /// "pid" of every span the request emitted into a `--trace` export.
  std::uint64_t requestId = 0;
  /// Canonical fingerprint of the analyzed tree (dft::canonicalHash).
  std::uint64_t treeHash = 0;
  /// True when the whole-tree cache served this request (a pure lookup).
  bool fromCache = false;
  /// The underlying pipeline result; shared with the session cache and
  /// with other reports for the same tree.
  std::shared_ptr<const DftAnalysis> analysis;
  std::vector<MeasureResult> measures;
  std::vector<Diagnostic> diagnostics;
  CacheStats cache;  ///< activity attributable to this request alone

  const CompositionStats& stats() const { return analysis->stats; }
  bool nondeterministic() const { return analysis->nondeterministic; }
  /// True when every requested measure evaluated (possibly with warnings).
  bool allMeasuresOk() const {
    for (const MeasureResult& m : measures)
      if (!m.ok) return false;
    return true;
  }
};

}  // namespace imcdft::analysis
