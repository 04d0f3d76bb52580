#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/request.hpp"
#include "common/lru_map.hpp"
#include "dft/modules.hpp"
#include "ioimc/model.hpp"

/// \file analyzer.hpp
/// The session-oriented public analysis API.
///
/// An Analyzer owns the paper's whole pipeline (convert -> compose -> hide
/// -> aggregate -> extract -> solve) behind a typed request/response
/// surface, and amortizes the expensive composition work across requests
/// through two caches:
///
///  * a whole-tree cache keyed by the canonical tree fingerprint plus the
///    conversion/engine options — a repeated request is a pure lookup.  The
///    static-combination path (analysis/static_combine.hpp) serves each of
///    its frontier modules through this cache too, as a tree of its own;
///  * a per-module cache of aggregated independent-module I/O-IMCs, keyed
///    by the exact module fingerprint (dft::moduleKey) plus the options —
///    a batch over N scenario variants that share modules only re-composes
///    what changed.  A module hits only under its own element names.  With
///    EngineOptions::symmetry the engine instantiates each symmetric
///    sibling from its representative and offers it to this cache under
///    the sibling's own key, so a later what-if that changes one unit of a
///    replicated tree still splices every unchanged sibling.  Requests on
///    the DeclarationOrder reference neither read nor fill this cache.
///
/// The module cache mirrors the nested-reuse idea of DIFTree-style modular
/// analysis (Section 5.2 of the paper): an independent module's aggregated
/// model is context-free as long as the module is always active, so it can
/// be spliced into any later community that contains the same module.  All
/// requests of a session intern action names in one shared symbol table to
/// make that splicing sound; a request that brings a table of its own is
/// rejected.
///
/// Concurrency.  One Analyzer serves any number of concurrent sessions
/// (there is no batch call: a caller serves many requests with its own
/// loop over analyze(), on its own threads or through runOnThreads,
/// common/threads.hpp):
/// both caches are internally synchronized LRU maps (common/lru_map.hpp),
/// the session symbol table is itself synchronized, and cached DftAnalysis
/// objects are immutable once published (the one lazily computed field,
/// fullMemo, is installed with a first-write-wins CAS — see
/// fullExtraction).  A request is served one way: it probes the tree cache
/// and, on a miss, runs the pipeline and fills the caches.  Concurrent
/// misses on the same fingerprint each compute; their analyses are bitwise
/// identical (the pipeline is a pure function of the tree and the keyed
/// options), so whichever put lands last leaves an equal entry cached.
///
/// Persistence.  When AnalyzerOptions::storeDir names a directory, the
/// session opens the content-addressed on-disk store
/// (store/quotient_store.hpp) once, at construction, and every request
/// reads aggregated whole-tree and module quotients from it before
/// aggregating and publishes fresh results back; a numeric-path frontier
/// module is a whole-tree record like any other tree.  Whole-tree and
/// module quotients are one record kind, each under its own key.  Store
/// records are keyed by the same canonical fingerprints as the in-memory
/// caches and deserialize by action *name* into the session symbol table,
/// so a store hit is bitwise identical to the cold aggregation it replaces.
/// Store failures are soft: a directory that cannot be opened leaves the
/// session without a store and warns on its first request; a bad record
/// counts as a miss and attaches a Warning; neither changes an answer.

namespace imcdft::store {
class QuotientStore;  // store/quotient_store.hpp
}

namespace imcdft::analysis {

struct AnalyzerOptions {
  /// Capacity bounds: least-recently-used entries are evicted once a cache
  /// grows past its limit (counted in CacheStats::*Evictions); 0 means
  /// unbounded.
  std::size_t maxCachedTrees = 256;
  std::size_t maxCachedModules = 1024;
  /// Directory of the persistent quotient store (store/quotient_store.hpp),
  /// created when absent; empty means no store.  Not part of any cache
  /// key: a store hit is bitwise identical to cold aggregation.
  std::string storeDir;
};

/// Extraction of the *non-absorbed* closed model (the unavailability
/// measures need it: the system leaves the down states again after
/// repair), memoized on \p analysis.  Throws on a nondeterministic model
/// and on a static-combination analysis (no joint model exists).  The memo
/// (DftAnalysis::fullMemo) is installed with a first-write-wins
/// compare-and-swap, so one analysis may be shared across threads.
const Extraction& fullExtraction(const DftAnalysis& analysis);

class Analyzer {
 public:
  explicit Analyzer(AnalyzerOptions opts = {});
  ~Analyzer();
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// Serves one request: resolves the DFT source, runs (or looks up) the
  /// pipeline, evaluates every requested measure.  Model-level
  /// incompatibilities (a nondeterministic model asked for a point
  /// unreliability, unavailability of an irreparable tree) surface as
  /// diagnostics and per-measure errors, not exceptions, and so does a
  /// budget that runs out while the measures are solved (a partial
  /// report).  Two things throw: malformed input (parse errors,
  /// unsupported trees) throws Error, and a budget that runs out while the
  /// pipeline builds the analysis (conversion, composition, extraction)
  /// throws BudgetExceeded (common/cancel.hpp); no tripped analysis
  /// reaches a cache.
  ///
  /// Safe to call from any number of threads concurrently; see the file
  /// comment for the concurrency contract.
  AnalysisReport analyze(const AnalysisRequest& request);

  /// Session-wide cache counters (sums over all analyze() calls so far).
  CacheStats cacheStats() const;

  /// Number of entries currently cached.
  std::size_t cachedTreeCount() const { return trees_.size(); }
  std::size_t cachedModuleCount() const { return modules_.size(); }

  /// The session symbol table every request's models intern into.  A
  /// request may leave ConversionOptions::symbols null or set it to this
  /// table; analyze() rejects any other table.
  const ioimc::SymbolTablePtr& symbols() const { return symbols_; }

 private:
  class SessionModuleCache;

  std::shared_ptr<const DftAnalysis> runPipeline(const dft::Dft& tree,
                                                 const AnalysisOptions& opts,
                                                 CacheStats& requestStats);

  /// The full-composition analysis of \p tree under tree-cache key \p key,
  /// for a caller whose tree-cache probe of \p key missed: the store's
  /// record for \p key, else runPipeline, whose result is published to the
  /// store; either way the result is put into the tree cache.  \p label
  /// names the tree in trace events; \p fromStore reports a store hit.
  std::shared_ptr<const DftAnalysis> serveTree(
      const dft::Dft& tree, const std::string& key, const std::string& label,
      const AnalysisOptions& opts, CacheStats& requestStats, bool& fromStore);

  /// The static-combination numeric path: per-module analyses (each
  /// frontier module probed in the tree cache, then served by serveTree as
  /// a tree of its own) + BDD
  /// structure function over the frontier of \p layer (which must be
  /// eligible).  Returns null — after appending a Warning — when a module
  /// turns out nondeterministic; the caller then falls back to the full
  /// pipeline.
  std::shared_ptr<const DftAnalysis> runNumericPipeline(
      const dft::Dft& tree, const dft::StaticLayer& layer,
      const AnalysisOptions& opts, CacheStats& requestStats,
      std::vector<Diagnostic>& diagnostics);

  ioimc::SymbolTablePtr symbols_;

  mutable std::mutex statsMutex_;
  CacheStats sessionStats_;

  /// The two session caches; both internally synchronized LRU maps.
  /// trees_ is only touched from request-serving threads; modules_ is also
  /// stored into from the engine's worker threads.
  LruMap<std::shared_ptr<const DftAnalysis>> trees_;
  LruMap<std::shared_ptr<const CachedModule>> modules_;

  /// The persistent store; null without AnalyzerOptions::storeDir or when
  /// the directory could not be opened.  In the latter case
  /// storeDisabled_ holds the Warning the first request takes.
  std::shared_ptr<store::QuotientStore> store_;
  std::string storeDisabled_;
  std::atomic<bool> storeWarningPending_{false};
};

}  // namespace imcdft::analysis
