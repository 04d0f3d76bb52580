#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
/// Concurrency.  One Analyzer serves any number of concurrent sessions:
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
/// Persistence.  When EngineOptions::storeDir names a directory, the
/// session reads aggregated whole-tree and module quotients from the
/// content-addressed on-disk store (store/quotient_store.hpp) before
/// aggregating, and publishes fresh results back; a numeric-path frontier
/// module is a whole-tree record like any other tree.  Store records are
/// keyed by the same canonical fingerprints as the in-memory caches and
/// deserialize by action *name* into the session symbol table, so a store
/// hit is bitwise identical to the cold aggregation it replaces.  Store
/// failures are soft: they count as misses, attach Warning diagnostics,
/// and never change an answer.

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
  /// diagnostics and per-measure errors, not exceptions; exceptions are
  /// reserved for malformed input (parse errors, unsupported trees).
  ///
  /// Safe to call from any number of threads concurrently; see the file
  /// comment for the concurrency contract.
  AnalysisReport analyze(const AnalysisRequest& request);

  /// Serves the requests in order against the shared session caches and
  /// returns one report each.  Scenario variants that share independent
  /// modules only re-compose what changed.
  std::vector<AnalysisReport> analyzeBatch(
      const std::vector<AnalysisRequest>& requests);

  /// Concurrent batch: serves the requests on \p workers threads over the
  /// shared session caches and returns the reports in request order.
  /// 0 picks std::thread::hardware_concurrency().  Each request is served
  /// as analyze() serves it, so identical requests that miss together each
  /// compute (with bitwise identical results).  The first exception, if
  /// any, is rethrown after all workers finish.
  std::vector<AnalysisReport> analyzeBatch(
      const std::vector<AnalysisRequest>& requests, unsigned workers);

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
  /// Where serveTree() found its analysis.
  enum class Served { TreeCache, Store, Pipeline };

  std::shared_ptr<const DftAnalysis> runPipeline(
      const dft::Dft& tree, const AnalysisOptions& opts,
      CacheStats& requestStats,
      const std::shared_ptr<store::QuotientStore>& store);

  /// The full-composition analysis of \p tree under tree-cache key \p key:
  /// the tree cache, then the store's whole-tree record, then runPipeline;
  /// a fresh result is published to the store, and every result not served
  /// from the tree cache is put into it.  \p label names the tree in trace
  /// events; \p served reports the source.
  std::shared_ptr<const DftAnalysis> serveTree(
      const dft::Dft& tree, const std::string& key, const std::string& label,
      const AnalysisOptions& opts, CacheStats& requestStats,
      const std::shared_ptr<store::QuotientStore>& store, Served& served);

  /// The static-combination numeric path: per-module analyses (each
  /// frontier module served by serveTree as a tree of its own) + BDD
  /// structure function over the frontier of \p layer (which must be
  /// eligible).  Returns null — after appending a Warning — when a module
  /// turns out nondeterministic; the caller then falls back to the full
  /// pipeline.
  std::shared_ptr<const DftAnalysis> runNumericPipeline(
      const dft::Dft& tree, const dft::StaticLayer& layer,
      const AnalysisOptions& opts, CacheStats& requestStats,
      std::vector<Diagnostic>& diagnostics,
      const std::shared_ptr<store::QuotientStore>& store);

  /// Resolves (and memoizes) the store handle for \p dir; an empty dir
  /// returns null.  A directory that cannot be opened warns once (on the
  /// first request that touches it) and is remembered as disabled.
  std::shared_ptr<store::QuotientStore> openStore(
      const std::string& dir, std::vector<Diagnostic>& diagnostics);

  ioimc::SymbolTablePtr symbols_;

  mutable std::mutex statsMutex_;
  CacheStats sessionStats_;

  /// The two session caches; both internally synchronized LRU maps.
  /// trees_ is only touched from request-serving threads; modules_ is also
  /// stored into from the engine's worker threads.
  LruMap<std::shared_ptr<const DftAnalysis>> trees_;
  LruMap<std::shared_ptr<const CachedModule>> modules_;

  /// Persistent stores by directory (null = directory unusable, warned).
  std::mutex storesMutex_;
  std::unordered_map<std::string, std::shared_ptr<store::QuotientStore>>
      stores_;
};

}  // namespace imcdft::analysis
