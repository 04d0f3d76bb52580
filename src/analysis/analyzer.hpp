#pragma once

#include <future>
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
///    conversion/engine options — a repeated request is a pure lookup;
///  * a per-module cache of aggregated independent-module I/O-IMCs — a
///    batch over N scenario variants that share modules only re-composes
///    what changed.  With EngineOptions::symmetry enabled the module cache
///    keys on the *rename-invariant* shape (dft::moduleShape) and records
///    the concrete-name basis of the stored model; a later module of the
///    same shape but different names hits too and is instantiated via
///    ioimc::renameActions, so a batch over N symmetric variants
///    aggregates each shape once.  With symmetry disabled the cache keys
///    on the exact module fingerprint (dft::moduleKey) as before.
///
/// The module cache mirrors the nested-reuse idea of DIFTree-style modular
/// analysis (Section 5.2 of the paper): an independent module's aggregated
/// model is context-free as long as the module is always active, so it can
/// be spliced into any later community that contains the same module.  All
/// requests of a session intern action names in one shared symbol table to
/// make that splicing sound.
///
/// Concurrency.  One Analyzer serves any number of concurrent sessions:
/// every cache is an internally synchronized LRU map (common/lru_map.hpp,
/// the module and curve caches sharded by key hash), the session symbol
/// table is itself synchronized, and cached DftAnalysis objects are
/// immutable once published (the one lazily computed field, fullMemo, is
/// installed with a first-write-wins CAS — see fullExtraction).  Concurrent
/// requests for the *same* fingerprint dedup in flight: the first becomes
/// the leader and runs the aggregation, later arrivals block on a shared
/// future and receive the leader's (identical) result, counted in
/// CacheStats::inflightJoins.  N identical concurrent requests therefore
/// perform exactly one aggregation.
///
/// Persistence.  When EngineOptions::storeDir names a directory, the
/// session reads aggregated whole-tree and module quotients plus solved
/// numeric-path curves from the content-addressed on-disk store
/// (store/quotient_store.hpp) before aggregating, and publishes fresh
/// results back.  Store records are keyed by the same canonical
/// fingerprints as the in-memory caches and deserialize by action *name*
/// into the session symbol table, so a store hit is bitwise identical to
/// the cold aggregation it replaces.  Store failures are soft: they count
/// as misses, attach Warning diagnostics, and never change an answer.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::store {
class QuotientStore;  // store/quotient_store.hpp
}

namespace imcdft::analysis {

struct AnalyzerOptions {
  /// Serve repeated identical (tree, options) requests from cache.
  bool cacheTrees = true;
  /// Reuse aggregated independent-module models across requests (Modular
  /// strategy only).  Also gates the numeric path's solved-chain and
  /// per-module curve caches (they are module-level caches too) and the
  /// persistent store's module/curve record traffic.
  bool cacheModules = true;
  /// Capacity bounds: least-recently-used entries are evicted once a cache
  /// grows past its limit (counted in CacheStats::*Evictions); 0 means
  /// unbounded.
  std::size_t maxCachedTrees = 256;
  std::size_t maxCachedModules = 1024;
  /// Numeric-path curve cache entries (one per solved chain x time grid).
  std::size_t maxCachedCurves = 4096;
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
  /// 0 picks std::thread::hardware_concurrency().  Identical requests
  /// dedup in flight (one aggregation, many joiners).  The first
  /// exception, if any, is rethrown after all workers finish.
  std::vector<AnalysisReport> analyzeBatch(
      const std::vector<AnalysisRequest>& requests, unsigned workers);

  /// Session-wide cache counters (sums over all analyze() calls so far).
  CacheStats cacheStats() const;

  /// Number of entries currently cached.
  std::size_t cachedTreeCount() const { return trees_.size(); }
  std::size_t cachedModuleCount() const { return modules_.size(); }
  /// Numeric-path caches: solved per-module CTMCs and their unreliability
  /// curves (see analysis/static_combine.hpp).
  std::size_t cachedChainCount() const { return chains_.size(); }
  std::size_t cachedCurveCount() const { return curves_.size(); }

  void clearCache();

  /// The session symbol table every request's models intern into.
  const ioimc::SymbolTablePtr& symbols() const { return symbols_; }

 private:
  class SessionModuleCache;
  struct ModuleEntry {
    ioimc::IOIMC model;
    std::size_t steps = 0;
    /// Concrete element names behind the shape's indices (shape-keyed
    /// entries only): a same-shape module with different names renames the
    /// stored model from this basis at lookup.
    std::vector<std::string> names;
  };
  /// Numeric-path solved chain: module fingerprint (shape or exact, plus
  /// engine options) -> whole per-module pipeline result.
  struct ChainEntry {
    std::shared_ptr<const DftAnalysis> analysis;
    std::size_t steps = 0;  ///< compose steps a hit saves
  };

  std::shared_ptr<const DftAnalysis> runPipeline(
      const dft::Dft& tree, const AnalysisOptions& opts,
      CacheStats& requestStats,
      const std::shared_ptr<store::QuotientStore>& store);

  /// The static-combination numeric path: per-module pipelines + BDD
  /// structure function over the frontier of \p layer (which must be
  /// eligible).  Returns null — after appending a Warning — when a module
  /// turns out nondeterministic; the caller then falls back to
  /// runPipeline.
  std::shared_ptr<const DftAnalysis> runNumericPipeline(
      const dft::Dft& tree, const dft::StaticLayer& layer,
      const AnalysisOptions& opts, CacheStats& requestStats,
      std::vector<Diagnostic>& diagnostics,
      const std::shared_ptr<store::QuotientStore>& store);

  /// Serves a numeric-path chain's curve from the session curve cache
  /// (keyed chain fingerprint x time grid), then from the persistent
  /// store, solving on a double miss (and publishing the fresh curve).
  /// \p cancel (may be null) is checkpointed during the solve; a budget
  /// trip throws before anything is cached, so caches stay consistent.
  std::vector<double> cachedCurve(
      const StaticCombination& combo, std::size_t chainIndex,
      const std::vector<double>& times,
      const std::shared_ptr<store::QuotientStore>& store, CacheStats& stats,
      const CancelToken* cancel = nullptr);

  /// Resolves (and memoizes) the store handle for \p dir; an empty dir
  /// returns null.  A directory that cannot be opened warns once (on the
  /// first request that touches it) and is remembered as disabled.
  std::shared_ptr<store::QuotientStore> openStore(
      const std::string& dir, std::vector<Diagnostic>& diagnostics);

  AnalyzerOptions opts_;
  ioimc::SymbolTablePtr symbols_;

  mutable std::mutex statsMutex_;
  CacheStats sessionStats_;

  /// The four session caches; all internally synchronized LRU maps.
  /// trees_/chains_ are only touched from request-serving threads;
  /// modules_ is also stored into from the engine's worker threads, and
  /// curves_ takes measure-evaluation traffic from every session — both
  /// are sharded to keep concurrent sessions off one mutex.
  LruMap<std::shared_ptr<const DftAnalysis>> trees_;
  ShardedLruMap<std::shared_ptr<const ModuleEntry>> modules_;
  LruMap<ChainEntry> chains_;
  ShardedLruMap<std::vector<double>> curves_;

  /// In-flight dedup: fingerprint -> the future every concurrent identical
  /// request joins on.  Entries live only while a leader is aggregating.
  std::mutex inflightMutex_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const DftAnalysis>>>
      inflight_;

  /// Persistent stores by directory (null = directory unusable, warned).
  std::mutex storesMutex_;
  std::unordered_map<std::string, std::shared_ptr<store::QuotientStore>>
      stores_;
};

}  // namespace imcdft::analysis
