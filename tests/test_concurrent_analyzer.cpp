#include <gtest/gtest.h>

#include <barrier>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analyze_all.hpp"
#include "common/text.hpp"
#include "dft/corpus.hpp"

/// \file test_concurrent_analyzer.cpp
/// The Analyzer's concurrency contract: genuinely concurrent sessions over
/// one Analyzer, identical concurrent requests that each compute and agree
/// bit for bit, the lazily installed unavailability extraction under
/// contention, a fleet of sessions sharing one persistent store, symmetric
/// siblings published to the module cache from the engine's worker
/// threads, and LRU eviction of every session cache.  The whole file runs
/// under TSan in CI (the suite names contain "Concurrent"/run via ctest -R
/// 'Concurrent' — see also StoreRobustness.ConcurrentWriters in
/// test_store.cpp).

namespace imcdft {
namespace {

namespace fs = std::filesystem;
using analysis::AnalysisOptions;
using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::AnalyzerOptions;
using analysis::MeasureSpec;
using analysis::analyzeAll;

/// CAS variant with the cross-switch failure rate perturbed: every variant
/// interns the same action-name universe, so cross-session comparisons are
/// exact (see the determinism note in analyzer.hpp).
std::string perturbedCas(double csLambda) {
  std::string text = dft::corpus::galileoCas();
  const std::string needle = "\"CS\" lambda=0.2;";
  auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(),
               "\"CS\" lambda=" + std::to_string(csLambda) + ";");
  return text;
}

AnalysisOptions viaComposition() {
  AnalysisOptions opts;
  opts.engine.staticCombine = false;
  return opts;
}

TEST(ConcurrentAnalyzer, IdenticalConcurrentRequestsAgreeBitForBit) {
  // Identical requests that miss together each compute; the pipeline is a
  // pure function of the tree and the keyed options, so every report
  // carries report 0's values bit for bit, and the last put leaves one
  // (equal) cached entry.
  constexpr unsigned kThreads = 8;
  Analyzer session;
  const AnalysisRequest request =
      AnalysisRequest::forGalileo(dft::corpus::galileoCas(), "cas")
          .withOptions(viaComposition())
          .measure(MeasureSpec::unreliability({0.5, 1.0, 2.0}));

  std::barrier start(kThreads);
  std::vector<AnalysisReport> reports(kThreads);
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < kThreads; ++i)
    pool.emplace_back([&, i] {
      start.arrive_and_wait();  // maximize the overlap of the misses
      reports[i] = session.analyze(request);
    });
  for (std::thread& t : pool) t.join();

  std::size_t misses = 0, hits = 0, joins = 0;
  for (const AnalysisReport& r : reports) {
    misses += r.cache.treeMisses;
    hits += r.cache.treeHits;
    joins += r.cache.inflightJoins;
    ASSERT_EQ(r.measures.size(), 1u);
    EXPECT_TRUE(r.measures[0].ok);
    ASSERT_EQ(r.measures[0].values.size(),
              reports[0].measures[0].values.size());
    for (std::size_t p = 0; p < r.measures[0].values.size(); ++p)
      EXPECT_EQ(r.measures[0].values[p], reports[0].measures[0].values[p]);
  }
  EXPECT_EQ(hits + misses, kThreads);
  EXPECT_EQ(joins, 0u);
  EXPECT_EQ(session.cachedTreeCount(), 1u);
}

TEST(ConcurrentAnalyzer, BatchMatchesSequentialBitForBit) {
  std::vector<AnalysisRequest> requests;
  for (double l : {0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55})
    requests.push_back(
        AnalysisRequest::forGalileo(perturbedCas(l), "cas-" + std::to_string(l))
            .withOptions(viaComposition())
            .measure(MeasureSpec::unreliability({0.5, 1.0, 2.0})));

  Analyzer sequential;
  std::vector<AnalysisReport> ref = analyzeAll(sequential, requests);

  Analyzer concurrent;
  std::vector<AnalysisReport> got = analyzeAll(concurrent, requests, 4);

  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].label, ref[i].label);  // reports in request order
    ASSERT_EQ(got[i].measures.size(), 1u);
    EXPECT_TRUE(got[i].measures[0].ok);
    ASSERT_EQ(got[i].measures[0].values.size(),
              ref[i].measures[0].values.size());
    for (std::size_t p = 0; p < ref[i].measures[0].values.size(); ++p)
      EXPECT_EQ(got[i].measures[0].values[p], ref[i].measures[0].values[p])
          << got[i].label << " point " << p;
  }
}

TEST(ConcurrentAnalyzer, MixedMeasuresShareOneAnalysis) {
  // Concurrent unavailability requests race to install the lazily computed
  // full extraction (DftAnalysis::fullMemo, a first-write-wins CAS).  An
  // MTTF request warms the tree cache first: it reads only the absorbed
  // extraction, so the memo is still empty when the racers hit the one
  // shared analysis.
  constexpr unsigned kThreads = 8;
  Analyzer session;
  const AnalysisReport warm = session.analyze(
      AnalysisRequest::forDft(dft::corpus::repairableAnd(), "rep-mttf")
          .measure(MeasureSpec::mttf()));
  ASSERT_TRUE(warm.allMeasuresOk());
  const AnalysisRequest request =
      AnalysisRequest::forDft(dft::corpus::repairableAnd(), "rep")
          .measure(MeasureSpec::unavailability({0.5, 1.0}))
          .measure(MeasureSpec::steadyStateUnavailability());

  std::barrier start(kThreads);
  std::vector<AnalysisReport> reports(kThreads);
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < kThreads; ++i)
    pool.emplace_back([&, i] {
      start.arrive_and_wait();
      reports[i] = session.analyze(request);
    });
  for (std::thread& t : pool) t.join();

  for (const AnalysisReport& r : reports) {
    EXPECT_TRUE(r.allMeasuresOk());
    EXPECT_TRUE(r.fromCache);
    EXPECT_EQ(r.analysis.get(), warm.analysis.get());
    for (std::size_t m = 0; m < r.measures.size(); ++m)
      for (std::size_t p = 0; p < r.measures[m].values.size(); ++p)
        EXPECT_EQ(r.measures[m].values[p],
                  reports[0].measures[m].values[p]);
  }
  EXPECT_EQ(session.cacheStats().treeMisses, 1u);
}

TEST(ConcurrentAnalyzer, FleetSharesOnePersistentStore) {
  const std::string dir = ::testing::TempDir() + "imcq_fleet";
  fs::remove_all(dir);

  auto makeRequests = [&] {
    std::vector<AnalysisRequest> requests;
    for (double l : {0.2, 0.3, 0.4, 0.5}) {
      AnalysisRequest req =
          AnalysisRequest::forGalileo(perturbedCas(l),
                                      "cas-" + std::to_string(l))
              .withOptions(viaComposition())
              .measure(MeasureSpec::unreliability({1.0, 2.0}));
      requests.push_back(std::move(req));
    }
    return requests;
  };

  // Reference values from a session with no store at all.
  Analyzer plain;
  std::vector<AnalysisReport> ref = analyzeAll(plain, makeRequests());

  // Worker 1 of the fleet warms the shared directory.
  Analyzer first({.storeDir = dir});
  analyzeAll(first, makeRequests());
  EXPECT_GT(first.cacheStats().storeWrites, 0u);

  // Worker 2 starts cold (fresh symbol table, empty session caches) and
  // serves the same sweep concurrently from the shared store.
  Analyzer second({.storeDir = dir});
  std::vector<AnalysisReport> got = analyzeAll(second, makeRequests(), 4);
  EXPECT_GT(second.cacheStats().storeHits, 0u);

  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(got[i].allMeasuresOk());
    ASSERT_EQ(got[i].measures[0].values.size(),
              ref[i].measures[0].values.size());
    for (std::size_t p = 0; p < ref[i].measures[0].values.size(); ++p)
      EXPECT_EQ(got[i].measures[0].values[p], ref[i].measures[0].values[p])
          << got[i].label << " point " << p;
  }
}

TEST(ConcurrentAnalyzer, ManyDistinctRequestsStressSharedCaches) {
  // Distinct variants on many threads: every cache front takes concurrent
  // insert traffic.  Run twice so the second round takes the hit paths
  // concurrently too.
  std::vector<AnalysisRequest> requests;
  for (double l : {0.2, 0.26, 0.32, 0.38, 0.44, 0.5})
    requests.push_back(
        AnalysisRequest::forGalileo(perturbedCas(l), "cas-" + std::to_string(l))
            .withOptions(viaComposition())
            .measure(MeasureSpec::unreliability({1.0})));

  Analyzer session;
  std::vector<AnalysisReport> cold = analyzeAll(session, requests, 4);
  std::vector<AnalysisReport> warm = analyzeAll(session, requests, 4);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(cold[i].allMeasuresOk());
    EXPECT_TRUE(warm[i].fromCache);
    EXPECT_EQ(warm[i].measures[0].values.at(0),
              cold[i].measures[0].values.at(0));
  }
  EXPECT_EQ(session.cacheStats().treeMisses, requests.size());
}

/// \p tree with the failure rate of basic event \p be scaled by \p factor.
dft::Dft scaleOneRate(const dft::Dft& tree, const std::string& be,
                      double factor) {
  std::vector<dft::Element> elements;
  for (dft::ElementId id = 0; id < tree.size(); ++id) {
    dft::Element e = tree.element(id);
    if (e.name == be) e.be.lambda *= factor;
    elements.push_back(std::move(e));
  }
  return dft::Dft(std::move(elements), tree.top(), tree.inhibitions());
}

TEST(ConcurrentAnalyzer, SymmetricSiblingsPublishFromWorkerThreads) {
  // cps_8x10 holds eight identical AND modules M0..M7 under the cascade
  // System = PAND(M0, P1), P<k> = PAND(M<k>, P<k+1>), P6 = PAND(M6, M7).
  // With symmetry on, the warm request aggregates one of them and
  // instantiates the other seven by renaming on the engine's worker
  // threads, which publish each instance to the module cache under its own
  // exact key.  A what-if on one basic event of M<k> then splices every
  // module whose subtree it leaves unchanged: M0..M<k-1> and P<k+1> for
  // k <= 5, M0..M5 and M7 for k = 6, M0..M6 for k = 7.
  AnalysisOptions opts = viaComposition();
  opts.engine.numThreads = 4;
  const dft::Dft cps = dft::corpus::cascadedPands(8, 10);
  const MeasureSpec measure = MeasureSpec::unreliability({0.5, 1.0});
  Analyzer session;
  AnalysisReport warm = session.analyze(
      AnalysisRequest::forDft(cps, "cps_8x10").withOptions(opts).measure(
          measure));
  ASSERT_TRUE(warm.allMeasuresOk());
  EXPECT_EQ(warm.stats().symmetricModulesReused, 7u);

  for (int k = 0; k < 8; ++k) {
    const std::string be = indexedName("M", k) + "_0";
    SCOPED_TRACE(be);
    const AnalysisRequest whatIf =
        AnalysisRequest::forDft(scaleOneRate(cps, be, 1.5), "what-if")
            .withOptions(opts)
            .measure(measure);
    AnalysisReport report = session.analyze(whatIf);
    EXPECT_FALSE(report.fromCache);
    EXPECT_EQ(report.cache.moduleHits, k <= 5 ? k + 1u : 7u);
    AnalysisReport cold = Analyzer().analyze(whatIf);
    ASSERT_TRUE(report.allMeasuresOk());
    ASSERT_TRUE(cold.allMeasuresOk());
    for (std::size_t p = 0; p < cold.measures[0].values.size(); ++p)
      EXPECT_NEAR(report.measures[0].values[p], cold.measures[0].values[p],
                  1e-12);
  }
}

// ---------------------------------------------------------------------------
// LRU eviction.
// ---------------------------------------------------------------------------

TEST(LruEviction, TreeCacheEvictsLeastRecentlyUsed) {
  AnalyzerOptions opts;
  opts.maxCachedTrees = 2;
  Analyzer session(opts);
  auto request = [&](double l, const std::string& label) {
    return AnalysisRequest::forGalileo(perturbedCas(l), label)
        .withOptions(viaComposition())
        .measure(MeasureSpec::unreliability({1.0}));
  };

  session.analyze(request(0.2, "a"));
  session.analyze(request(0.3, "b"));
  session.analyze(request(0.4, "c"));  // capacity 2: evicts a
  EXPECT_EQ(session.cachedTreeCount(), 2u);
  EXPECT_EQ(session.cacheStats().treeEvictions, 1u);

  EXPECT_TRUE(session.analyze(request(0.3, "b-again")).fromCache);
  EXPECT_FALSE(session.analyze(request(0.2, "a-again")).fromCache);
}

TEST(LruEviction, TreeCacheHitRefreshesRecency) {
  AnalyzerOptions opts;
  opts.maxCachedTrees = 2;
  Analyzer session(opts);
  auto request = [&](double l, const std::string& label) {
    return AnalysisRequest::forGalileo(perturbedCas(l), label)
        .withOptions(viaComposition())
        .measure(MeasureSpec::unreliability({1.0}));
  };

  session.analyze(request(0.2, "a"));
  session.analyze(request(0.3, "b"));
  EXPECT_TRUE(session.analyze(request(0.2, "a-touch")).fromCache);
  session.analyze(request(0.4, "c"));  // b is now the LRU entry
  EXPECT_TRUE(session.analyze(request(0.2, "a-hit")).fromCache);
  EXPECT_FALSE(session.analyze(request(0.3, "b-miss")).fromCache);
}

TEST(LruEviction, ModuleCacheEvictsLeastRecentlyUsed) {
  // Each tree's one cacheable module is the PAND under its root; its key
  // names a's rate.  A what-if on c alone splices the PAND.
  AnalyzerOptions opts;
  opts.maxCachedModules = 3;
  Analyzer session(opts);
  auto serve = [&](double aRate, double cRate) {
    const std::string text =
        "toplevel \"T\";\n\"T\" or \"P\" \"c\";\n\"P\" pand \"a\" \"b\";\n"
        "\"a\" lambda=" + std::to_string(aRate) +
        ";\n\"b\" lambda=1.0;\n\"c\" lambda=" + std::to_string(cRate) +
        ";\n";
    return session.analyze(AnalysisRequest::forGalileo(text, "t")
                               .withOptions(viaComposition())
                               .measure(MeasureSpec::unreliability({1.0})));
  };
  auto spliced = [&](double aRate, double cRate) {
    const AnalysisReport report = serve(aRate, cRate);
    EXPECT_FALSE(report.fromCache);
    EXPECT_EQ(report.cache.moduleHits + report.cache.moduleMisses, 1u);
    return report.cache.moduleHits == 1;
  };

  EXPECT_FALSE(spliced(1.0, 0.5));  // stores A
  EXPECT_FALSE(spliced(2.0, 0.5));  // stores B
  EXPECT_FALSE(spliced(3.0, 0.5));  // stores C
  EXPECT_EQ(session.cachedModuleCount(), 3u);
  EXPECT_TRUE(spliced(1.0, 0.6));   // A is now the most recently used
  EXPECT_FALSE(spliced(4.0, 0.5));  // stores D and evicts B
  EXPECT_EQ(session.cachedModuleCount(), 3u);
  EXPECT_EQ(session.cacheStats().moduleEvictions, 1u);

  // A, C and D splice; B, probed last so that its re-store evicts nothing
  // probed here, misses.
  EXPECT_TRUE(spliced(1.0, 0.7));
  EXPECT_TRUE(spliced(3.0, 0.7));
  EXPECT_TRUE(spliced(4.0, 0.7));
  EXPECT_FALSE(spliced(2.0, 0.7));
}

TEST(LruEviction, ModuleCacheHonorsCapacityBound) {
  AnalyzerOptions opts;
  opts.maxCachedModules = 1;  // the bound is exact for every capacity
  Analyzer session(opts);
  AnalysisRequest request =
      AnalysisRequest::forGalileo(dft::corpus::galileoCas(), "cas")
          .withOptions(viaComposition())
          .measure(MeasureSpec::unreliability({1.0}));
  AnalysisReport report = session.analyze(request);
  EXPECT_TRUE(report.allMeasuresOk());
  // The CAS has several independent modules; all but one were evicted.
  EXPECT_LE(session.cachedModuleCount(), 1u);
  EXPECT_GT(session.cacheStats().moduleEvictions, 0u);
}

TEST(LruEviction, UnboundedCachesNeverEvict) {
  AnalyzerOptions opts;
  opts.maxCachedTrees = 0;  // 0 = unbounded
  opts.maxCachedModules = 0;
  Analyzer session(opts);
  for (double l : {0.2, 0.3, 0.4, 0.5})
    session.analyze(
        AnalysisRequest::forGalileo(perturbedCas(l), "cas")
            .withOptions(viaComposition())
            .measure(MeasureSpec::unreliability({1.0})));
  const analysis::CacheStats stats = session.cacheStats();
  EXPECT_EQ(stats.treeEvictions, 0u);
  EXPECT_EQ(stats.moduleEvictions, 0u);
  EXPECT_EQ(session.cachedTreeCount(), 4u);
}

}  // namespace
}  // namespace imcdft
