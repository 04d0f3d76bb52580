#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/error.hpp"
#include "analyze_once.hpp"
#include "dft/builder.hpp"
#include "dft/corpus.hpp"
#include "dft/galileo.hpp"
#include "obs/trace.hpp"

namespace imcdft::analysis {
namespace {

using dft::DftBuilder;

/// CAS variant with the cross-switch failure rate perturbed: only the CPU
/// unit changes, the motor and pump units stay byte-identical.
std::string perturbedCas(double csLambda) {
  std::string text = dft::corpus::galileoCas();
  const std::string needle = "\"CS\" lambda=0.2;";
  auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(),
               "\"CS\" lambda=" + std::to_string(csLambda) + ";");
  return text;
}

TEST(Analyzer, RepeatedRequestIsAPureLookup) {
  Analyzer session;
  AnalysisRequest req = AnalysisRequest::forDft(dft::corpus::cas(), "cas")
                            .measure(MeasureSpec::unreliability({1.0}));
  AnalysisReport first = session.analyze(req);
  AnalysisReport second = session.analyze(req);

  EXPECT_FALSE(first.fromCache);
  EXPECT_EQ(first.cache.treeMisses, 1u);
  EXPECT_TRUE(second.fromCache);
  EXPECT_EQ(second.cache.treeHits, 1u);
  EXPECT_EQ(second.cache.stepsRun, 0u);
  // The underlying pipeline result is literally shared.
  EXPECT_EQ(first.analysis.get(), second.analysis.get());
  ASSERT_EQ(second.measures.size(), 1u);
  EXPECT_TRUE(second.measures[0].ok);
  EXPECT_NEAR(second.measures[0].values.at(0), first.measures[0].values.at(0),
              0.0);
  EXPECT_NEAR(first.measures[0].values.at(0), 0.6579, 1e-3);
}

TEST(Analyzer, ReferenceRunsNeverShareCacheEntriesWithProduction) {
  Analyzer session;
  AnalysisRequest production =
      AnalysisRequest::forDft(dft::corpus::cps(), "cps")
          .measure(MeasureSpec::unreliability({1.0}));
  // Uncapped, production runs every step classic; the fused reference
  // runs every step fused, so the step flags tell the two entries apart.
  AnalysisRequest fused = production;
  fused.options.engine.reference = Reference::FusedChain;

  AnalysisReport first = session.analyze(production);
  AnalysisReport second = session.analyze(fused);
  AnalysisReport third = session.analyze(production);

  // The reference run composes on its own: no tree or module entry of the
  // production run serves it.
  EXPECT_FALSE(second.fromCache);
  EXPECT_EQ(second.cache.treeMisses, 1u);
  EXPECT_EQ(second.cache.moduleHits, 0u);
  ASSERT_FALSE(second.stats().steps.empty());
  for (const CompositionStep& s : second.stats().steps)
    EXPECT_TRUE(s.onTheFly) << s.name;
  // The production entry survives it and still carries production stats.
  EXPECT_TRUE(third.fromCache);
  EXPECT_EQ(third.cache.treeHits, 1u);
  EXPECT_EQ(third.analysis.get(), first.analysis.get());
  ASSERT_FALSE(third.stats().steps.empty());
  for (const CompositionStep& s : third.stats().steps)
    EXPECT_FALSE(s.onTheFly) << s.name;
  EXPECT_EQ(third.measures[0].values, second.measures[0].values);
}

TEST(Analyzer, VariantsShareModulesAcrossTheSession) {
  Analyzer session;
  // Composition path pinned: this test guards the aggregated-module
  // I/O-IMC splice cache (the numeric path reuses whole frontier modules
  // through the tree cache, covered in test_static_combine.cpp).
  AnalysisOptions viaComposition;
  viaComposition.engine.staticCombine = false;
  AnalysisReport base = session.analyze(
      AnalysisRequest::forGalileo(dft::corpus::galileoCas(), "base")
          .withOptions(viaComposition)
          .measure(MeasureSpec::unreliability({1.0})));
  AnalysisReport variant = session.analyze(
      AnalysisRequest::forGalileo(perturbedCas(0.4), "cs=0.4")
          .withOptions(viaComposition)
          .measure(MeasureSpec::unreliability({1.0})));

  EXPECT_NE(base.treeHash, variant.treeHash);
  EXPECT_FALSE(variant.fromCache);
  // The motor and pump units are unchanged, so the variant splices them
  // from the session cache and composes strictly less than a cold run.
  EXPECT_GE(variant.cache.moduleHits, 2u);
  EXPECT_GT(variant.cache.stepsSaved, 0u);
  EXPECT_LT(variant.cache.stepsRun, base.cache.stepsRun);
  EXPECT_EQ(variant.stats().cachedModules, variant.cache.moduleHits);

  // And the numbers are identical to a cold, uncached analysis.
  AnalysisReport cold = analyzeOnce(dft::parseGalileo(perturbedCas(0.4)),
                                    {MeasureSpec::unreliability({1.0})});
  EXPECT_NEAR(variant.measures[0].values.at(0),
              cold.measures[0].values.at(0), 1e-12);
}

TEST(Analyzer, BatchMatchesSequentialColdRuns) {
  const std::vector<double> grid{0.5, 1.0, 2.0};
  // Both pipelines: composition, and the static-combination numeric path
  // with its frontier modules served from the tree cache.  Each batch value is checked against a
  // cold run with the same options, since the two paths only agree with
  // each other up to transient tolerances.
  for (bool staticCombine : {false, true}) {
    SCOPED_TRACE(staticCombine ? "numeric path" : "composition");
    AnalysisOptions options;
    options.engine.staticCombine = staticCombine;
    std::vector<AnalysisRequest> requests;
    for (double l : {0.2, 0.3, 0.45, 0.7})
      requests.push_back(AnalysisRequest::forGalileo(
                             perturbedCas(l), "cs=" + std::to_string(l))
                             .withOptions(options)
                             .measure(MeasureSpec::unreliability(grid)));

    Analyzer session;
    std::vector<AnalysisReport> batch = session.analyzeBatch(requests);
    ASSERT_EQ(batch.size(), requests.size());

    std::size_t batchSteps = 0, coldSteps = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batch[i].label, requests[i].label);
      batchSteps += batch[i].cache.stepsRun;
      AnalysisReport cold =
          Analyzer({.cache = false})
              .analyze(requests[i]);
      EXPECT_EQ(cold.analysis->staticCombo != nullptr, staticCombine);
      coldSteps += cold.stats().steps.size();
      ASSERT_EQ(batch[i].measures.size(), 1u);
      for (std::size_t k = 0; k < grid.size(); ++k)
        EXPECT_NEAR(batch[i].measures[0].values.at(k),
                    cold.measures[0].values.at(k), 1e-12)
            << requests[i].label;
    }
    EXPECT_LT(batchSteps, coldSteps);
    EXPECT_EQ(session.cacheStats().stepsRun, batchSteps);
    EXPECT_GT(session.cacheStats().moduleHits, 0u);
  }
}

TEST(Analyzer, NondeterministicModelYieldsBoundsAndWarning) {
  Analyzer session;
  AnalysisReport report = session.analyze(
      AnalysisRequest::forDft(dft::corpus::figure6a(), "fig6a")
          .measure(MeasureSpec::unreliability({1.0})));

  EXPECT_TRUE(report.nondeterministic());
  ASSERT_EQ(report.measures.size(), 1u);
  const MeasureResult& m = report.measures[0];
  EXPECT_TRUE(m.ok);
  EXPECT_TRUE(m.boundsSubstituted);
  ASSERT_EQ(m.bounds.size(), 1u);
  EXPECT_LE(m.bounds[0].lower, m.bounds[0].upper);
  bool warned = false;
  for (const Diagnostic& d : report.diagnostics)
    if (d.severity == Severity::Warning &&
        d.message.find("nondeterministic") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned);

  // The substituted bounds agree with the explicit bounds measure.
  AnalysisReport explicitBounds = session.analyze(
      AnalysisRequest::forDft(dft::corpus::figure6a())
          .measure(MeasureSpec::unreliabilityBounds({1.0})));
  EXPECT_TRUE(explicitBounds.fromCache);
  EXPECT_NEAR(m.bounds[0].lower,
              explicitBounds.measures[0].bounds.at(0).lower, 1e-12);
  EXPECT_NEAR(m.bounds[0].upper,
              explicitBounds.measures[0].bounds.at(0).upper, 1e-12);
}

TEST(Analyzer, CurveEqualsPerPointUnreliability) {
  const std::vector<double> grid{0.25, 0.5, 1.0, 2.0, 4.0};
  Analyzer session;
  AnalysisReport report =
      session.analyze(AnalysisRequest::forDft(dft::corpus::cps())
                          .measure(MeasureSpec::unreliability(grid)));
  ASSERT_EQ(report.measures[0].values.size(), grid.size());

  // A cold reference: the whole grid as one measure, and each grid point
  // as a measure of its own.
  std::vector<MeasureSpec> measures{MeasureSpec::unreliability(grid)};
  for (double t : grid) measures.push_back(MeasureSpec::unreliability({t}));
  AnalysisReport old = analyzeOnce(dft::corpus::cps(), measures);
  const std::vector<double>& curve = old.measures[0].values;
  ASSERT_EQ(curve.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(curve[i], old.measures[i + 1].values.at(0), 1e-15);
    EXPECT_NEAR(report.measures[0].values[i], curve[i], 1e-12);
  }
}

TEST(Analyzer, MttfMatchesClosedForms) {
  Analyzer session;
  // Single exponential: MTTF = 1/lambda.
  dft::Dft be = DftBuilder()
                    .basicEvent("A", 0.7)
                    .orGate("Top", {"A"})
                    .top("Top")
                    .build();
  AnalysisReport r1 = session.analyze(
      AnalysisRequest::forDft(be).measure(MeasureSpec::mttf()));
  ASSERT_TRUE(r1.measures[0].ok);
  EXPECT_NEAR(r1.measures[0].values.at(0), 1.0 / 0.7, 1e-9);

  // AND of Exp(1), Exp(3): E[max] = 1 + 1/3 - 1/4.
  dft::Dft both = DftBuilder()
                      .basicEvent("A", 1.0)
                      .basicEvent("B", 3.0)
                      .andGate("Top", {"A", "B"})
                      .top("Top")
                      .build();
  AnalysisReport r2 = session.analyze(
      AnalysisRequest::forDft(both).measure(MeasureSpec::mttf()));
  EXPECT_NEAR(r2.measures[0].values.at(0), 1.0 + 1.0 / 3.0 - 0.25, 1e-9);

  // PAND misses the top event when B fails first: infinite MTTF.
  dft::Dft pand = DftBuilder()
                      .basicEvent("A", 1.0)
                      .basicEvent("B", 1.0)
                      .pandGate("Top", {"A", "B"})
                      .top("Top")
                      .build();
  AnalysisReport r3 = session.analyze(
      AnalysisRequest::forDft(pand).measure(MeasureSpec::mttf()));
  ASSERT_TRUE(r3.measures[0].ok);
  EXPECT_TRUE(std::isinf(r3.measures[0].values.at(0)));
  bool warned = false;
  for (const Diagnostic& d : r3.diagnostics)
    if (d.severity == Severity::Warning &&
        d.message.find("infinite") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned);
}

TEST(Analyzer, RepairableMeasuresMatchOldFacade) {
  dft::Dft tree = dft::corpus::repairableAnd(1.0, 2.0);
  Analyzer session;
  AnalysisReport report = session.analyze(
      AnalysisRequest::forDft(tree)
          .measure(MeasureSpec::unavailability({0.5, 1.0, 2.0}))
          .measure(MeasureSpec::steadyStateUnavailability()));

  // A cold reference with one unavailability measure per time point.
  AnalysisReport old = analyzeOnce(
      tree, {MeasureSpec::unavailability({0.5}),
             MeasureSpec::unavailability({1.0}),
             MeasureSpec::unavailability({2.0}),
             MeasureSpec::steadyStateUnavailability()});
  ASSERT_EQ(report.measures.size(), 2u);
  ASSERT_TRUE(report.measures[0].ok);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(report.measures[0].values.at(i),
                old.measures[i].values.at(0), 1e-12);
  ASSERT_TRUE(report.measures[1].ok);
  EXPECT_NEAR(report.measures[1].values.at(0), old.measures[3].values.at(0),
              1e-12);
}

TEST(Analyzer, InapplicableMeasuresFailSoftly) {
  Analyzer session;
  // Steady-state unavailability of an irreparable tree: per-measure error,
  // no exception, other measures still served.
  AnalysisReport report = session.analyze(
      AnalysisRequest::forDft(dft::corpus::cps())
          .measure(MeasureSpec::unreliability({1.0}))
          .measure(MeasureSpec::steadyStateUnavailability()));
  ASSERT_EQ(report.measures.size(), 2u);
  EXPECT_TRUE(report.measures[0].ok);
  EXPECT_FALSE(report.measures[1].ok);
  EXPECT_FALSE(report.measures[1].error.empty());
  EXPECT_FALSE(report.allMeasuresOk());

  // An empty time grid is rejected per measure as well.
  AnalysisReport empty = session.analyze(
      AnalysisRequest::forDft(dft::corpus::cps())
          .measure(MeasureSpec::unreliability({})));
  EXPECT_FALSE(empty.measures[0].ok);
}

TEST(Analyzer, GalileoTextAndInMemorySourcesAgree) {
  Analyzer session;
  AnalysisReport viaText = session.analyze(
      AnalysisRequest::forGalileo(dft::corpus::galileoCas())
          .measure(MeasureSpec::unreliability({1.0})));
  AnalysisReport viaTree = session.analyze(
      AnalysisRequest::forDft(dft::corpus::cas())
          .measure(MeasureSpec::unreliability({1.0})));

  // Same canonical tree: the second request is served from the cache even
  // though the source representation differs.
  EXPECT_EQ(viaText.treeHash, viaTree.treeHash);
  EXPECT_TRUE(viaTree.fromCache);
  EXPECT_NEAR(viaText.measures[0].values.at(0),
              viaTree.measures[0].values.at(0), 0.0);
}

TEST(Analyzer, CacheCanBeDisabled) {
  AnalyzerOptions opts;
  opts.cache = false;
  Analyzer session(opts);
  AnalysisRequest req = AnalysisRequest::forDft(dft::corpus::cas())
                            .measure(MeasureSpec::unreliability({1.0}));
  AnalysisReport first = session.analyze(req);
  AnalysisReport second = session.analyze(req);
  EXPECT_FALSE(second.fromCache);
  EXPECT_EQ(second.cache.moduleHits, 0u);
  EXPECT_EQ(first.cache.stepsRun, second.cache.stepsRun);
  EXPECT_EQ(session.cachedTreeCount(), 0u);
  EXPECT_EQ(session.cachedModuleCount(), 0u);
}

TEST(Analyzer, ForeignSymbolTableIsRejected) {
  // Every cached model interns in the session table, so a request may name
  // no table or the session's own; any other table is malformed input.
  Analyzer session;
  AnalysisRequest foreign = AnalysisRequest::forDft(dft::corpus::cas())
                                .measure(MeasureSpec::unreliability({1.0}));
  foreign.options.conversion.symbols = ioimc::makeSymbolTable();
  EXPECT_THROW(session.analyze(foreign), Error);
  EXPECT_EQ(session.cachedTreeCount(), 0u);
  EXPECT_EQ(session.cachedModuleCount(), 0u);

  // The session's own table is served and cached like a null one.
  AnalysisRequest own = AnalysisRequest::forDft(dft::corpus::cas())
                            .measure(MeasureSpec::unreliability({1.0}));
  own.options.engine.staticCombine = false;
  own.options.conversion.symbols = session.symbols();
  AnalysisReport first = session.analyze(own);
  EXPECT_FALSE(first.fromCache);
  EXPECT_EQ(first.analysis->closedModel.symbols(), session.symbols());
  EXPECT_GT(session.cachedModuleCount(), 0u);

  AnalysisRequest plain = own;
  plain.options.conversion.symbols = nullptr;
  AnalysisReport second = session.analyze(plain);
  EXPECT_TRUE(second.fromCache);
  EXPECT_EQ(second.analysis, first.analysis);
}

TEST(Analyzer, TimingsAreRecorded) {
  // Phase times are the request's spans.
  Analyzer session;
  auto tracedRequest = [&session] {
    obs::clearTrace();
    obs::setTraceEnabled(true);
    (void)session.analyze(
        AnalysisRequest::forGalileo(dft::corpus::galileoCas())
            .measure(MeasureSpec::unreliability({1.0})));
    obs::setTraceEnabled(false);
    const obs::SelfTimes spans = obs::selfTimes(obs::snapshotTrace());
    obs::clearTrace();
    return spans;
  };
  const obs::SelfTimes cold = tracedRequest();
  EXPECT_GT(cold.inclusiveOf("compose"), 0.0);
  EXPECT_GT(cold.inclusiveOf("request"), 0.0);
  // A cache hit skips convert/compose/extract entirely.
  const obs::SelfTimes hit = tracedRequest();
  EXPECT_EQ(hit.inclusive.count("compose"), 0u);
  EXPECT_EQ(hit.inclusive.count("convert"), 0u);
}

}  // namespace
}  // namespace imcdft::analysis
