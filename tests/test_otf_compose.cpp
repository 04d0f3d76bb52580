#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "dft/corpus.hpp"
#include "ioimc/builder.hpp"
#include "ioimc/compose.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/ops.hpp"
#include "ioimc/otf_compose.hpp"

/// The fused compose-and-minimize engine (ioimc/otf_compose.hpp) against
/// the classic chain it replaces.  The core contract is *byte identity*:
/// for any compatible pair and hide set, otfComposeAggregate must produce
/// exactly aggregateFixpoint(collapseUnobservableSinks(hide(compose(a,b))))
/// — same states, same transition bytes, same rates — because only then are
/// all downstream measures bit-identical between --on-the-fly on and off.
/// Random models here are deliberately nastier than converted DFTs
/// (rampant nondeterminism, tau cycles, dead regions), and the fused
/// engine's refinement threshold is dropped to 4 so that collapses happen
/// on graphs this small at all.

namespace imcdft::ioimc {
namespace {

struct GeneratorPools {
  std::vector<std::string> outputs;
  std::vector<std::string> inputs;
  std::string internal;
};

IOIMC randomModel(std::mt19937& rng, const SymbolTablePtr& symbols,
                  const std::string& name, const GeneratorPools& pools) {
  std::uniform_int_distribution<int> stateCount(3, 10);
  std::uniform_real_distribution<double> rate(0.1, 3.0);
  std::uniform_int_distribution<int> coin(0, 1);

  IOIMCBuilder b(name, symbols);
  const int n = stateCount(rng);
  for (int i = 0; i < n; ++i) b.addState();
  b.setInitial(0);

  std::vector<ActionId> actions;
  for (const std::string& o : pools.outputs) actions.push_back(b.output(o));
  for (const std::string& i : pools.inputs) actions.push_back(b.input(i));
  actions.push_back(b.internal(pools.internal));
  b.declareLabel("down");

  std::uniform_int_distribution<int> stateDist(0, n - 1);
  std::uniform_int_distribution<std::size_t> actionDist(0, actions.size() - 1);
  std::uniform_int_distribution<int> interCount(0, 3);
  std::uniform_int_distribution<int> markovCount(0, 2);
  for (int s = 0; s < n; ++s) {
    const int ni = interCount(rng);
    for (int k = 0; k < ni; ++k)
      b.interactive(static_cast<StateId>(s), actions[actionDist(rng)],
                    static_cast<StateId>(stateDist(rng)));
    const int nm = markovCount(rng);
    for (int k = 0; k < nm; ++k)
      b.markovian(static_cast<StateId>(s), rate(rng),
                  static_cast<StateId>(stateDist(rng)));
    if (coin(rng)) b.label(static_cast<StateId>(s), "down");
  }
  return std::move(b).build();
}

std::pair<IOIMC, IOIMC> randomCompatiblePair(std::mt19937& rng,
                                             const SymbolTablePtr& symbols) {
  GeneratorPools poolsA{{"oa0", "oa1"}, {"ob0", "ob1", "ext"}, "ha"};
  GeneratorPools poolsB{{"ob0", "ob1"}, {"oa0", "oa1", "ext"}, "hb"};
  IOIMC a = randomModel(rng, symbols, "A", poolsA);
  IOIMC b = randomModel(rng, symbols, "B", poolsB);
  return {std::move(a), std::move(b)};
}

/// Exact structural equality — states, initial, signature, labels, and
/// every transition byte (rates compared as doubles, i.e. bitwise for
/// equal values).
::testing::AssertionResult equalModels(const IOIMC& x, const IOIMC& y) {
  if (x.numStates() != y.numStates())
    return ::testing::AssertionFailure()
           << "state counts differ: " << x.numStates() << " vs "
           << y.numStates();
  if (x.initial() != y.initial())
    return ::testing::AssertionFailure() << "initial states differ";
  if (!(x.signature() == y.signature()))
    return ::testing::AssertionFailure() << "signatures differ";
  if (x.labelNames() != y.labelNames())
    return ::testing::AssertionFailure() << "label universes differ";
  for (StateId s = 0; s < x.numStates(); ++s) {
    if (x.labelMask(s) != y.labelMask(s))
      return ::testing::AssertionFailure() << "label mask differs at " << s;
    auto xi = x.interactive(s), yi = y.interactive(s);
    if (xi.size() != yi.size() ||
        !std::equal(xi.begin(), xi.end(), yi.begin()))
      return ::testing::AssertionFailure()
             << "interactive row differs at " << s;
    auto xm = x.markovian(s), ym = y.markovian(s);
    if (xm.size() != ym.size())
      return ::testing::AssertionFailure() << "markovian row differs at " << s;
    for (std::size_t i = 0; i < xm.size(); ++i)
      if (xm[i].rate != ym[i].rate || xm[i].to != ym[i].to)
        return ::testing::AssertionFailure()
               << "markovian transition differs at " << s;
  }
  return ::testing::AssertionSuccess();
}

/// The classic per-step chain the fused engine replaces (the exact calls
/// of the engine's hideAndAggregatePool).
IOIMC classicChain(const IOIMC& a, const IOIMC& b,
                   const std::vector<ActionId>& hidden) {
  return aggregateFixpoint(
      collapseUnobservableSinks(hide(compose(a, b), hidden)));
}

otf::OtfOptions testOptions() {
  otf::OtfOptions opts;
  opts.refineThreshold = 4;  // random models are tiny; force collapses
  return opts;
}

/// All outputs of the composite (out(A) u out(B)) — the hide set of a
/// final composition step.
std::vector<ActionId> detailHiddenAll(const IOIMC& a, const IOIMC& b) {
  std::vector<ActionId> outs = a.signature().outputs();
  outs.insert(outs.end(), b.signature().outputs().begin(),
              b.signature().outputs().end());
  std::sort(outs.begin(), outs.end());
  outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
  return outs;
}

TEST(OtfCompose, RandomPairsHideAllMatchClassicChain) {
  for (unsigned seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(seed);
    auto symbols = makeSymbolTable();
    auto [a, b] = randomCompatiblePair(rng, symbols);
    const std::vector<ActionId> hidden =
        detailHiddenAll(a, b);  // defined below via composite signature
    otf::OtfResult r = otf::otfComposeAggregate(a, b, hidden, testOptions());
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.failureReason;
    EXPECT_TRUE(equalModels(classicChain(a, b, hidden), *r.model))
        << "seed " << seed;
    EXPECT_GE(r.stats.peakLiveStates, r.model->numStates());
  }
}

TEST(OtfCompose, RandomPairsHideSubsetMatchClassicChain) {
  for (unsigned seed = 100; seed < 160; ++seed) {
    std::mt19937 rng(seed);
    auto symbols = makeSymbolTable();
    auto [a, b] = randomCompatiblePair(rng, symbols);
    std::vector<ActionId> hidden = detailHiddenAll(a, b);
    // Keep every other output visible, like a mid-pool step would.
    std::vector<ActionId> half;
    for (std::size_t i = 0; i < hidden.size(); i += 2)
      half.push_back(hidden[i]);
    otf::OtfResult r = otf::otfComposeAggregate(a, b, half, testOptions());
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.failureReason;
    EXPECT_TRUE(equalModels(classicChain(a, b, half), *r.model))
        << "seed " << seed;
  }
}

TEST(OtfCompose, RandomChainsMatchClassicChain) {
  // Fold three models left to right through both engines, hiding all
  // outputs that are not consumed further — the shape of the engine's
  // chain of top-level compositions.
  for (unsigned seed = 200; seed < 240; ++seed) {
    std::mt19937 rng(seed);
    auto symbols = makeSymbolTable();
    GeneratorPools pools0{{"x0"}, {"x1", "x2"}, "h0"};
    GeneratorPools pools1{{"x1"}, {"x0", "x2"}, "h1"};
    GeneratorPools pools2{{"x2"}, {"x0", "x1"}, "h2"};
    IOIMC m0 = randomModel(rng, symbols, "M0", pools0);
    IOIMC m1 = randomModel(rng, symbols, "M1", pools1);
    IOIMC m2 = randomModel(rng, symbols, "M2", pools2);

    auto hiddenFor = [&](const IOIMC& l, const IOIMC& r,
                         const IOIMC* rest) {
      std::vector<ActionId> outs = l.signature().outputs();
      outs.insert(outs.end(), r.signature().outputs().begin(),
                  r.signature().outputs().end());
      std::sort(outs.begin(), outs.end());
      outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
      std::vector<ActionId> hidden;
      for (ActionId o : outs)
        if (!rest || !rest->signature().isInput(o)) hidden.push_back(o);
      return hidden;
    };

    // Classic fold.
    std::vector<ActionId> h01 = hiddenFor(m0, m1, &m2);
    IOIMC classic01 = classicChain(m0, m1, h01);
    std::vector<ActionId> h2 = hiddenFor(classic01, m2, nullptr);
    IOIMC classic = classicChain(classic01, m2, h2);

    // Fused fold.
    otf::OtfResult r01 = otf::otfComposeAggregate(m0, m1, h01, testOptions());
    ASSERT_TRUE(r01.ok) << "seed " << seed << ": " << r01.failureReason;
    std::vector<ActionId> h2f = hiddenFor(*r01.model, m2, nullptr);
    ASSERT_EQ(h2, h2f) << "seed " << seed;
    otf::OtfResult r = otf::otfComposeAggregate(*r01.model, m2, h2f,
                                                testOptions());
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.failureReason;
    EXPECT_TRUE(equalModels(classic, *r.model)) << "seed " << seed;
  }
}

TEST(OtfCompose, LiveStateCapFailsInsteadOfAnswering) {
  std::mt19937 rng(7);
  auto symbols = makeSymbolTable();
  auto [a, b] = randomCompatiblePair(rng, symbols);
  otf::OtfOptions opts = testOptions();
  opts.maxLiveStates = 1;
  otf::OtfResult r = otf::otfComposeAggregate(a, b, detailHiddenAll(a, b),
                                              opts);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.model.has_value());
  EXPECT_NE(r.failureReason.find("cap"), std::string::npos);
}

TEST(OtfCompose, IncompatibleOperandsReportTheComposeError) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder ba("A", symbols), bb("B", symbols);
  ba.setInitial(ba.addState());
  bb.setInitial(bb.addState());
  ba.output("clash");
  bb.output("clash");
  IOIMC a = std::move(ba).build();
  IOIMC b = std::move(bb).build();
  otf::OtfResult r = otf::otfComposeAggregate(a, b, {}, testOptions());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failureReason.find("share output action"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine-level: --on-the-fly on vs off over whole corpus pipelines
// ---------------------------------------------------------------------------

analysis::AnalysisReport analyzeWith(const dft::Dft& d, bool onTheFly,
                                     unsigned threads = 1,
                                     std::size_t maxVisited = 0) {
  analysis::Analyzer session({.cacheTrees = false, .cacheModules = false});
  analysis::AnalysisRequest req =
      analysis::AnalysisRequest::forDft(d)
          .measure(analysis::MeasureSpec::unreliability({0.5, 1.0, 2.0}));
  req.options.engine.numThreads = threads;
  req.options.engine.onTheFly = onTheFly;
  req.options.engine.onTheFlyMaxVisited = maxVisited;
  req.options.engine.staticCombine = false;  // exercise composition
  return session.analyze(req);
}

TEST(OtfEngine, MeasuresBitIdenticalAcrossCorpus) {
  const struct {
    const char* name;
    dft::Dft tree;
  } families[] = {
      {"cps", dft::corpus::cps()},
      {"cas", dft::corpus::cas()},
      {"hecs", dft::corpus::hecs()},
      {"cpand_3x2", dft::corpus::cascadedPand(3, 2)},
      {"cps_4x6", dft::corpus::cascadedPands(4, 6)},
      {"fig10b", dft::corpus::figure10b()},
  };
  for (const auto& f : families) {
    analysis::AnalysisReport off = analyzeWith(f.tree, false);
    analysis::AnalysisReport on = analyzeWith(f.tree, true);
    ASSERT_TRUE(on.measures[0].ok && off.measures[0].ok) << f.name;
    // The whole point: not close, *identical*.
    EXPECT_EQ(on.measures[0].values, off.measures[0].values) << f.name;
    EXPECT_GT(on.stats().onTheFlySteps, 0u) << f.name;
    EXPECT_EQ(on.stats().onTheFlyFallbacks, 0u) << f.name;
    EXPECT_EQ(off.stats().onTheFlySteps, 0u) << f.name;
    EXPECT_LE(on.stats().peakComposedStates, off.stats().peakComposedStates)
        << f.name;
    // Step structure is shared; only the peak bookkeeping differs.
    EXPECT_EQ(on.stats().steps.size(), off.stats().steps.size()) << f.name;
    EXPECT_EQ(on.analysis->closedModel.numStates(),
              off.analysis->closedModel.numStates())
        << f.name;
  }
}

// Deep PAND-over-module chains (static combination cannot apply) and wide
// CPS families: every step fuses, and the fused peak stays strictly below
// the classic product in both states and transitions.
TEST(OtfEngine, FusedPeakBelowClassicOnDeepFamilies) {
  const struct {
    const char* name;
    dft::Dft tree;
  } families[] = {
      {"cpand_4x2", dft::corpus::cascadedPand(4, 2)},
      {"cpand_4x3", dft::corpus::cascadedPand(4, 3)},
      {"cpand_6x2", dft::corpus::cascadedPand(6, 2)},
      {"cps_8x10", dft::corpus::cascadedPands(8, 10)},
      {"cps_6x14", dft::corpus::cascadedPands(6, 14)},
  };
  for (const auto& f : families) {
    SCOPED_TRACE(f.name);
    analysis::AnalysisReport off = analyzeWith(f.tree, false);
    analysis::AnalysisReport on = analyzeWith(f.tree, true);
    ASSERT_TRUE(on.measures[0].ok && off.measures[0].ok);
    EXPECT_EQ(on.measures[0].values, off.measures[0].values);
    for (double v : on.measures[0].values) EXPECT_FALSE(std::isnan(v));
    EXPECT_LT(on.stats().peakComposedStates, off.stats().peakComposedStates);
    EXPECT_LT(on.stats().peakComposedTransitions,
              off.stats().peakComposedTransitions);
    EXPECT_EQ(on.stats().onTheFlySteps, on.stats().steps.size());
    EXPECT_EQ(on.stats().onTheFlyFallbacks, 0u);
    EXPECT_EQ(off.stats().onTheFlySteps, 0u);
  }
}

TEST(OtfEngine, ForcedFallbackIsCountedAndBitIdentical) {
  dft::Dft d = dft::corpus::cascadedPands(4, 6);
  analysis::AnalysisReport off = analyzeWith(d, false);
  // A 1-state live cap makes every fused step fail immediately; the engine
  // must fall back to the classic chain per step — and still be bitwise
  // right, with the failures counted and explained.
  analysis::AnalysisReport capped = analyzeWith(d, true, 1, /*maxVisited=*/1);
  EXPECT_EQ(capped.measures[0].values, off.measures[0].values);
  EXPECT_EQ(capped.stats().onTheFlySteps, 0u);
  EXPECT_EQ(capped.stats().onTheFlyFallbacks, capped.stats().steps.size());
  ASSERT_FALSE(capped.stats().onTheFlyFallbackReasons.empty());
  EXPECT_NE(capped.stats().onTheFlyFallbackReasons.front().find("cap"),
            std::string::npos);
  bool warned = false;
  for (const analysis::Diagnostic& diag : capped.diagnostics)
    if (diag.severity == analysis::Severity::Warning &&
        diag.message.find("fell back") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned);
}

TEST(OtfEngine, ThreadCountDoesNotChangeBits) {
  dft::Dft d = dft::corpus::cascadedPand(3, 2);
  analysis::AnalysisReport one = analyzeWith(d, true, 1);
  analysis::AnalysisReport four = analyzeWith(d, true, 4);
  EXPECT_EQ(one.measures[0].values, four.measures[0].values);
  EXPECT_EQ(one.stats().steps.size(), four.stats().steps.size());
}

TEST(OtfEngine, SavedPeakCounterTracksFusedSteps) {
  dft::Dft d = dft::corpus::cascadedPands(4, 6);
  analysis::AnalysisReport on = analyzeWith(d, true);
  EXPECT_GT(on.stats().onTheFlySteps, 0u);
  // Every fused step's peak is bounded by the |A| x |B| product bound, so
  // the saved-peak counter can only be positive when anything was fused.
  EXPECT_GT(on.stats().onTheFlySavedPeakStates, 0u);
}

}  // namespace
}  // namespace imcdft::ioimc
