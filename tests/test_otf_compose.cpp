#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/cancel.hpp"
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
/// all downstream measures bit-identical between the Production and
/// ClassicChain references.
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
/// of the engine's classicStep).
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

/// Random mostly-Markovian models whose product keeps a live region of
/// a few thousand states (distinct rates keep merges rare), so refinement
/// rounds recompute hundreds of states at a time.
IOIMC bigModel(std::mt19937& rng, const SymbolTablePtr& symbols,
               const std::string& name, const std::string& out,
               const std::string& in) {
  std::uniform_int_distribution<int> stateCount(40, 60);
  std::uniform_real_distribution<double> rate(0.1, 5.0);
  std::uniform_int_distribution<int> coin(0, 3);

  IOIMCBuilder b(name, symbols);
  const int n = stateCount(rng);
  for (int i = 0; i < n; ++i) b.addState();
  b.setInitial(0);
  const ActionId o = b.output(out);
  const ActionId i = b.input(in);
  b.declareLabel("down");

  std::uniform_int_distribution<int> stateDist(0, n - 1);
  for (int s = 0; s < n; ++s) {
    b.markovian(static_cast<StateId>(s), rate(rng),
                static_cast<StateId>(stateDist(rng)));
    b.markovian(static_cast<StateId>(s), rate(rng),
                static_cast<StateId>(stateDist(rng)));
    if (coin(rng) == 0)
      b.interactive(static_cast<StateId>(s), o,
                    static_cast<StateId>(stateDist(rng)));
    if (coin(rng) == 1)
      b.interactive(static_cast<StateId>(s), i,
                    static_cast<StateId>(stateDist(rng)));
    if (coin(rng) == 2) b.label(static_cast<StateId>(s), "down");
  }
  return std::move(b).build();
}

std::pair<IOIMC, IOIMC> bigPair(unsigned seed, const SymbolTablePtr& symbols) {
  std::mt19937 rng(seed);
  IOIMC a = bigModel(rng, symbols, "A", "ping", "pong");
  IOIMC b = bigModel(rng, symbols, "B", "pong", "ping");
  return {std::move(a), std::move(b)};
}

TEST(OtfCompose, AdaptiveCadenceGoldenEquality) {
  // The refinement threshold and the adaptive cadence decide only *when*
  // refinement passes run, never what the engine finally computes: every
  // threshold must yield identical bytes.
  bool timingChanged = false;
  for (unsigned seed = 20; seed < 26; ++seed) {
    auto symbols = makeSymbolTable();
    auto [a, b] = bigPair(seed, symbols);
    const std::vector<ActionId> hidden = detailHiddenAll(a, b);

    otf::OtfResult ref = otf::otfComposeAggregate(a, b, hidden, testOptions());
    ASSERT_TRUE(ref.ok) << "seed " << seed << ": " << ref.failureReason;

    for (std::size_t threshold : {64u, 256u, 1024u}) {
      otf::OtfOptions opts = testOptions();
      opts.refineThreshold = threshold;
      otf::OtfResult r = otf::otfComposeAggregate(a, b, hidden, opts);
      ASSERT_TRUE(r.ok) << "seed " << seed << " threshold " << threshold
                        << ": " << r.failureReason;
      EXPECT_TRUE(equalModels(*ref.model, *r.model))
          << "seed " << seed << " threshold " << threshold;
      if (r.stats.refinementRounds != ref.stats.refinementRounds)
        timingChanged = true;
    }
  }
  // The sweep must actually have moved the passes, or it compared one
  // schedule with itself.
  EXPECT_TRUE(timingChanged);
}

TEST(OtfCompose, BudgetTripInsideRefinementUnwindsCleanly) {
  // The partial refinement checkpoints every 128 recomputed states (site
  // "otf-refine"), so a checkpoint budget can trip inside a refinement
  // round, not only at the frontier.  The trip must unwind as
  // BudgetExceeded, and an unbudgeted rerun must still be byte-identical:
  // the trip may not leave any state behind.
  auto symbols = makeSymbolTable();
  auto [a, b] = bigPair(3, symbols);
  const std::vector<ActionId> hidden = detailHiddenAll(a, b);

  otf::OtfResult ref = otf::otfComposeAggregate(a, b, hidden, testOptions());
  ASSERT_TRUE(ref.ok) << ref.failureReason;

  bool trippedInRefine = false;
  for (std::uint64_t cap = 1; cap <= 20000 && !trippedInRefine; ++cap) {
    CancelToken token;
    token.limitCheckpoints(cap);
    otf::OtfOptions opts = testOptions();
    opts.weak.cancel = &token;
    try {
      otf::OtfResult r = otf::otfComposeAggregate(a, b, hidden, opts);
      ASSERT_TRUE(r.ok) << r.failureReason;
      break;  // budget never tripped: every checkpoint fit under the cap
    } catch (const BudgetExceeded& e) {
      if (e.checkpoint() == "otf-refine") trippedInRefine = true;
    }
  }
  EXPECT_TRUE(trippedInRefine)
      << "no checkpoint cap tripped inside the refinement loop";

  otf::OtfResult again =
      otf::otfComposeAggregate(a, b, hidden, testOptions());
  ASSERT_TRUE(again.ok) << again.failureReason;
  EXPECT_TRUE(equalModels(*ref.model, *again.model));
}

// ---------------------------------------------------------------------------
// Engine-level: Production vs ClassicChain over whole corpus pipelines
// ---------------------------------------------------------------------------

using analysis::Reference;

analysis::AnalysisReport analyzeWith(const dft::Dft& d, Reference reference,
                                     unsigned threads = 1) {
  analysis::Analyzer session({.cache = false});
  analysis::AnalysisRequest req =
      analysis::AnalysisRequest::forDft(d)
          .measure(analysis::MeasureSpec::unreliability({0.5, 1.0, 2.0}));
  req.options.engine.numThreads = threads;
  req.options.engine.reference = reference;
  req.options.engine.staticCombine = false;  // exercise composition
  return session.analyze(req);
}

/// Steps the fused engine served.
std::size_t fusedSteps(const analysis::AnalysisReport& r) {
  const std::vector<analysis::CompositionStep>& steps = r.stats().steps;
  return static_cast<std::size_t>(
      std::count_if(steps.begin(), steps.end(),
                    [](const analysis::CompositionStep& s) {
                      return s.onTheFly;
                    }));
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
    analysis::AnalysisReport off = analyzeWith(f.tree, Reference::ClassicChain);
    analysis::AnalysisReport on = analyzeWith(f.tree, Reference::FusedChain);
    ASSERT_TRUE(on.measures[0].ok && off.measures[0].ok) << f.name;
    // The whole point: not close, *identical*.
    EXPECT_EQ(on.measures[0].values, off.measures[0].values) << f.name;
    EXPECT_GT(fusedSteps(on), 0u) << f.name;
    EXPECT_EQ(on.stats().onTheFlyFallbacks, 0u) << f.name;
    EXPECT_EQ(fusedSteps(off), 0u) << f.name;
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
    analysis::AnalysisReport off = analyzeWith(f.tree, Reference::ClassicChain);
    analysis::AnalysisReport on = analyzeWith(f.tree, Reference::FusedChain);
    ASSERT_TRUE(on.measures[0].ok && off.measures[0].ok);
    EXPECT_EQ(on.measures[0].values, off.measures[0].values);
    for (double v : on.measures[0].values) EXPECT_FALSE(std::isnan(v));
    EXPECT_LT(on.stats().peakComposedStates, off.stats().peakComposedStates);
    EXPECT_LT(on.stats().peakComposedTransitions,
              off.stats().peakComposedTransitions);
    EXPECT_EQ(fusedSteps(on), on.stats().steps.size());
    EXPECT_EQ(on.stats().onTheFlyFallbacks, 0u);
    EXPECT_EQ(fusedSteps(off), 0u);
  }
}

TEST(OtfEngine, ForcedFallbackIsCountedAndBitIdentical) {
  dft::Dft d = dft::corpus::cascadedPands(4, 6);
  analysis::AnalysisReport off = analyzeWith(d, Reference::ClassicChain);
  // ForcedFallback's 1-state live cap makes every fused step fail
  // immediately; the engine must fall back to the classic chain per step —
  // and still be bitwise right, with the failures counted and explained.
  analysis::AnalysisReport capped = analyzeWith(d, Reference::ForcedFallback);
  EXPECT_EQ(capped.measures[0].values, off.measures[0].values);
  EXPECT_EQ(fusedSteps(capped), 0u);
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
  analysis::AnalysisReport one = analyzeWith(d, Reference::Production, 1);
  analysis::AnalysisReport four = analyzeWith(d, Reference::Production, 4);
  EXPECT_EQ(one.measures[0].values, four.measures[0].values);
  EXPECT_EQ(one.stats().steps.size(), four.stats().steps.size());
}

TEST(OtfEngine, FusedStepPeaksStayWithinProductBound) {
  dft::Dft d = dft::corpus::cascadedPands(4, 6);
  analysis::AnalysisReport on = analyzeWith(d, Reference::FusedChain);
  EXPECT_GT(fusedSteps(on), 0u);
  // A fused step's peak live region is bounded by the |A| x |B| product
  // bound, and on this family some step stays strictly below it.
  bool below = false;
  for (const analysis::CompositionStep& s : on.stats().steps) {
    if (!s.onTheFly) continue;
    EXPECT_LE(s.composedStates, s.leftStates * s.rightStates) << s.name;
    below = below || s.composedStates < s.leftStates * s.rightStates;
  }
  EXPECT_TRUE(below);
}

}  // namespace
}  // namespace imcdft::ioimc
