#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <sstream>
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
    EXPECT_TRUE(equalModels(classicChain(a, b, hidden), r.model))
        << "seed " << seed;
    EXPECT_GE(r.stats.peakLiveStates, r.model.numStates());
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
    EXPECT_TRUE(equalModels(classicChain(a, b, half), r.model))
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
    std::vector<ActionId> h2f = hiddenFor(r01.model, m2, nullptr);
    ASSERT_EQ(h2, h2f) << "seed " << seed;
    otf::OtfResult r = otf::otfComposeAggregate(r01.model, m2, h2f,
                                                testOptions());
    EXPECT_TRUE(equalModels(classic, r.model)) << "seed " << seed;
  }
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
  EXPECT_THROW(
      {
        try {
          otf::otfComposeAggregate(a, b, {}, testOptions());
        } catch (const ModelError& e) {
          EXPECT_NE(std::string(e.what()).find("share output action"),
                    std::string::npos);
          throw;
        }
      },
      ModelError);
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

    for (std::size_t threshold : {64u, 256u, 1024u}) {
      otf::OtfOptions opts = testOptions();
      opts.refineThreshold = threshold;
      otf::OtfResult r = otf::otfComposeAggregate(a, b, hidden, opts);
      EXPECT_TRUE(equalModels(ref.model, r.model))
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
  // The inline refinement checkpoints once per pass and every 1024 states
  // (site "otf-refine"), so a checkpoint budget can trip inside a refinement
  // round, not only at the frontier.  The trip must unwind as
  // BudgetExceeded, and an unbudgeted rerun must still be byte-identical:
  // the trip may not leave any state behind.
  auto symbols = makeSymbolTable();
  auto [a, b] = bigPair(3, symbols);
  const std::vector<ActionId> hidden = detailHiddenAll(a, b);

  otf::OtfResult ref = otf::otfComposeAggregate(a, b, hidden, testOptions());

  bool trippedInRefine = false;
  for (std::uint64_t cap = 1; cap <= 20000 && !trippedInRefine; ++cap) {
    CancelToken token;
    token.limitCheckpoints(cap);
    otf::OtfOptions opts = testOptions();
    opts.weak.cancel = &token;
    try {
      otf::otfComposeAggregate(a, b, hidden, opts);
      break;  // budget never tripped: every checkpoint fit under the cap
    } catch (const BudgetExceeded& e) {
      if (e.checkpoint() == "otf-refine") trippedInRefine = true;
    }
  }
  EXPECT_TRUE(trippedInRefine)
      << "no checkpoint cap tripped inside the refinement loop";

  otf::OtfResult again =
      otf::otfComposeAggregate(a, b, hidden, testOptions());
  EXPECT_TRUE(equalModels(ref.model, again.model));
}

/// One fused step's intermediate work: peak live states, peak live
/// transitions, states visited and refinement passes.
using Work = std::array<std::size_t, 4>;

std::string formatWork(const std::vector<Work>& rows) {
  std::ostringstream out;
  for (const Work& w : rows)
    out << '{' << w[0] << ", " << w[1] << ", " << w[2] << ", " << w[3]
        << "},\n";
  return out.str();
}

TEST(OtfCompose, IntermediateWorkKeepsItsCounts) {
  // The canonical final bytes cannot show how the engine got there: a
  // refiner that merges less, or later, reaches the same minimal quotient
  // through a larger live region.  These counts pin every inline
  // reduction's effect, since a different partition of the live region
  // moves the peaks, the visits or the pass count.  On a mismatch the
  // measured table is printed in this layout.
  const std::vector<Work> golden = {
      {28, 126, 31, 2}, {11, 50, 11, 1}, {6, 8, 8, 2},
      {33, 122, 35, 2}, {9, 26, 9, 1}, {20, 94, 20, 1},
      {70, 311, 110, 5}, {16, 74, 16, 1}, {40, 138, 47, 3},
      {2, 4, 2, 0}, {38, 124, 38, 2}, {2, 3, 2, 0},
      {20, 73, 24, 2}, {16, 62, 16, 1}, {24, 80, 24, 2},
      {4, 8, 4, 1}, {19, 57, 20, 2}, {5, 10, 6, 1},
      {31, 107, 38, 3}, {20, 53, 22, 2}, {25, 101, 27, 2},
      {3, 5, 3, 0}, {24, 118, 27, 2}, {34, 174, 37, 2},
      {63, 246, 95, 4}, {21, 64, 23, 2}, {34, 175, 35, 2},
      {9, 39, 9, 1}, {31, 155, 40, 3}, {20, 78, 20, 2},
      {7, 18, 7, 1}, {12, 38, 12, 1}, {14, 33, 14, 1},
      {4, 12, 4, 1}, {3, 7, 3, 0}, {30, 146, 30, 2},
      {16, 54, 16, 1}, {4, 9, 5, 1}, {56, 225, 56, 2},
      {45, 240, 72, 4}, {30, 151, 30, 2}, {3, 5, 3, 0},
      {4, 5, 4, 1}, {16, 49, 16, 1}, {5, 5, 5, 1},
      {2, 1, 2, 0}, {44, 170, 45, 2}, {23, 98, 24, 2},
      {7, 13, 7, 1}, {24, 121, 24, 2}, {2, 4, 2, 0},
      {16, 75, 16, 2}, {12, 30, 12, 1}, {21, 62, 27, 2},
      {1, 1, 1, 0}, {21, 56, 21, 2}, {12, 28, 12, 1},
      {3, 5, 3, 0}, {12, 51, 12, 1}, {31, 98, 33, 2},
      {48, 180, 49, 2}, {10, 26, 10, 1}, {4, 4, 4, 1},
      {31, 108, 32, 2}, {1, 0, 1, 0}, {5, 20, 5, 1},
      {22, 92, 22, 1}, {15, 61, 15, 1}, {19, 79, 19, 1},
      {20, 86, 26, 2}, {3, 11, 3, 0}, {4, 8, 4, 1},
      {40, 204, 42, 2}, {2, 2, 2, 0}, {3, 5, 3, 0},
      {3, 5, 3, 0}, {4, 10, 5, 1}, {6, 20, 6, 1},
      {61, 234, 81, 4}, {28, 91, 44, 3}, {9, 33, 9, 1},
      {12, 44, 16, 2}, {16, 67, 16, 2}, {6, 9, 6, 1},
      {12, 51, 12, 1}, {2, 5, 2, 0}, {17, 81, 18, 2},
      {1, 0, 1, 0}, {26, 128, 27, 2}, {2, 1, 2, 0},
      {8, 34, 8, 1}, {42, 209, 42, 2}, {57, 248, 63, 3},
      {4, 7, 4, 1}, {62, 212, 62, 2}, {2, 1, 2, 0},
      {8, 38, 8, 1}, {39, 193, 39, 2}, {47, 221, 48, 2},
      {3, 3, 3, 0}, {4, 4, 4, 1}, {20, 76, 21, 2},
      {28, 108, 30, 2}, {48, 210, 48, 2}, {6, 14, 6, 1},
      {2, 2, 2, 0}, {20, 64, 20, 2}, {6, 11, 6, 1},
      {1, 0, 1, 0}, {4, 5, 4, 1}, {24, 137, 27, 2},
      {7, 14, 8, 1}, {2, 1, 2, 0}, {6, 11, 6, 1},
      {4, 9, 4, 1}, {12, 22, 12, 1}, {8, 22, 8, 1},
      {23, 56, 23, 1}, {2, 1, 2, 0}, {6, 16, 6, 1},
      {1880, 8355, 2221, 7}, {1816, 7733, 2329, 6}, {1968, 8691, 2168, 3},
      {1782, 8033, 2199, 2}, {1686, 7733, 1758, 6}, {1688, 7743, 1754, 3},
      {1603, 7392, 1996, 4}, {1578, 6534, 1877, 2}, {1817, 8186, 2295, 6},
      {1741, 7881, 2418, 8}, {1771, 7953, 2401, 5}, {1757, 7875, 2278, 2},
      {2062, 9046, 2552, 8}, {2072, 9110, 2395, 5}, {2059, 9074, 2375, 4},
      {1933, 8588, 2265, 2}, {1857, 8442, 2299, 6}, {1761, 8119, 2280, 5},
      {1761, 8119, 2288, 4}, {1820, 8311, 2304, 2}, {2123, 9394, 2688, 9},
      {2066, 9147, 2556, 5}, {2131, 9434, 2704, 5}, {2120, 9367, 2533, 2},
  };
  std::vector<Work> measured;
  auto run = [&](const IOIMC& a, const IOIMC& b,
                 const std::vector<ActionId>& hidden,
                 const otf::OtfOptions& opts) {
    otf::OtfResult r = otf::otfComposeAggregate(a, b, hidden, opts);
    measured.push_back({r.stats.peakLiveStates, r.stats.peakLiveTransitions,
                        r.stats.statesVisited, r.stats.refinementRounds});
  };
  // The random pairs of the hide-all and hide-subset tests above.
  for (unsigned seed : {0u, 100u}) {
    for (unsigned s = seed; s < seed + 60; ++s) {
      std::mt19937 rng(s);
      auto symbols = makeSymbolTable();
      auto [a, b] = randomCompatiblePair(rng, symbols);
      std::vector<ActionId> hidden = detailHiddenAll(a, b);
      if (seed == 100) {
        std::vector<ActionId> half;
        for (std::size_t i = 0; i < hidden.size(); i += 2)
          half.push_back(hidden[i]);
        hidden = half;
      }
      run(a, b, hidden, testOptions());
    }
  }
  // The big pairs of AdaptiveCadenceGoldenEquality at each threshold.
  for (unsigned seed = 20; seed < 26; ++seed) {
    auto symbols = makeSymbolTable();
    auto [a, b] = bigPair(seed, symbols);
    for (std::size_t threshold : {4u, 64u, 256u, 1024u}) {
      otf::OtfOptions opts = testOptions();
      opts.refineThreshold = threshold;
      run(a, b, detailHiddenAll(a, b), opts);
    }
  }
  EXPECT_EQ(measured, golden) << "measured:\n" << formatWork(measured);
}

// ---------------------------------------------------------------------------
// Engine-level: Production vs ClassicChain over whole corpus pipelines
// ---------------------------------------------------------------------------

using analysis::Reference;

analysis::AnalysisReport analyzeWith(const dft::Dft& d, Reference reference,
                                     unsigned threads = 1) {
  analysis::Analyzer session;
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
    EXPECT_EQ(fusedSteps(on), on.stats().steps.size()) << f.name;
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
    EXPECT_EQ(fusedSteps(off), 0u);
  }
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
