#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "dft/corpus.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/builder.hpp"
#include "ioimc/compose.hpp"
#include "ioimc/ops.hpp"

/// Invariants of the flat-storage (CSR) I/O-IMC core, checked on randomized
/// models: composition is commutative up to strong bisimulation, the weak
/// quotient is idempotent, and the refactored pipeline reproduces the
/// pre-refactor measure results on the paper's example systems (the golden
/// values below were captured from the vector-of-vectors implementation at
/// PR 1 tip; on the capture machine the refactored pipeline reproduces them
/// byte-for-byte, the test asserts 1e-12 to stay robust against libm
/// differences across machines).  The engine's parallel module aggregation
/// must be bitwise deterministic in the thread count; that comparison runs
/// in-process and is exact.

namespace imcdft::ioimc {
namespace {

// ---------------------------------------------------------------------------
// Randomized model generator
// ---------------------------------------------------------------------------

struct GeneratorPools {
  std::vector<std::string> outputs;   ///< owned output actions
  std::vector<std::string> inputs;    ///< listened-to actions
  std::string internal;               ///< private internal action
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

/// A compatible pair: disjoint outputs, private internals, a shared
/// external input, and each model listening to the other's outputs.
std::pair<IOIMC, IOIMC> randomCompatiblePair(std::mt19937& rng,
                                             const SymbolTablePtr& symbols) {
  GeneratorPools poolsA{{"oa0", "oa1"}, {"ob0", "ob1", "ext"}, "ha"};
  GeneratorPools poolsB{{"ob0", "ob1"}, {"oa0", "oa1", "ext"}, "hb"};
  IOIMC a = randomModel(rng, symbols, "A", poolsA);
  IOIMC b = randomModel(rng, symbols, "B", poolsB);
  return {std::move(a), std::move(b)};
}

// ---------------------------------------------------------------------------
// Strong-bisimilarity oracle: disjoint union + one partition refinement
// ---------------------------------------------------------------------------

/// True when the initial states of \p x and \p y fall into the same class
/// of the strong bisimulation on their disjoint union.  Requires equal
/// signatures; label universes are unified by name.
bool stronglyBisimilar(const IOIMC& x, const IOIMC& y) {
  EXPECT_EQ(x.signature(), y.signature());
  std::vector<std::string> labelNames = x.labelNames();
  std::vector<int> yRemap(y.labelNames().size());
  for (std::size_t i = 0; i < y.labelNames().size(); ++i) {
    auto it = std::find(labelNames.begin(), labelNames.end(),
                        y.labelNames()[i]);
    if (it == labelNames.end()) {
      labelNames.push_back(y.labelNames()[i]);
      yRemap[i] = static_cast<int>(labelNames.size() - 1);
    } else {
      yRemap[i] = static_cast<int>(it - labelNames.begin());
    }
  }
  const StateId nx = static_cast<StateId>(x.numStates());
  std::vector<std::vector<InteractiveTransition>> inter(nx + y.numStates());
  std::vector<std::vector<MarkovianTransition>> markov(nx + y.numStates());
  std::vector<std::uint32_t> masks(nx + y.numStates());
  for (StateId s = 0; s < nx; ++s) {
    inter[s].assign(x.interactive(s).begin(), x.interactive(s).end());
    markov[s].assign(x.markovian(s).begin(), x.markovian(s).end());
    masks[s] = x.labelMask(s);
  }
  for (StateId s = 0; s < y.numStates(); ++s) {
    for (const auto& t : y.interactive(s))
      inter[nx + s].push_back({t.action, nx + t.to});
    for (const auto& t : y.markovian(s))
      markov[nx + s].push_back({t.rate, nx + t.to});
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < yRemap.size(); ++i)
      if ((y.labelMask(s) >> i) & 1u) mask |= 1u << yRemap[i];
    masks[nx + s] = mask;
  }
  IOIMC u("union", x.symbols(), x.signature(), 0, std::move(inter),
          std::move(markov), std::move(masks), std::move(labelNames));
  Partition p = strongBisimulation(u);
  return p.classOf[x.initial()] == p.classOf[nx + y.initial()];
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

class FlatCoreSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FlatCoreSeeds, ComposeIsCommutativeUpToStrongBisimulation) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  SymbolTablePtr symbols = makeSymbolTable();
  auto [a, b] = randomCompatiblePair(rng, symbols);
  IOIMC ab = compose(a, b);
  IOIMC ba = compose(b, a);
  EXPECT_TRUE(stronglyBisimilar(ab, ba));
}

TEST_P(FlatCoreSeeds, WeakQuotientReachesAFixpoint) {
  // Note: one aggregate() pass is not always a fixpoint — collapsing all
  // internal actions to a single tau and dropping Markovian behavior of
  // unstable classes can enable one further merge (the pre-refactor
  // implementation behaves identically, e.g. on seed 14).  The invariant
  // is: re-aggregation never grows the model and converges immediately
  // afterwards, with every surviving state its own class.
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u + 7u);
  SymbolTablePtr symbols = makeSymbolTable();
  auto [a, b] = randomCompatiblePair(rng, symbols);
  IOIMC m = compose(a, b);
  IOIMC q = aggregate(m);
  IOIMC q2 = aggregate(q);
  EXPECT_LE(q2.numStates(), q.numStates());
  IOIMC q3 = aggregate(q2);
  EXPECT_EQ(q3.numStates(), q2.numStates());
  EXPECT_EQ(q3.numTransitions(), q2.numTransitions());
  // Every state of the converged quotient is its own weak-bisim class.
  Partition p = weakBisimulation(q2);
  EXPECT_EQ(p.numClasses, q2.numStates());
}

TEST_P(FlatCoreSeeds, CsrStorageRoundTripsBuilderInput) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31u + 3u);
  SymbolTablePtr symbols = makeSymbolTable();
  GeneratorPools pools{{"o0"}, {"i0"}, "h"};
  IOIMC m = randomModel(rng, symbols, "M", pools);
  // Per-state spans must tile the flat arrays exactly, in state order.
  std::size_t interSeen = 0, markovSeen = 0;
  for (StateId s = 0; s < m.numStates(); ++s) {
    auto is = m.interactive(s);
    auto ms = m.markovian(s);
    ASSERT_EQ(is.data(), m.allInteractive().data() + interSeen);
    ASSERT_EQ(ms.data(), m.allMarkovian().data() + markovSeen);
    interSeen += is.size();
    markovSeen += ms.size();
  }
  EXPECT_EQ(interSeen, m.numInteractiveTransitions());
  EXPECT_EQ(markovSeen, m.numMarkovianTransitions());
  EXPECT_EQ(m.numTransitions(), interSeen + markovSeen);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatCoreSeeds, ::testing::Range(0, 25));

}  // namespace
}  // namespace imcdft::ioimc

// ---------------------------------------------------------------------------
// Pipeline-level regression: golden measures and thread-count invariance
// ---------------------------------------------------------------------------

namespace imcdft::analysis {
namespace {

AnalyzerOptions coldOptions() {
  AnalyzerOptions o;
  o.cacheTrees = false;
  o.cacheModules = false;
  return o;
}

AnalysisReport analyzeWithThreads(const dft::Dft& d, unsigned threads,
                                  std::vector<MeasureSpec> measures,
                                  EngineOptions engine = {}) {
  Analyzer session(coldOptions());
  AnalysisRequest req = AnalysisRequest::forDft(d);
  req.options.engine = std::move(engine);
  req.options.engine.numThreads = threads;
  for (MeasureSpec& m : measures) req.measure(std::move(m));
  return session.analyze(req);
}

const std::vector<double> kGrid{0.5, 1.0, 2.0};

/// Pre-refactor (PR 1 tip) values: unreliability on the grid, then MTTF.
struct Golden {
  const char* name;
  dft::Dft tree;
  std::vector<double> unreliability;
  double mttf;  ///< NaN = not checked, inf allowed
};

TEST(FlatRefactorGolden, MeasuresMatchPreRefactorPipeline) {
  constexpr double kUnchecked = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Golden> goldens{
      {"cas", dft::corpus::cas(),
       {0.31665058840868077, 0.65790029695800267, 0.95078305010911945},
       0.85973600037066156},
      {"cps", dft::corpus::cps(),
       {4.5899574792177405e-06, 0.0013566809407112423, 0.058217237951973762},
       std::numeric_limits<double>::infinity()},
      {"hecs", dft::corpus::hecs(),
       {0.067773399769818263, 0.13969399650565353, 0.28780497262613031},
       4.2423510689735924},
      {"fig10a", dft::corpus::figure10a(),
       {0.013288446028506666, 0.10327480289036219, 0.44777436550923244},
       kUnchecked},
      // The rest of the cascaded-PAND scaling sweep (cps is cps_3x4).
      {"cps_2x3", dft::corpus::cascadedPands(2, 3),
       {0.0018553907431752357, 0.031898443794464416, 0.20895676219182924},
       kUnchecked},
      {"cps_3x3", dft::corpus::cascadedPands(3, 3),
       {7.5348877816615496e-05, 0.0053712823471252615, 0.090055114785068668},
       kUnchecked},
      {"cps_4x3", dft::corpus::cascadedPands(4, 3),
       {3.4424681094133067e-06, 0.0010175107055334321, 0.043662928463980316},
       kUnchecked},
      {"cps_4x4", dft::corpus::cascadedPands(4, 4),
       {8.2510361910116204e-08, 0.00016245707828087738, 0.024406404842962005},
       kUnchecked},
      {"cps_6x6", dft::corpus::cascadedPands(6, 6),
       {4.2020575826987086e-16, 1.1236713740215938e-08, 0.00088790663728198428},
       kUnchecked},
      {"cps_8x8", dft::corpus::cascadedPands(8, 8),
       {9.2114505686223758e-29, 2.2254208973589974e-14, 1.1354426441138191e-05},
       kUnchecked},
      {"cps_8x10", dft::corpus::cascadedPands(8, 10),
       {2.9401613875528241e-37, 1.430383343498789e-17, 1.1084827786787282e-06},
       kUnchecked},
  };
  // The protocol the values were captured under: symmetry, static
  // combination and the fused engine off.
  EngineOptions capture;
  capture.symmetry = false;
  capture.staticCombine = false;
  capture.onTheFly = false;
  for (const Golden& g : goldens) {
    const dft::Dft& d = g.tree;
    std::vector<MeasureSpec> specs{MeasureSpec::unreliability(kGrid)};
    if (!std::isnan(g.mttf)) specs.push_back(MeasureSpec::mttf());
    AnalysisReport r = analyzeWithThreads(d, 1, std::move(specs));
    ASSERT_TRUE(r.measures[0].ok) << g.name;
    ASSERT_EQ(r.measures[0].values.size(), kGrid.size()) << g.name;
    for (std::size_t i = 0; i < kGrid.size(); ++i)
      EXPECT_NEAR(r.measures[0].values[i], g.unreliability[i], 1e-12)
          << g.name << " t=" << kGrid[i];
    if (!std::isnan(g.mttf)) {
      ASSERT_TRUE(r.measures[1].ok) << g.name;
      if (std::isinf(g.mttf))
        EXPECT_TRUE(std::isinf(r.measures[1].values[0])) << g.name;
      else
        EXPECT_NEAR(r.measures[1].values[0], g.mttf, 1e-12) << g.name;
    }
    const AnalysisReport one =
        analyzeWithThreads(d, 1, {MeasureSpec::unreliability(kGrid)}, capture);
    const AnalysisReport four =
        analyzeWithThreads(d, 4, {MeasureSpec::unreliability(kGrid)}, capture);
    ASSERT_TRUE(one.measures[0].ok && four.measures[0].ok) << g.name;
    ASSERT_EQ(one.measures[0].values.size(), kGrid.size()) << g.name;
    for (std::size_t i = 0; i < kGrid.size(); ++i)
      EXPECT_NEAR(one.measures[0].values[i], g.unreliability[i], 1e-9)
          << g.name << " t=" << kGrid[i];
    EXPECT_EQ(one.measures[0].values, four.measures[0].values) << g.name;
  }
}

TEST(FlatRefactorGolden, RepairableMeasuresMatchPreRefactorPipeline) {
  AnalysisReport r = analyzeWithThreads(
      dft::corpus::repairableAnd(), 1,
      {MeasureSpec::unavailability(kGrid),
       MeasureSpec::steadyStateUnavailability()});
  const std::vector<double> expected{0.067058527560114267,
                                     0.10032273504805138,
                                     0.11056095998430665};
  ASSERT_TRUE(r.measures[0].ok);
  for (std::size_t i = 0; i < kGrid.size(); ++i)
    EXPECT_NEAR(r.measures[0].values[i], expected[i], 1e-12);
  ASSERT_TRUE(r.measures[1].ok);
  EXPECT_NEAR(r.measures[1].values[0], 0.11111111111102526, 1e-12);
}

class ThreadSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadSweep, ParallelAggregationIsBitwiseDeterministic) {
  const unsigned threads = GetParam();
  for (const char* name : {"cas", "cps", "hecs"}) {
    dft::Dft d = std::string(name) == "cas"   ? dft::corpus::cas()
                 : std::string(name) == "cps" ? dft::corpus::cps()
                                              : dft::corpus::hecs();
    AnalysisReport base =
        analyzeWithThreads(d, 1, {MeasureSpec::unreliability(kGrid)});
    AnalysisReport parallel =
        analyzeWithThreads(d, threads, {MeasureSpec::unreliability(kGrid)});
    ASSERT_TRUE(base.measures[0].ok);
    ASSERT_TRUE(parallel.measures[0].ok);
    // Bitwise equality: the parallel engine folds module results in a
    // fixed order, so the thread count must not change a single bit.
    EXPECT_EQ(base.measures[0].values, parallel.measures[0].values) << name;
    EXPECT_EQ(base.stats().steps.size(), parallel.stats().steps.size())
        << name;
    EXPECT_EQ(base.analysis->closedModel.numStates(),
              parallel.analysis->closedModel.numStates())
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep, ::testing::Values(1u, 4u));

TEST(ThreadedSession, ModuleCacheIsSafeUnderParallelStores) {
  // A batch over CAS variants with the module cache on: worker threads
  // store aggregated modules concurrently; the results must equal the
  // single-threaded session bit for bit.
  auto makeRequests = [](unsigned threads) {
    std::vector<AnalysisRequest> requests;
    for (int i = 0; i < 6; ++i) {
      std::string text = dft::corpus::galileoCas();
      const std::string needle = "\"CS\" lambda=0.2;";
      text.replace(text.find(needle), needle.size(),
                   "\"CS\" lambda=" + std::to_string(0.1 + 0.05 * i) + ";");
      AnalysisRequest req = AnalysisRequest::forGalileo(text);
      req.options.engine.numThreads = threads;
      req.measure(MeasureSpec::unreliability(kGrid));
      requests.push_back(std::move(req));
    }
    return requests;
  };
  Analyzer single;
  Analyzer threaded;
  std::vector<AnalysisReport> s = single.analyzeBatch(makeRequests(1));
  std::vector<AnalysisReport> t = threaded.analyzeBatch(makeRequests(4));
  ASSERT_EQ(s.size(), t.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    ASSERT_TRUE(s[i].measures[0].ok);
    ASSERT_TRUE(t[i].measures[0].ok);
    EXPECT_EQ(s[i].measures[0].values, t[i].measures[0].values) << i;
    hits += t[i].cache.moduleHits;
  }
  EXPECT_GT(hits, 0u);  // the motor/pump modules must actually be reused
}

}  // namespace
}  // namespace imcdft::analysis
