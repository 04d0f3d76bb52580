#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/converter.hpp"
#include "common/cancel.hpp"
#include "dft/corpus.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/builder.hpp"
#include "ioimc/compose.hpp"
#include "ioimc/ops.hpp"
#include "ioimc/tau_closure.hpp"
#include "analyze_all.hpp"
#include "model_digest.hpp"
#include "strong_bisimulation.hpp"

/// Invariants of the flat-storage (CSR) I/O-IMC core, checked on randomized
/// models: composition is commutative up to strong bisimulation, the weak
/// refiner matches a naive strong refiner where the two relations coincide,
/// the weak quotient is idempotent, the weak kernel's tau-closure and weak-move rows
/// equal a naive reference, and the refactored pipeline reproduces the
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
// Naive weak-kernel rows
// ---------------------------------------------------------------------------

/// Every state's tau closure (by search) and weak visible moves (every
/// (action << 32 | target) candidate pushed, then sorted and deduplicated):
/// the reference for detail::computeTauClosure.
struct NaiveWeakRows {
  std::vector<std::vector<StateId>> closure;
  std::vector<std::vector<std::uint64_t>> moves;
};

NaiveWeakRows naiveWeakRows(const IOIMC& m) {
  const std::vector<ActionRole> roles = actionRoles(m);
  const std::size_t n = m.numStates();
  NaiveWeakRows rows;
  rows.closure.resize(n);
  rows.moves.resize(n);
  for (StateId s = 0; s < n; ++s) {
    std::set<StateId> seen{s};
    std::vector<StateId> stack{s};
    while (!stack.empty()) {
      const StateId u = stack.back();
      stack.pop_back();
      for (const auto& t : m.interactive(u))
        if (roles[t.action] == ActionRole::Internal && seen.insert(t.to).second)
          stack.push_back(t.to);
    }
    rows.closure[s].assign(seen.begin(), seen.end());
  }
  for (StateId s = 0; s < n; ++s) {
    std::vector<std::uint64_t>& moves = rows.moves[s];
    for (StateId u : rows.closure[s])
      for (const auto& t : m.interactive(u)) {
        if (roles[t.action] == ActionRole::Internal) continue;
        for (StateId v : rows.closure[t.to])
          moves.push_back(static_cast<std::uint64_t>(t.action) << 32 | v);
      }
    std::sort(moves.begin(), moves.end());
    moves.erase(std::unique(moves.begin(), moves.end()), moves.end());
  }
  return rows;
}

/// Checks every closure row, weak-move row and stability flag of
/// detail::computeTauClosure on \p m against the naive reference.  A
/// state is stable when it enables no internal and no output move and is
/// not flagged in \p pinned.
void expectWeakRowsMatchNaive(
    const IOIMC& m, const std::vector<std::uint8_t>* pinned = nullptr) {
  const std::vector<ActionRole> roles = actionRoles(m);
  const detail::TauClosure tau = detail::computeTauClosure(m, roles, pinned);
  const NaiveWeakRows want = naiveWeakRows(m);
  for (StateId s = 0; s < m.numStates(); ++s) {
    const auto closure = tau.closure(s);
    EXPECT_EQ(std::vector<StateId>(closure.begin(), closure.end()),
              want.closure[s])
        << m.name() << ", state " << s;
    const auto moves = tau.moves(s);
    EXPECT_EQ(std::vector<std::uint64_t>(moves.begin(), moves.end()),
              want.moves[s])
        << m.name() << ", state " << s;
    bool stable = !(pinned && (*pinned)[s]);
    for (const auto& t : m.interactive(s))
      if (roles[t.action] == ActionRole::Internal ||
          roles[t.action] == ActionRole::Output)
        stable = false;
    EXPECT_EQ(tau.stable[s], stable) << m.name() << ", state " << s;
  }
}

/// \p m cut the way the fused engine snapshots its live region: the first
/// \p expanded states in breadth-first order keep their rows, and the
/// states they reach beyond those are frontier states, with empty rows and
/// flagged in \p pinned.  States are numbered in discovery order.
IOIMC frontierSnapshot(const IOIMC& m, std::size_t expanded,
                       std::vector<std::uint8_t>& pinned) {
  constexpr StateId kUnseen = static_cast<StateId>(-1);
  std::vector<StateId> dense(m.numStates(), kUnseen);
  std::vector<StateId> order{m.initial()};
  dense[m.initial()] = 0;
  auto visit = [&](StateId s) {
    if (dense[s] == kUnseen) {
      dense[s] = static_cast<StateId>(order.size());
      order.push_back(s);
    }
    return dense[s];
  };
  std::vector<std::vector<InteractiveTransition>> inter;
  std::vector<std::vector<MarkovianTransition>> markov;
  for (std::size_t i = 0; i < order.size() && i < expanded; ++i) {
    inter.emplace_back();
    markov.emplace_back();
    for (const auto& t : m.interactive(order[i]))
      inter[i].push_back({t.action, visit(t.to)});
    for (const auto& t : m.markovian(order[i]))
      markov[i].push_back({t.rate, visit(t.to)});
  }
  const std::size_t rows = inter.size();
  inter.resize(order.size());
  markov.resize(order.size());
  pinned.assign(order.size(), 0);
  std::vector<std::uint32_t> labels(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    labels[i] = m.labelMask(order[i]);
    if (i >= rows) pinned[i] = 1;
  }
  return IOIMC("snapshot", m.symbols(), m.signature(), 0, std::move(inter),
               std::move(markov), std::move(labels), m.labelNames());
}

/// \p m with every action an input: the same states, rows and labels, but
/// no internal or output action.  Such a model has singleton tau closures,
/// weak moves equal to its moves and every state stable, so its weak and
/// its strong bisimulation coincide.
IOIMC inputsOnly(const IOIMC& m) {
  Signature sig;
  for (const auto* actions : {&m.signature().inputs(), &m.signature().outputs(),
                              &m.signature().internals()})
    for (ActionId a : *actions) sig.add(a, ActionKind::Input);
  std::vector<std::vector<InteractiveTransition>> inter(m.numStates());
  std::vector<std::vector<MarkovianTransition>> markov(m.numStates());
  std::vector<std::uint32_t> labels(m.numStates());
  for (StateId s = 0; s < m.numStates(); ++s) {
    inter[s].assign(m.interactive(s).begin(), m.interactive(s).end());
    markov[s].assign(m.markovian(s).begin(), m.markovian(s).end());
    labels[s] = m.labelMask(s);
  }
  return IOIMC(m.name() + "/inputs", m.symbols(), std::move(sig),
               m.initial(), std::move(inter), std::move(markov),
               std::move(labels), m.labelNames());
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
  EXPECT_TRUE(test::stronglyBisimilar(ab, ba));
}

TEST_P(FlatCoreSeeds, WeakQuotientReachesAFixpoint) {
  // Note: one aggregate() pass is not always a fixpoint (see
  // ioimc::aggregateFixpoint).  On these pairs the cause seen is
  // divergence: a state that only cycles on internal moves has no stable
  // derivative and is told apart from a stable deadlock, but the quotient
  // drops the inert tau loop and the next pass merges the two (seed 14:
  // 18 -> 8 -> 7 states).  In the corpus the one case is floating-point
  // summation order instead.  The invariant is: re-aggregation never grows
  // the model and converges immediately afterwards, with every surviving
  // state its own class.
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

TEST_P(FlatCoreSeeds, StrongRefinementMatchesFullReEncoding) {
  // The library's one refiner against the naive strong refiner, where the
  // two relations coincide: each operand and their product with every
  // action turned into an input (no tau, every state stable), over the
  // pairs of both seed streams above.  The refiners number classes
  // differently, so the partitions are compared up to renaming.
  for (const auto& [mul, add] :
       {std::pair{7919u, 13u}, std::pair{104729u, 7u}}) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * mul + add);
    SymbolTablePtr symbols = makeSymbolTable();
    auto [a, b] = randomCompatiblePair(rng, symbols);
    for (const IOIMC& m : {inputsOnly(a), inputsOnly(b),
                           inputsOnly(compose(a, b))}) {
      const Partition want = test::fullReEncodingStrongBisimulation(m);
      const Partition got = weakBisimulation(m);
      ASSERT_EQ(got.numClasses, want.numClasses) << m.name();
      std::vector<std::uint32_t> rename(got.numClasses, want.numClasses);
      for (StateId s = 0; s < m.numStates(); ++s) {
        std::uint32_t& r = rename[got.classOf[s]];
        if (r == want.numClasses) r = want.classOf[s];
        EXPECT_EQ(r, want.classOf[s]) << m.name() << ", state " << s;
      }
    }
  }
}

TEST_P(FlatCoreSeeds, TauClosuresAndWeakMovesMatchNaiveRows) {
  // Over the pairs of both seed streams above: each operand, their
  // product, and the product with every output hidden (more, and cyclic,
  // tau structure).
  for (const auto& [mul, add] :
       {std::pair{7919u, 13u}, std::pair{104729u, 7u}}) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * mul + add);
    SymbolTablePtr symbols = makeSymbolTable();
    auto [a, b] = randomCompatiblePair(rng, symbols);
    const IOIMC ab = compose(a, b);
    for (const IOIMC& m : {a, b, ab, hideAllOutputs(ab)})
      expectWeakRowsMatchNaive(m);
  }
}

TEST(WeakKernel, FusedSnapshotRowsMatchNaiveRows) {
  // The shape the fused engine refines: the live region of a product whose
  // exploration stopped half way, frontier states pinned with empty rows.
  // Here the product of the first six CPS community members with every
  // output hidden (the engine hides them before refining).
  const analysis::Community community =
      analysis::convertDft(dft::corpus::cps());
  IOIMC product = community.models[0].model;
  for (std::size_t i = 1; i < 6; ++i)
    product = compose(product, community.models[i].model);
  product = hideAllOutputs(product);
  std::vector<std::uint8_t> pinned;
  const IOIMC snap = frontierSnapshot(product, product.numStates() / 2, pinned);
  ASSERT_GT(snap.numStates(), product.numStates() / 2);
  expectWeakRowsMatchNaive(snap, &pinned);
}

TEST(AggregateFixpoint, AMergeReusesTheCheckRefinement) {
  // Seed 14 of WeakQuotientReachesAFixpoint (18 -> 8 -> 7 states): the
  // fixpoint check on the 8-state quotient finds the merge, and the next
  // quotient is built from that check's partition instead of refining the
  // same model again.  Recomputing it cost 2 more rounds and checkpoints
  // (9 checkpoints in all); the rounds are counted once, as before.
  std::mt19937 rng(14u * 104729u + 7u);
  SymbolTablePtr symbols = makeSymbolTable();
  auto [a, b] = randomCompatiblePair(rng, symbols);
  const IOIMC m = compose(a, b);
  ASSERT_EQ(m.numStates(), 18u);
  CancelToken token;
  RefineStats work;
  const IOIMC q = aggregateFixpoint(m, {.cancel = &token}, nullptr, &work);
  EXPECT_EQ(q.numStates(), 7u);
  EXPECT_EQ(work.fixpointPasses, 2u);
  EXPECT_EQ(work.rounds, 5u);
  EXPECT_EQ(token.checkpoints(), 7u);
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

TEST_P(FlatCoreSeeds, AggregateFixpointKeepsItsBytes) {
  // The same pairs as WeakQuotientReachesAFixpoint.  Pinned per seed: the
  // weak and the strong partition of the product (class ids in order of
  // first appearance) and the bytes of its aggregateFixpoint result.
  struct Pinned {
    std::uint64_t weak, strong, fixpoint;
  };
  static const Pinned kPinned[25] = {
      {0x19cd2e560c246c9bull, 0x08130f110aeb0705ull, 0x985c5abab50e13fbull},
      {0xa9aaa4d9fff49b46ull, 0x08130f110aeb0705ull, 0x4451d850420b4caeull},
      {0x348f43a102c02886ull, 0x1fbd886ecf874ea5ull, 0x49dedb204a488c2eull},
      {0x9ef40c127c771966ull, 0x9ef40c127c771966ull, 0x08234863a03c5bc5ull},
      {0x6f083deb6bd36c92ull, 0xe3c832e15f983825ull, 0x4cb1508e1f3343a6ull},
      {0x45035885f36bd57aull, 0x45035885f36bd57aull, 0x73ef6cc232e0ba01ull},
      {0xe9bc51c5cc6d5239ull, 0x4eca659792b17265ull, 0xcff21b41874ca80dull},
      {0x31dae93f8609f179ull, 0x31dae93f8609f179ull, 0xfc4734b0186dccb9ull},
      {0xe99fa808e9d0c021ull, 0xe99fa808e9d0c021ull, 0xa6a462e921e377d0ull},
      {0x4f7396af011535a1ull, 0xe3c832e15f983825ull, 0x08234863a03c5bc5ull},
      {0xbddca678c06843c6ull, 0x65d7507adb8ec2a5ull, 0xc70052f0ebffb8ddull},
      {0xbbe9bbdcd8fd7006ull, 0x2258cee517c07575ull, 0x602925703710f4bcull},
      {0x0ce078f33c059c24ull, 0x0ce078f33c059c24ull, 0x87e2b2165e0a9d40ull},
      {0x92b4afccfd929451ull, 0xa76a0631c3f8c07dull, 0xef8778d6d50f12b1ull},
      {0x71e26ff228085d8aull, 0xed3ec7bde4d84decull, 0x19912c1855650614ull},
      {0xa260292b46a4d3c4ull, 0xe3c832e15f983825ull, 0xe9cb80764fd63835ull},
      {0x664e9f79094c91e1ull, 0x4a1870e6ce4d7c4eull, 0x207eb35163bbba95ull},
      {0x27ec2fbb1078f072ull, 0xcccaa09aa592deeeull, 0x8313612e8500a43eull},
      {0xb623a479d2984da5ull, 0xb623a479d2984da5ull, 0x3b8e907c69c8a58cull},
      {0x89cd31291d2aefa4ull, 0x89cd31291d2aefa4ull, 0x0df45b5d47fc2d79ull},
      {0xc0e2267b291faf63ull, 0xd714d758fe1693cdull, 0xcfec9a7bd1cac3b1ull},
      {0x31dae93f8609f179ull, 0x31dae93f8609f179ull, 0xab89cfe6d26591eeull},
      {0x01b0e36be825ba55ull, 0x0ce078f33c059c24ull, 0x8a3e44f20ea9423eull},
      {0x1d0b69bb4de52ca4ull, 0x1d0b69bb4de52ca4ull, 0xb3da417267f570afull},
      {0x392209f14dea4c24ull, 0xb623a479d2984da5ull, 0x41e49e246b6fde73ull},
  };
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u + 7u);
  SymbolTablePtr symbols = makeSymbolTable();
  auto [a, b] = randomCompatiblePair(rng, symbols);
  const IOIMC m = compose(a, b);
  const Pinned got{
      test::partitionDigest(weakBisimulation(m)),
      test::partitionDigest(test::fullReEncodingStrongBisimulation(m)),
      test::modelDigest(aggregateFixpoint(m))};
  const Pinned& want = kPinned[GetParam()];
  EXPECT_EQ(got.weak, want.weak);
  EXPECT_EQ(got.strong, want.strong);
  EXPECT_EQ(got.fixpoint, want.fixpoint);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatCoreSeeds, ::testing::Range(0, 25));

}  // namespace
}  // namespace imcdft::ioimc

// ---------------------------------------------------------------------------
// Pipeline-level regression: golden measures and thread-count invariance
// ---------------------------------------------------------------------------

namespace imcdft::analysis {
namespace {

AnalysisReport analyzeWithThreads(const dft::Dft& d, unsigned threads,
                                  std::vector<MeasureSpec> measures,
                                  EngineOptions engine = {}) {
  Analyzer session;
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
  // The protocol the values were captured under: symmetry and static
  // combination off, on an uncapped Production run (the classic chain on
  // every step).
  EngineOptions capture;
  capture.symmetry = false;
  capture.staticCombine = false;
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
  std::vector<AnalysisReport> s = analyzeAll(single, makeRequests(1));
  std::vector<AnalysisReport> t = analyzeAll(threaded, makeRequests(4));
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
