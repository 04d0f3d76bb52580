#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "analysis/converter.hpp"
#include "analysis/engine.hpp"
#include "common/cancel.hpp"
#include "common/worker_pool.hpp"
#include "dft/corpus.hpp"
#include "ioimc/builder.hpp"
#include "ioimc/otf_compose.hpp"

/// The intra-step encode pool and adaptive cadence of the fused engine
/// (ioimc/otf_compose.hpp).  Both share one contract: they may move wall
/// time and stats, but never a single result byte.  The suite name
/// (OtfIntraParallel) keys the CI thread-sanitizer job's test filter —
/// keep it when adding cases.

namespace imcdft::ioimc {
namespace {

/// Random mostly-Markovian models big enough that the product's live
/// region crosses detail::kIntraParallelMinStates (512) with the test
/// refine threshold, so the block-parallel encode path actually engages.
/// Distinct rates keep merges rare (the region must *stay* big).
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

std::vector<ActionId> allOutputs(const IOIMC& a, const IOIMC& b) {
  std::vector<ActionId> outs = a.signature().outputs();
  outs.insert(outs.end(), b.signature().outputs().begin(),
              b.signature().outputs().end());
  std::sort(outs.begin(), outs.end());
  outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
  return outs;
}

/// Exact structural equality, transition bytes included (the same check
/// test_otf_compose.cpp uses against the classic chain).
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

/// Test options; \p pool null is the sequential reference path.
otf::OtfOptions baseOptions(WorkerPool* pool) {
  otf::OtfOptions opts;
  opts.refineThreshold = 4;
  opts.encodePool = opts.weak.encodePool = pool;
  return opts;
}

TEST(OtfIntraParallel, BitwiseAcrossThreadCounts) {
  // The determinism contract of the block-parallel encode: any pool
  // produces the same partition sequence as none, hence the same bytes.
  WorkerPool pool(4);
  std::size_t engaged = 0;
  for (unsigned seed = 0; seed < 8; ++seed) {
    auto symbols = makeSymbolTable();
    auto [a, b] = bigPair(seed, symbols);
    const std::vector<ActionId> hidden = allOutputs(a, b);

    otf::OtfResult seq =
        otf::otfComposeAggregate(a, b, hidden, baseOptions(nullptr));
    ASSERT_TRUE(seq.ok) << "seed " << seed << ": " << seq.failureReason;
    EXPECT_EQ(seq.stats.intraWorkers, 0u);

    otf::OtfResult par =
        otf::otfComposeAggregate(a, b, hidden, baseOptions(&pool));
    ASSERT_TRUE(par.ok) << "seed " << seed << ": " << par.failureReason;
    if (par.stats.intraWorkers > 0) ++engaged;

    EXPECT_TRUE(equalModels(*seq.model, *par.model)) << "seed " << seed;
    EXPECT_EQ(seq.stats.refinementRounds, par.stats.refinementRounds)
        << "seed " << seed;
    EXPECT_EQ(seq.stats.peakLiveStates, par.stats.peakLiveStates)
        << "seed " << seed;
  }
  // At least some products must have grown past the parallel-engage
  // threshold, or the comparison above never tested the pool at all.
  EXPECT_GT(engaged, 0u);
}

TEST(OtfIntraParallel, AdaptiveCadenceGoldenEquality) {
  // The refinement threshold and the adaptive cadence decide only *when*
  // refinement passes run, never what the engine finally computes: every
  // threshold must yield identical bytes.
  bool timingChanged = false;
  for (unsigned seed = 20; seed < 26; ++seed) {
    auto symbols = makeSymbolTable();
    auto [a, b] = bigPair(seed, symbols);
    const std::vector<ActionId> hidden = allOutputs(a, b);

    otf::OtfOptions golden = baseOptions(nullptr);
    golden.refineThreshold = 4;
    otf::OtfResult ref = otf::otfComposeAggregate(a, b, hidden, golden);
    ASSERT_TRUE(ref.ok) << "seed " << seed << ": " << ref.failureReason;

    for (std::size_t threshold : {64u, 256u, 1024u}) {
      otf::OtfOptions opts = baseOptions(nullptr);
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

TEST(OtfIntraParallel, BudgetTripInsideParallelRefinementUnwindsCleanly) {
  // A checkpoint budget that trips inside the block-parallel refinement
  // loop must unwind through the worker pool as BudgetExceeded (workers
  // drained, no partial state), and an unbudgeted rerun must still be
  // byte-identical — the trip may not corrupt any shared structure.
  auto symbols = makeSymbolTable();
  auto [a, b] = bigPair(3, symbols);
  const std::vector<ActionId> hidden = allOutputs(a, b);
  WorkerPool pool(4);

  otf::OtfResult ref =
      otf::otfComposeAggregate(a, b, hidden, baseOptions(&pool));
  ASSERT_TRUE(ref.ok) << ref.failureReason;
  ASSERT_GT(ref.stats.intraWorkers, 0u)
      << "product too small: the parallel refinement path never engaged";

  bool trippedInRefine = false;
  for (std::uint64_t cap = 1; cap <= 20000 && !trippedInRefine; ++cap) {
    CancelToken token;
    token.limitCheckpoints(cap);
    otf::OtfOptions opts = baseOptions(&pool);
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
      << "no checkpoint cap tripped inside the parallel refinement loop";

  otf::OtfResult again =
      otf::otfComposeAggregate(a, b, hidden, baseOptions(&pool));
  ASSERT_TRUE(again.ok) << again.failureReason;
  EXPECT_TRUE(equalModels(*ref.model, *again.model));
}

TEST(OtfIntraParallel, EngineEncodePoolFollowsNumThreads) {
  // EngineOptions::numThreads sizes the merge's shared encode pool:
  // numThreads = 1 never goes parallel, numThreads = 4 does, and the
  // composed models are bitwise equal.  Only fused steps record their
  // encode workers, so every step runs fused here.
  namespace analysis = imcdft::analysis;
  const dft::Dft tree = dft::corpus::cascadedPand(4, 3);
  auto compose = [&](unsigned threads) {
    analysis::EngineOptions opts;
    opts.numThreads = threads;
    opts.reference = analysis::Reference::FusedChain;
    return analysis::composeCommunity(analysis::convertDft(tree), tree, opts);
  };
  const analysis::EngineResult seq = compose(1);
  const analysis::EngineResult par = compose(4);
  EXPECT_EQ(seq.stats.otfIntraWorkers, 0u);
  EXPECT_GT(par.stats.otfIntraWorkers, 0u);
  EXPECT_TRUE(equalModels(seq.model, par.model));
}

}  // namespace
}  // namespace imcdft::ioimc
