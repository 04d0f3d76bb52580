#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/converter.hpp"
#include "analysis/engine.hpp"
#include "common/cancel.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/mttf.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "dft/corpus.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/compose.hpp"
#include "ioimc/otf_compose.hpp"

/// \file test_budget.cpp
/// Resource budgets and cooperative cancellation: every checkpoint site
/// trips deterministically (limitCheckpoints), every limit kind trips, a
/// tripped request unwinds cleanly (caches stay consistent, a re-run with
/// a raised budget is bitwise identical to an unbudgeted run), and a trip
/// during measure evaluation degrades to a partial report instead of
/// failing the request.  The ConcurrentBudget suite (picked up by the TSan
/// CI job's -R Concurrent filter) checks that a deadline-tripped heavy
/// request never disturbs concurrently served siblings.

namespace imcdft {
namespace {

using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::MeasureSpec;
using analysis::Severity;

/// Two composable community members of the CPS tree (shared symbol table,
/// disjoint outputs) — operands for the site-level trip tests.
std::pair<ioimc::IOIMC, ioimc::IOIMC> cpsOperands() {
  analysis::Community c = analysis::convertDft(dft::corpus::cps());
  EXPECT_GE(c.models.size(), 2u);
  return {c.models[0].model, c.models[1].model};
}

/// A two-state CTMC with one "down" state — smallest model whose
/// uniformization sweep checkpoints.
ctmc::Ctmc tinyChain() {
  return ctmc::Ctmc::fromRows(0, {{{1.0, 1}}, {}}, {0, 1}, {"down"});
}

// ---------------------------------------------------------------------------
// Site-level trips: limitCheckpoints(1) makes the very first checkpoint of
// each hot loop throw, pinning the site name and the unwind path without
// any dependence on wall clock or model size.
// ---------------------------------------------------------------------------

TEST(Budget, ComposeSiteTrips) {
  auto [a, b] = cpsOperands();
  CancelToken token;
  token.limitCheckpoints(1);
  try {
    ioimc::compose(a, b, &token);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "compose");
    EXPECT_NE(std::string(e.what()).find("budget exceeded at compose"),
              std::string::npos);
  }
}

TEST(Budget, WeakRefinementSiteTrips) {
  auto [a, b] = cpsOperands();
  ioimc::IOIMC m = ioimc::compose(a, b);
  ioimc::WeakOptions opts;
  CancelToken token;
  token.limitCheckpoints(1);
  opts.cancel = &token;
  try {
    ioimc::weakQuotient(m, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "weak-refinement");
  }
}

TEST(Budget, OtfFrontierSiteTripsInsteadOfFallingBack) {
  // A budget trip inside the fused engine unwinds the request as
  // BudgetExceeded, like every other failure of a fused step.  The site
  // name proves the trip surfaced from the frontier loop directly.
  auto [a, b] = cpsOperands();
  ioimc::otf::OtfOptions opts;
  CancelToken token;
  token.limitCheckpoints(1);
  opts.weak.cancel = &token;
  try {
    ioimc::otf::otfComposeAggregate(a, b, {}, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "otf-frontier");
  }
}

TEST(Budget, TransientSiteTrips) {
  ctmc::TransientOptions opts;
  CancelToken token;
  token.limitCheckpoints(1);
  opts.cancel = &token;
  try {
    ctmc::transientDistribution(tinyChain(), 1.0, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "transient");
  }
}

TEST(Budget, MttfSiteTrips) {
  CancelToken token;
  token.limitCheckpoints(1);
  try {
    ctmc::expectedTimeToLabel(tinyChain(), "down", &token);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "mttf");
  }
}

TEST(Budget, SteadyStateSiteTrips) {
  // tinyChain plus a repair: the chain never settles at once.
  ctmc::Ctmc chain =
      ctmc::Ctmc::fromRows(0, {{{1.0, 1}}, {{2.0, 0}}}, {0, 1}, {"down"});
  ctmc::SteadyStateOptions opts;
  CancelToken token;
  token.limitCheckpoints(1);
  opts.cancel = &token;
  try {
    ctmc::steadyStateDistribution(chain, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "steady");
  }
}

TEST(Budget, CtmdpBoundsSiteTrips) {
  ctmdp::Ctmdp mdp =
      ctmdp::Ctmdp::fromRows(0, {{{1.0, 1}}, {}}, {{}, {}}, {false, true});
  ctmdp::ReachabilityOptions opts;
  CancelToken token;
  token.limitCheckpoints(1);
  opts.cancel = &token;
  try {
    ctmdp::reachabilityBounds(mdp, 1.0, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "ctmdp-bounds");
  }
}

TEST(Budget, MergeStepSiteTrips) {
  dft::Dft tree = dft::corpus::cps();
  analysis::EngineOptions opts;
  opts.numThreads = 1;
  auto token = std::make_shared<CancelToken>();
  token->limitCheckpoints(1);
  opts.cancel = token;
  opts.weak.cancel = token.get();
  try {
    analysis::composeCommunity(analysis::convertDft(tree), tree, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "merge-step");
  }
}

// ---------------------------------------------------------------------------
// Refiner checkpoint counts, pinned at the values the refiners had when
// every round re-signed every state of a splittable class: re-signing only
// the states that can have changed keeps the scan and its checkpoints, so a
// count budget trips at the same checkpoint.
// ---------------------------------------------------------------------------

/// The product of the first \p members members of \p tree's community,
/// nothing hidden.
ioimc::IOIMC communityProduct(const dft::Dft& tree, std::size_t members) {
  analysis::Community c = analysis::convertDft(tree);
  ioimc::IOIMC product = c.models[0].model;
  for (std::size_t i = 1; i < members; ++i)
    product = ioimc::compose(product, c.models[i].model);
  return product;
}

TEST(Budget, RefinersCheckpointAsOftenAsFullReEncoding) {
  struct Pinned {
    const char* name;
    dft::Dft tree;
    std::size_t members, states;
    std::uint64_t weak, fixpoint;
  };
  const Pinned pins[] = {
      {"cps", dft::corpus::cps(), 2, 11, 5, 10},
      {"cps", dft::corpus::cps(), 8, 5184, 47, 78},
      {"hecs", dft::corpus::hecs(), 11, 8592, 98, 133},
  };
  for (const Pinned& pin : pins) {
    SCOPED_TRACE(std::string(pin.name) + " x" + std::to_string(pin.members));
    const ioimc::IOIMC m = communityProduct(pin.tree, pin.members);
    ASSERT_EQ(m.numStates(), pin.states);
    struct Run {
      std::uint64_t checkpoints;
      const char* site;  ///< where the last checkpoint is
      std::function<void(const CancelToken*)> run;
    };
    const Run runs[] = {
        {pin.weak, "weak-refinement",
         [&](const CancelToken* t) {
           ioimc::weakBisimulation(m, {.cancel = t});
         }},
        {pin.fixpoint, "weak-refinement",
         [&](const CancelToken* t) {
           ioimc::aggregateFixpoint(m, {.cancel = t});
         }},
    };
    for (const auto& [count, site, run] : runs) {
      CancelToken unlimited;
      run(&unlimited);
      EXPECT_EQ(unlimited.checkpoints(), count);
      // The last checkpoint trips a budget of exactly that many.
      CancelToken exact;
      exact.limitCheckpoints(count);
      try {
        run(&exact);
        ADD_FAILURE() << "expected BudgetExceeded at checkpoint " << count;
      } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.checkpoint(), site);
      }
      CancelToken roomy;
      roomy.limitCheckpoints(count + 1);
      EXPECT_NO_THROW(run(&roomy));
    }
  }
}

// ---------------------------------------------------------------------------
// Limit kinds (exercised directly against checkpoint()).
// ---------------------------------------------------------------------------

TEST(Budget, UnlimitedTokenNeverThrows) {
  CancelToken token;
  EXPECT_FALSE(token.limited());
  for (int i = 0; i < 10000; ++i) token.checkpoint("site", 1u << 20, 1u << 20);
  EXPECT_EQ(token.checkpoints(), 10000u);
}

TEST(Budget, DeadlineTrips) {
  CancelToken token;
  token.limitDeadline(1e-9);
  EXPECT_TRUE(token.limited());
  try {
    token.checkpoint("site");
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "site");
    EXPECT_GT(e.elapsedSeconds(), 0.0);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

TEST(Budget, LiveStateCapTrips) {
  CancelToken token;
  token.limitLiveStates(10);
  token.checkpoint("site", 10);  // at the cap: fine
  try {
    token.checkpoint("site", 11);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.liveStates(), 11u);
    EXPECT_NE(std::string(e.what()).find("live states"), std::string::npos);
  }
}

TEST(Budget, RoughMemoryCapTrips) {
  CancelToken token;
  token.limitMemoryBytes(CancelToken::kStateBytes * 4);
  token.checkpoint("site", 4, 0);
  EXPECT_THROW(token.checkpoint("site", 4, 1), BudgetExceeded);
  EXPECT_THROW(token.checkpoint("site", 5, 0), BudgetExceeded);
}

TEST(Budget, ExternalCancelTrips) {
  CancelToken token;
  token.checkpoint("site");
  token.cancel("operator abort");
  try {
    token.checkpoint("site");
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("operator abort"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// End to end through the Analyzer.
// ---------------------------------------------------------------------------

TEST(Budget, PipelineTripUnwindsAndCachesStayConsistent) {
  Analyzer session;
  AnalysisRequest budgeted =
      AnalysisRequest::forDft(dft::corpus::cps(), "budgeted")
          .measure(MeasureSpec::unreliability({1.0}));
  budgeted.budget.maxCheckpoints = 1;
  EXPECT_THROW(session.analyze(budgeted), BudgetExceeded);

  // The tripped aggregation must not have published anything partial: the
  // same session now serves the tree unbudgeted, with values identical to
  // a session the trip never touched.
  AnalysisRequest plain = AnalysisRequest::forDft(dft::corpus::cps(), "plain")
                              .measure(MeasureSpec::unreliability({1.0}));
  plain.options.engine.numThreads = 1;
  AnalysisReport after = session.analyze(plain);
  Analyzer fresh;
  AnalysisReport reference = fresh.analyze(plain);
  ASSERT_TRUE(after.measures[0].ok);
  ASSERT_TRUE(reference.measures[0].ok);
  EXPECT_EQ(after.measures[0].values, reference.measures[0].values);
}

TEST(Budget, RaisedBudgetRerunIsBitwiseIdenticalToUnbudgeted) {
  const std::vector<double> grid{0.5, 1.0, 2.0};
  auto makeRequest = [&] {
    AnalysisRequest r = AnalysisRequest::forDft(dft::corpus::cas(), "cas")
                            .measure(MeasureSpec::unreliability(grid));
    r.options.engine.numThreads = 1;
    return r;
  };
  AnalysisRequest roomy = makeRequest();
  roomy.budget.deadlineSeconds = 3600.0;
  roomy.budget.maxLiveStates = 1u << 30;
  ASSERT_TRUE(roomy.budget.limited());

  Analyzer budgetedSession;
  AnalysisReport budgeted = budgetedSession.analyze(roomy);
  Analyzer plainSession;
  AnalysisReport plain = plainSession.analyze(makeRequest());
  ASSERT_TRUE(budgeted.measures[0].ok);
  ASSERT_TRUE(plain.measures[0].ok);
  // Bitwise, not approximate: a budget must never change an answer.
  EXPECT_EQ(budgeted.measures[0].values, plain.measures[0].values);
}

/// Fills a session's whole-tree cache with \p tree under \p first and
/// \p second, then repeats the request with a one-checkpoint budget.  The
/// cached analysis skips every pipeline checkpoint, so the budget survives
/// until measure evaluation and trips inside \p first's solver at \p site
/// — which must degrade to a partial report, not an exception: the
/// analysis is already paid for.
void expectPartialReport(const dft::Dft& tree, const MeasureSpec& first,
                         const MeasureSpec& second, const std::string& site) {
  Analyzer session;
  AnalysisRequest fill =
      AnalysisRequest::forDft(tree, "fill").measure(first).measure(second);
  ASSERT_TRUE(session.analyze(fill).measures[0].ok);

  AnalysisRequest budgeted =
      AnalysisRequest::forDft(tree, "b").measure(first).measure(second);
  budgeted.budget.maxCheckpoints = 1;
  AnalysisReport report = session.analyze(budgeted);
  EXPECT_TRUE(report.fromCache);
  ASSERT_EQ(report.measures.size(), 2u);
  EXPECT_FALSE(report.measures[0].ok);
  EXPECT_NE(report.measures[0].error.find(site), std::string::npos)
      << report.measures[0].error;
  EXPECT_FALSE(report.measures[1].ok);
  EXPECT_NE(report.measures[1].error.find("skipped"), std::string::npos);
  bool partialWarning = false;
  for (const analysis::Diagnostic& d : report.diagnostics)
    if (d.severity == Severity::Warning &&
        d.message.find("partial report") != std::string::npos)
      partialWarning = true;
  EXPECT_TRUE(partialWarning);
}

TEST(Budget, MeasurePhaseTripYieldsPartialReport) {
  // mttf keeps the request off the numeric path, so both requests share
  // the full-analysis cache key; the trip lands in the uniformization sweep.
  expectPartialReport(dft::corpus::cps(), MeasureSpec::unreliability({1.0}),
                      MeasureSpec::mttf(), "transient");
}

TEST(Budget, MttfTripYieldsPartialReport) {
  // CPS's PANDs make its MTTF infinite without solving; the repairable AND
  // has a finite one (2.5) that takes the elimination.
  expectPartialReport(dft::corpus::repairableAnd(), MeasureSpec::mttf(),
                      MeasureSpec::unreliability({1.0}), "mttf");
}

TEST(Budget, SteadyStateTripYieldsPartialReport) {
  expectPartialReport(dft::corpus::repairableAnd(),
                      MeasureSpec::steadyStateUnavailability(),
                      MeasureSpec::unreliability({1.0}), "steady");
}

TEST(Budget, CtmdpBoundsTripYieldsPartialReport) {
  expectPartialReport(dft::corpus::cps(),
                      MeasureSpec::unreliabilityBounds({1.0}),
                      MeasureSpec::mttf(), "ctmdp-bounds");
}

TEST(Budget, DeadlineTripReturnsPromptlyOnExplodingModel) {
  // The tentpole acceptance shape: a short deadline against a
  // static-combination-ineligible cascaded-PAND explosion returns with
  // BudgetExceeded instead of running (or allocating) to completion.  The
  // latency bound is deliberately loose — sanitizer and debug builds run
  // the checkpoints slower — but far below the ~37s the unbudgeted
  // analysis takes.
  Analyzer session;
  AnalysisRequest req =
      AnalysisRequest::forDft(dft::corpus::cascadedPand(6, 3), "heavy")
          .measure(MeasureSpec::unreliability({1.0}));
  req.budget.deadlineSeconds = 0.1;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(session.analyze(req), BudgetExceeded);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 10.0);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan CI job runs every *Concurrent* suite).
// ---------------------------------------------------------------------------

TEST(ConcurrentBudget, HeavyDeadlineTripsWhileSiblingsComplete) {
  Analyzer session;
  std::atomic<bool> heavyTripped{false};
  std::atomic<int> siblingsOk{0};
  std::vector<std::thread> pool;
  pool.emplace_back([&] {
    AnalysisRequest req =
        AnalysisRequest::forDft(dft::corpus::cascadedPand(6, 3), "heavy")
            .measure(MeasureSpec::unreliability({1.0}));
    req.budget.deadlineSeconds = 0.1;
    try {
      session.analyze(req);
    } catch (const BudgetExceeded&) {
      heavyTripped.store(true);
    }
  });
  for (int i = 0; i < 3; ++i)
    pool.emplace_back([&, i] {
      AnalysisRequest req =
          AnalysisRequest::forDft(dft::corpus::cps(),
                                  "light-" + std::to_string(i))
              .measure(MeasureSpec::unreliability({1.0}));
      AnalysisReport report = session.analyze(req);
      if (report.measures[0].ok) siblingsOk.fetch_add(1);
    });
  for (std::thread& t : pool) t.join();
  EXPECT_TRUE(heavyTripped.load());
  EXPECT_EQ(siblingsOk.load(), 3);
}

TEST(ConcurrentBudget, BudgetedRequestsNeverPoisonUnbudgetedOnes) {
  // Budgeted and unbudgeted requests for the same tree share the tree
  // cache, but a tripped request unwinds before its put, so no tripped
  // analysis ever reaches a shared cache.  Whatever the interleaving:
  // every unbudgeted request succeeds, every one-checkpoint-budget request
  // trips — either as an exception (trip during aggregation) or as a
  // partial report (trip during measures, when a finished sibling already
  // cached the analysis).
  Analyzer session;
  constexpr int kEach = 4;
  std::atomic<int> ok{0}, tripped{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < kEach; ++i) {
    pool.emplace_back([&] {
      AnalysisRequest req = AnalysisRequest::forDft(dft::corpus::cps(), "u")
                                .measure(MeasureSpec::unreliability({1.0}));
      AnalysisReport report = session.analyze(req);
      if (report.measures[0].ok) ok.fetch_add(1);
    });
    pool.emplace_back([&] {
      AnalysisRequest req = AnalysisRequest::forDft(dft::corpus::cps(), "b")
                                .measure(MeasureSpec::unreliability({1.0}));
      req.budget.maxCheckpoints = 1;
      try {
        AnalysisReport report = session.analyze(req);
        if (!report.measures[0].ok) tripped.fetch_add(1);
      } catch (const BudgetExceeded&) {
        tripped.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(ok.load(), kEach);
  EXPECT_EQ(tripped.load(), kEach);
}

}  // namespace
}  // namespace imcdft
