#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/cancel.hpp"
#include "dft/corpus.hpp"
#include "dft/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

/// \file test_engine_choice.cpp
/// The per-step engine choice of Reference::Production (stepEngine in
/// analysis/engine.cpp): under a capped request every merge first runs the
/// classic chain, whose compose gives up once the product outgrows the
/// live-state or memory cap; only such a merge runs the fused engine.
/// Both engines emit the same canonical quotient, so Production,
/// FusedChain and ClassicChain must agree bit for bit, and Production must
/// trip exactly where FusedChain trips (on generated trees:
/// Planner.LiveStateCapTripsExactlyTheKnownSeeds).

namespace imcdft {
namespace {

using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::CompositionStep;
using analysis::MeasureSpec;
using analysis::Reference;

AnalysisReport analyze(const dft::Dft& tree, Reference reference,
                       const analysis::Budget& budget = {}) {
  Analyzer session;
  AnalysisRequest request =
      AnalysisRequest::forDft(tree)
          .measure(MeasureSpec::unreliabilityBounds({0.5, 1.0, 2.0}))
          .withBudget(budget);
  request.options.engine.reference = reference;
  request.options.engine.staticCombine = false;  // exercise composition
  return session.analyze(request);
}

analysis::Budget liveCap(std::size_t states) {
  analysis::Budget budget;
  budget.maxLiveStates = states;
  return budget;
}

/// Every value and bound of every measure, as bit patterns.
std::vector<std::uint64_t> bits(const AnalysisReport& report) {
  std::vector<std::uint64_t> out;
  for (const analysis::MeasureResult& m : report.measures) {
    EXPECT_TRUE(m.ok) << m.error;
    for (double v : m.values) out.push_back(std::bit_cast<std::uint64_t>(v));
    for (const auto& b : m.bounds) {
      out.push_back(std::bit_cast<std::uint64_t>(b.lower));
      out.push_back(std::bit_cast<std::uint64_t>(b.upper));
    }
  }
  return out;
}

/// Runs \p tree under \p reference and \p budget; nullopt when it trips.
std::optional<AnalysisReport> tryAnalyze(const dft::Dft& tree,
                                         Reference reference,
                                         const analysis::Budget& budget) {
  try {
    return analyze(tree, reference, budget);
  } catch (const BudgetExceeded&) {
    return std::nullopt;
  }
}

/// The rough memory charge of a step's classic product.
std::size_t charge(const CompositionStep& s) {
  return CancelToken::roughBytes(s.composedStates, s.composedTransitions);
}

TEST(EngineChoice, StepsWithinTheLiveCapRunClassic) {
  // Step i of Production fuses exactly when step i of an uncapped
  // ClassicChain run composed more than the cap's states: the plan reads
  // only sizes and signatures, so both runs take the same steps.
  // pand_4x3's last merge has the bound 902 x 14 = 12,628 but reaches
  // only 9,925 states, so it runs classic under 10,000 and fuses under
  // 9,000; the generated seeds need the fused engine on their largest
  // merges under 30,000 (ClassicChain trips there).
  const struct {
    const char* name;
    dft::Dft tree;
    std::size_t cap;
    bool fuses;
  } cases[] = {
      {"cpand_4x3", dft::corpus::cascadedPand(4, 3), 10000, false},
      {"cpand_4x3", dft::corpus::cascadedPand(4, 3), 9000, true},
      {"gen27", dft::generateDft(27), 30000, true},
      {"gen34", dft::generateDft(34), 30000, true},
      {"gen67", dft::generateDft(67), 30000, true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.name) + " under " + std::to_string(c.cap));
    const std::vector<CompositionStep> classic =
        analyze(c.tree, Reference::ClassicChain).stats().steps;
    const AnalysisReport report =
        analyze(c.tree, Reference::Production, liveCap(c.cap));
    const std::vector<CompositionStep>& steps = report.stats().steps;
    ASSERT_EQ(steps.size(), classic.size());
    std::size_t fused = 0, classicOverBound = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const CompositionStep& s = steps[i];
      EXPECT_EQ(s.leftStates, classic[i].leftStates) << s.name;
      EXPECT_EQ(s.rightStates, classic[i].rightStates) << s.name;
      EXPECT_EQ(s.onTheFly, classic[i].composedStates > c.cap) << s.name;
      if (s.onTheFly) ++fused;
      if (!s.onTheFly && s.leftStates * s.rightStates > c.cap)
        ++classicOverBound;
    }
    EXPECT_EQ(fused > 0, c.fuses);
    EXPECT_LT(fused, steps.size());
    // The bound rule would have fused these steps.
    if (!c.fuses) {
      EXPECT_GT(classicOverBound, 0u);
    }
  }
  // Uncapped, every step is classic.
  const AnalysisReport uncapped =
      analyze(dft::corpus::cascadedPand(4, 3), Reference::Production);
  for (const CompositionStep& s : uncapped.stats().steps)
    EXPECT_FALSE(s.onTheFly) << s.name;
}

TEST(EngineChoice, StepsOverTheMemoryCapRunFused) {
  // The memory cap charges a step's classic product, states and both
  // kinds of transitions, at the nominal sizes of CancelToken.  Capped
  // just below the charge of the classic chain's largest product, exactly
  // the steps whose product charge exceeds the cap fuse, and their live
  // regions stay below it.
  const dft::Dft tree = dft::corpus::cascadedPand(4, 3);
  const AnalysisReport classic = analyze(tree, Reference::ClassicChain);
  const std::vector<CompositionStep>& classicSteps = classic.stats().steps;
  std::size_t largest = 0;
  for (const CompositionStep& s : classicSteps)
    largest = std::max(largest, charge(s));
  analysis::Budget budget;
  budget.maxMemoryBytes = largest - 1;
  const AnalysisReport report = analyze(tree, Reference::Production, budget);
  const std::vector<CompositionStep>& steps = report.stats().steps;
  ASSERT_EQ(steps.size(), classicSteps.size());
  std::size_t fusedSteps = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].onTheFly,
              charge(classicSteps[i]) > budget.maxMemoryBytes)
        << steps[i].name;
    if (steps[i].onTheFly) ++fusedSteps;
  }
  EXPECT_GT(fusedSteps, 0u);
  EXPECT_LT(fusedSteps, steps.size());
  EXPECT_EQ(bits(report), bits(classic));
}

TEST(EngineChoice, ClassicComposeChargesEveryTransition) {
  // pand_4x3's largest product has 9,925 states, 917 interactive and
  // 75,658 Markovian transitions.  A memory cap that holds its states and
  // half its transitions is far above the interactive-only charge, so
  // only a compose that charges the Markovian transitions too trips on it.
  const dft::Dft tree = dft::corpus::cascadedPand(4, 3);
  const AnalysisReport classic = analyze(tree, Reference::ClassicChain);
  analysis::Budget budget;
  budget.maxMemoryBytes =
      CancelToken::roughBytes(classic.stats().peakComposedStates, 0) +
      CancelToken::roughBytes(0, classic.stats().peakComposedTransitions) / 2;
  try {
    analyze(tree, Reference::ClassicChain, budget);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.checkpoint(), "compose");
  }
}

TEST(EngineChoice, OverflowingAttemptTripsNothing) {
  // A classic attempt that outgrows the cap gives the step to the fused
  // engine without tripping the token: no budget-trip instant on the
  // trace and no budget.trips count.
  obs::clearTrace();
  obs::setTraceEnabled(true);
  obs::Counter& trips = obs::MetricsRegistry::global().counter("budget.trips");
  const std::uint64_t tripsBefore = trips.value();
  const AnalysisReport report = analyze(dft::corpus::cascadedPand(4, 3),
                                        Reference::Production, liveCap(9000));
  const obs::TraceSnapshot snap = obs::snapshotTrace();
  obs::setTraceEnabled(false);
  obs::clearTrace();
  EXPECT_EQ(trips.value(), tripsBefore);
  std::size_t overflows = 0;
  for (const obs::TraceRecord& rec : snap.records) {
    EXPECT_STRNE(rec.name, "budget-trip");
    if (std::strcmp(rec.name, "classic.compose") != 0) continue;
    for (const obs::TraceArg& arg : rec.args)
      if (std::strcmp(arg.key, "overflow") == 0) overflows += arg.value;
  }
  EXPECT_EQ(overflows, 1u);
  std::size_t fused = 0;
  for (const CompositionStep& s : report.stats().steps)
    if (s.onTheFly) ++fused;
  EXPECT_EQ(fused, 1u);
}

TEST(EngineChoice, ReferencesBitIdenticalAcrossCorpus) {
  const struct {
    const char* name;
    dft::Dft tree;
  } families[] = {
      {"cps", dft::corpus::cps()},
      {"cas", dft::corpus::cas()},
      {"hecs", dft::corpus::hecs()},
      {"cpand_3x2", dft::corpus::cascadedPand(3, 2)},
      {"cpand_4x3", dft::corpus::cascadedPand(4, 3)},
      {"cps_4x6", dft::corpus::cascadedPands(4, 6)},
      {"fig10b", dft::corpus::figure10b()},
  };
  std::size_t mixed = 0;
  for (const auto& f : families) {
    SCOPED_TRACE(f.name);
    const AnalysisReport classic = analyze(f.tree, Reference::ClassicChain);
    const std::vector<std::uint64_t> want = bits(classic);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(bits(analyze(f.tree, Reference::FusedChain)), want);
    EXPECT_EQ(bits(analyze(f.tree, Reference::Production)), want);
    // A cap just below the classic chain's largest product sends that
    // merge to the fused engine: Production finishes exactly when
    // FusedChain does, and then with the same bits.
    const analysis::Budget cap =
        liveCap(classic.stats().peakComposedStates - 1);
    const std::optional<AnalysisReport> production =
        tryAnalyze(f.tree, Reference::Production, cap);
    const std::optional<AnalysisReport> fused =
        tryAnalyze(f.tree, Reference::FusedChain, cap);
    ASSERT_EQ(production.has_value(), fused.has_value());
    if (!production) continue;
    EXPECT_EQ(bits(*production), want);
    EXPECT_EQ(bits(*fused), want);
    ++mixed;
  }
  EXPECT_GT(mixed, 0u);
}

}  // namespace
}  // namespace imcdft
