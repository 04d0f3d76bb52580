#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/cancel.hpp"
#include "dft/corpus.hpp"
#include "dft/generate.hpp"

/// \file test_engine_choice.cpp
/// The per-step engine choice of Reference::Production (runsFused in
/// analysis/engine.cpp): a merge whose product bound |A||B| fits the
/// request's caps runs the classic chain, every other merge runs the fused
/// engine.  Both engines emit the same canonical quotient, so Production,
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
  Analyzer session({.cache = false});
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

TEST(EngineChoice, StepsWithinTheLiveCapRunClassic) {
  // pand_4x3 under 10,000 states: its last merge's bound is 902 x 14 =
  // 12,628, above the cap; the generated seeds need the fused engine on
  // their largest merges under 30,000.
  const struct {
    const char* name;
    dft::Dft tree;
    std::size_t cap;
  } cases[] = {
      {"cpand_4x3", dft::corpus::cascadedPand(4, 3), 10000},
      {"gen27", dft::generateDft(27), 30000},
      {"gen34", dft::generateDft(34), 30000},
      {"gen67", dft::generateDft(67), 30000},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const AnalysisReport report =
        analyze(c.tree, Reference::Production, liveCap(c.cap));
    std::size_t classic = 0, fused = 0;
    for (const CompositionStep& s : report.stats().steps) {
      const bool fits = s.leftStates * s.rightStates <= c.cap;
      EXPECT_EQ(s.onTheFly, !fits) << s.name;
      EXPECT_FALSE(s.onTheFlyFallback) << s.name;
      ++(s.onTheFly ? fused : classic);
    }
    EXPECT_GT(classic, 0u);
    EXPECT_GT(fused, 0u);
  }
  // Uncapped, every step is classic.
  const AnalysisReport uncapped =
      analyze(dft::corpus::cascadedPand(4, 3), Reference::Production);
  for (const CompositionStep& s : uncapped.stats().steps)
    EXPECT_FALSE(s.onTheFly) << s.name;
}

TEST(EngineChoice, StepsOverTheMemoryCapRunFused) {
  // The memory cap charges a step's product bound at the nominal sizes of
  // CancelToken.  Capped just below the charge of the classic chain's
  // largest product, that merge must fuse (its live region stays below
  // the cap), and a step whose states alone exceed the cap must too.
  const dft::Dft tree = dft::corpus::cascadedPand(4, 3);
  const AnalysisReport classic = analyze(tree, Reference::ClassicChain);
  analysis::Budget budget;
  budget.maxMemoryBytes =
      classic.stats().peakComposedStates * CancelToken::kStateBytes +
      classic.stats().peakComposedTransitions * CancelToken::kTransitionBytes -
      1;
  const AnalysisReport report = analyze(tree, Reference::Production, budget);
  std::size_t classicSteps = 0, fusedSteps = 0;
  for (const CompositionStep& s : report.stats().steps) {
    const std::size_t bound = s.leftStates * s.rightStates;
    if (bound * CancelToken::kStateBytes > budget.maxMemoryBytes ||
        s.composedStates == classic.stats().peakComposedStates) {
      EXPECT_TRUE(s.onTheFly) << s.name;
    }
    ++(s.onTheFly ? fusedSteps : classicSteps);
  }
  EXPECT_GT(classicSteps, 0u);
  EXPECT_GT(fusedSteps, 0u);
  EXPECT_EQ(bits(report), bits(classic));
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
