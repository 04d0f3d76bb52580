#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/cancel.hpp"
#include "dft/generate.hpp"

/// \file test_planner.cpp
/// The merge planner (planMerge in analysis/engine.cpp) on the generated
/// trees whose merge order used to decide between milliseconds and
/// seconds.  The pinned peaks are what the planner's choice produces; a
/// different choice shows up here before it shows up as a slow request.
/// The planner reads only sizes, signatures and static consumer sets, so
/// thread count, symmetry and the engine must not change a bit.

namespace imcdft {
namespace {

using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::EngineOptions;
using analysis::MeasureSpec;

AnalysisReport analyzeSeed(std::uint64_t seed, const EngineOptions& engine,
                           std::size_t maxLiveStates = 0) {
  analysis::AnalysisOptions options;
  options.engine = engine;
  analysis::Budget budget;
  budget.maxLiveStates = maxLiveStates;
  Analyzer analyzer;
  return analyzer.analyze(
      AnalysisRequest::forDft(dft::generateDft(seed))
          .measure(MeasureSpec::unreliabilityBounds({0.5, 1.0, 2.0}))
          .withOptions(options)
          .withBudget(budget));
}

/// The bounds' bit patterns (lower, upper per grid point).
std::vector<std::uint64_t> boundBits(const AnalysisReport& report) {
  std::vector<std::uint64_t> bits;
  for (const analysis::MeasureResult& m : report.measures) {
    EXPECT_TRUE(m.ok) << m.error;
    for (const auto& b : m.bounds) {
      bits.push_back(std::bit_cast<std::uint64_t>(b.lower));
      bits.push_back(std::bit_cast<std::uint64_t>(b.upper));
    }
  }
  return bits;
}

struct Cliff {
  std::uint64_t seed;
  std::size_t peakStates;
  std::size_t peakTransitions;
};

// Seeds where the old cheapest-product rule was 5-100x slower than
// declaration order (2, 14, 26), a large deterministic tree (22), and a
// dense repairable tree whose final merges are the planner's worst case
// (67).  Peaks are the largest intermediate of any step with every step
// fused (Reference::FusedChain: the peak live region).
constexpr Cliff kCliffs[] = {
    {2, 1578, 15858},
    {14, 18216, 179864},
    {22, 1007, 4849},
    {26, 2769, 25002},
    {67, 23995, 258183},
};

TEST(Planner, PinnedPeaksOnCliffSeeds) {
  EngineOptions fused;
  fused.reference = analysis::Reference::FusedChain;
  for (const Cliff& c : kCliffs) {
    const AnalysisReport report = analyzeSeed(c.seed, fused);
    EXPECT_EQ(report.stats().peakComposedStates, c.peakStates)
        << "seed " << c.seed;
    EXPECT_EQ(report.stats().peakComposedTransitions, c.peakTransitions)
        << "seed " << c.seed;
    const std::vector<analysis::CompositionStep>& steps =
        report.stats().steps;
    EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                  steps.begin(), steps.end(),
                  [](const analysis::CompositionStep& s) {
                    return s.onTheFly;
                  })),
              steps.size())
        << "seed " << c.seed;
    ASSERT_FALSE(report.measures[0].bounds.empty()) << "seed " << c.seed;
    for (const auto& b : report.measures[0].bounds)
      EXPECT_TRUE(std::isfinite(b.lower) && std::isfinite(b.upper))
          << "seed " << c.seed;
  }
}

TEST(Planner, ThreadCountSymmetryAndEngineDoNotChangeBits) {
  for (const Cliff& c : kCliffs) {
    EngineOptions base;
    base.numThreads = 1;
    const AnalysisReport reference = analyzeSeed(c.seed, base);
    const std::vector<std::uint64_t> bits = boundBits(reference);
    ASSERT_FALSE(bits.empty()) << "seed " << c.seed;

    EngineOptions threads = base;
    threads.numThreads = 4;
    EngineOptions noSymmetry = base;
    noSymmetry.symmetry = false;
    EngineOptions classic = base;
    classic.reference = analysis::Reference::ClassicChain;
    EngineOptions fused = base;
    fused.reference = analysis::Reference::FusedChain;
    for (const EngineOptions* variant :
         {&threads, &noSymmetry, &classic, &fused}) {
      const AnalysisReport report = analyzeSeed(c.seed, *variant);
      EXPECT_EQ(boundBits(report), bits) << "seed " << c.seed;
      EXPECT_EQ(report.analysis->closedModel.numStates(),
                reference.analysis->closedModel.numStates())
          << "seed " << c.seed;
      // Symmetry may skip a sibling's merges; threads and the engine must
      // not change the merge sequence.
      if (variant == &noSymmetry) continue;
      const auto& steps = report.stats().steps;
      const auto& want = reference.stats().steps;
      ASSERT_EQ(steps.size(), want.size()) << "seed " << c.seed;
      for (std::size_t k = 0; k < steps.size(); ++k)
        EXPECT_EQ(steps[k].name, want[k].name)
            << "seed " << c.seed << " step " << k;
    }
  }
}

TEST(Planner, LiveStateCapTripsExactlyTheKnownSeeds) {
  // Production fuses only the merges whose classic product overflows the
  // cap, so it trips exactly where FusedChain (every merge fused) trips, and
  // wherever a reference finishes, its bounds equal Production's bit for
  // bit.  ClassicChain trips on more seeds (it builds whole products).
  EngineOptions fused;
  fused.reference = analysis::Reference::FusedChain;
  EngineOptions classic;
  classic.reference = analysis::Reference::ClassicChain;
  auto capped = [](std::uint64_t seed, const EngineOptions& engine)
      -> std::optional<std::vector<std::uint64_t>> {
    try {
      return boundBits(analyzeSeed(seed, engine, 30000));
    } catch (const BudgetExceeded&) {
      return std::nullopt;
    }
  };
  std::set<std::uint64_t> tripped, fusedTripped;
  std::size_t classicCompared = 0;
  for (std::uint64_t seed = 0; seed < 75; ++seed) {
    const std::optional<std::vector<std::uint64_t>> production =
        capped(seed, EngineOptions{});
    const std::optional<std::vector<std::uint64_t>> allFused =
        capped(seed, fused);
    if (!production) tripped.insert(seed);
    if (!allFused) fusedTripped.insert(seed);
    if (!production || !allFused) continue;
    EXPECT_EQ(*allFused, *production) << "seed " << seed;
    if (const std::optional<std::vector<std::uint64_t>> allClassic =
            capped(seed, classic)) {
      EXPECT_EQ(*allClassic, *production) << "seed " << seed;
      ++classicCompared;
    }
  }
  EXPECT_EQ(tripped, (std::set<std::uint64_t>{5, 11}));
  EXPECT_EQ(fusedTripped, tripped);
  EXPECT_GE(classicCompared, 60u);
}

}  // namespace
}  // namespace imcdft
