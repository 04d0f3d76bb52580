#include <gtest/gtest.h>

#include <cmath>

#include "analyze_once.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dft/builder.hpp"
#include "dft/corpus.hpp"
#include "simulation/simulator.hpp"

/// The Monte-Carlo simulator is the third independent implementation of
/// the DFT semantics.  Because every run draws from its own
/// (seed, run-index) stream, these tests are deterministic; the tolerance
/// is the 95% Wilson half-width plus a small safety margin (a fixed-seed
/// estimate either is or is not inside, and these seeds were verified to
/// be).

namespace imcdft::simulation {
namespace {

using dft::DftBuilder;

void expectCovers(const Estimate& est, double exact) {
  EXPECT_NEAR(est.value, exact, est.halfWidth95() * 1.6 + 1e-9)
      << "estimate " << est.value << " in [" << est.low() << ", "
      << est.high() << "] vs exact " << exact;
}

TEST(Simulator, SingleExponential) {
  dft::Dft d =
      DftBuilder().basicEvent("A", 0.7).orGate("Top", {"A"}).top("Top").build();
  Estimate est = simulateUnreliability(d, 1.0, {20'000, 7});
  expectCovers(est, 1 - std::exp(-0.7));
}

TEST(Simulator, MatchesAnalyticOnCas) {
  dft::Dft d = dft::corpus::cas();
  analysis::AnalysisReport a = analysis::analyzeOnce(
      d, {analysis::MeasureSpec::unreliability({1.0})});
  Estimate est = simulateUnreliability(d, 1.0, {20'000, 11});
  expectCovers(est, a.measures[0].values.at(0));
}

TEST(Simulator, MatchesAnalyticOnCps) {
  // The CPS failure probability is tiny (0.00136), a good tail check.
  dft::Dft d = dft::corpus::cps();
  Estimate est = simulateUnreliability(d, 2.0, {40'000, 13});
  double exact = std::pow(1 - std::exp(-2.0), 12.0) / 3.0;
  expectCovers(est, exact);
}

TEST(Simulator, WarmSparesAndSharing) {
  dft::Dft d = DftBuilder()
                   .basicEvent("P1", 1.0)
                   .basicEvent("P2", 0.7)
                   .basicEvent("S", 2.0, 0.3)
                   .spareGate("G1", dft::SpareKind::Warm, {"P1", "S"})
                   .spareGate("G2", dft::SpareKind::Warm, {"P2", "S"})
                   .andGate("Top", {"G1", "G2"})
                   .top("Top")
                   .build();
  analysis::AnalysisReport a = analysis::analyzeOnce(
      d, {analysis::MeasureSpec::unreliability({1.5})});
  Estimate est = simulateUnreliability(d, 1.5, {20'000, 23});
  expectCovers(est, a.measures[0].values.at(0));
}

TEST(Simulator, ErlangPhases) {
  dft::Dft d = DftBuilder()
                   .basicEvent("A", 2.0, std::nullopt, std::nullopt, 3)
                   .orGate("Top", {"A"})
                   .top("Top")
                   .build();
  Estimate est = simulateUnreliability(d, 1.0, {20'000, 29});
  double x = 2.0;
  double exact = 1 - std::exp(-x) * (1 + x + x * x / 2);
  expectCovers(est, exact);
}

TEST(Simulator, InhibitionSemantics) {
  dft::Dft d = DftBuilder()
                   .basicEvent("A", 1.0)
                   .basicEvent("B", 1.0)
                   .inhibition("A", "B")
                   .orGate("Top", {"B"})
                   .top("Top")
                   .build();
  Estimate est = simulateUnreliability(d, 1.0, {20'000, 31});
  expectCovers(est, (1 - std::exp(-2.0)) / 2.0);
}

TEST(Simulator, RepairableUnavailability) {
  dft::Dft d = dft::corpus::repairableAnd(1.0, 2.0);
  analysis::AnalysisReport a = analysis::analyzeOnce(
      d, {analysis::MeasureSpec::unavailability({2.0}),
          analysis::MeasureSpec::unreliability({2.0})});
  Estimate down = simulateUnavailability(d, 2.0, {20'000, 37});
  expectCovers(down, a.measures[0].values.at(0));
  Estimate ever = simulateUnreliability(d, 2.0, {20'000, 41});
  expectCovers(ever, a.measures[1].values.at(0));
  // First passage dominates point unavailability.
  EXPECT_GT(ever.value, down.value);
}

TEST(Simulator, TimeZeroNeverFails) {
  dft::Dft d = dft::corpus::cas();
  Estimate est = simulateUnreliability(d, 0.0, {100, 1});
  EXPECT_DOUBLE_EQ(est.value, 0.0);
}

TEST(Simulator, DeterministicWithFixedSeed) {
  dft::Dft d = dft::corpus::cas();
  Estimate a = simulateUnreliability(d, 1.0, {5'000, 99});
  Estimate b = simulateUnreliability(d, 1.0, {5'000, 99});
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.hits, b.hits);
}

TEST(Simulator, RejectsBadOptions) {
  dft::Dft d = dft::corpus::cas();
  EXPECT_THROW(simulateUnreliability(d, 1.0, {0, 1}), ModelError);
  EXPECT_THROW(simulateUnreliability(d, -1.0, {10, 1}), ModelError);
}

TEST(Simulator, ConfidenceShrinksWithRuns) {
  dft::Dft d = dft::corpus::cas();
  Estimate small = simulateUnreliability(d, 1.0, {1'000, 3});
  Estimate large = simulateUnreliability(d, 1.0, {16'000, 3});
  EXPECT_LT(large.halfWidth95(), small.halfWidth95());
}

// --- Wilson interval (the satellite fix for the normal-approximation
// collapse at empirical 0/n and n/n) ------------------------------------

TEST(Wilson, BoundaryHitsStayInformative) {
  // An event that (essentially) never fires: 0 hits out of n.  The old
  // normal-approximation half-width was exactly 0 there, making every
  // coverage check on rare events vacuous; Wilson keeps ~z^2/(n+z^2).
  dft::Dft d = DftBuilder()
                   .basicEvent("A", 1e-9)
                   .orGate("Top", {"A"})
                   .top("Top")
                   .build();
  Estimate never = simulateUnreliability(d, 1.0, {2'000, 5});
  EXPECT_EQ(never.hits, 0u);
  EXPECT_DOUBLE_EQ(never.value, 0.0);
  EXPECT_DOUBLE_EQ(never.low(), 0.0);
  EXPECT_GT(never.high(), 0.0);
  EXPECT_GT(never.halfWidth95(), 0.0);
  // The true probability ~1e-9 lies inside the interval.
  EXPECT_LE(never.low(), 1e-9);
  EXPECT_GE(never.high(), 1e-9);

  dft::Dft sure = DftBuilder()
                      .basicEvent("B", 1e9)
                      .orGate("Top", {"B"})
                      .top("Top")
                      .build();
  Estimate always = simulateUnreliability(sure, 1.0, {2'000, 5});
  EXPECT_EQ(always.hits, always.runs);
  EXPECT_DOUBLE_EQ(always.high(), 1.0);
  EXPECT_LT(always.low(), 1.0);
  EXPECT_GT(always.halfWidth95(), 0.0);
}

TEST(Wilson, IntervalFunctionMatchesClosedForm) {
  double lo = -1.0, hi = -1.0;
  // 0 hits: low is clamped to 0, high = z^2 / (n + z^2).
  wilsonInterval(0, 100, 1.96, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_NEAR(hi, 1.96 * 1.96 / (100 + 1.96 * 1.96), 1e-12);
  // Symmetry: n hits mirrors 0 hits.
  wilsonInterval(100, 100, 1.96, &lo, &hi);
  EXPECT_DOUBLE_EQ(hi, 1.0);
  EXPECT_NEAR(lo, 1.0 - 1.96 * 1.96 / (100 + 1.96 * 1.96), 1e-12);
  // Interior: the interval brackets the empirical value.
  wilsonInterval(50, 100, 1.96, &lo, &hi);
  EXPECT_LT(lo, 0.5);
  EXPECT_GT(hi, 0.5);
  EXPECT_THROW(wilsonInterval(1, 0, 1.96, &lo, &hi), ModelError);
}

// --- Per-run RNG streams (batching-order independence) ------------------

TEST(Streams, BatchesComposeBitwise) {
  // Run r always draws from stream splitmix64(seed, firstRun + r), so a
  // split simulation is bitwise identical to the single sweep — the seam
  // a parallel simulator would use without changing any estimate.
  dft::Dft d = dft::corpus::cas();
  const std::uint64_t seed = 1234;
  Estimate full = simulateUnreliability(d, 1.0, {4'000, seed});
  Estimate firstHalf = simulateUnreliability(d, 1.0, {2'000, seed, 0});
  Estimate secondHalf = simulateUnreliability(d, 1.0, {2'000, seed, 2'000});
  EXPECT_EQ(full.hits, firstHalf.hits + secondHalf.hits);
  EXPECT_EQ(full.runs, firstHalf.runs + secondHalf.runs);

  // Unequal splits land on the same total too.
  Estimate a = simulateUnreliability(d, 1.0, {1'500, seed, 0});
  Estimate b = simulateUnreliability(d, 1.0, {2'500, seed, 1'500});
  EXPECT_EQ(full.hits, a.hits + b.hits);
}

TEST(Streams, DisjointStreamsDiffer) {
  dft::Dft d = dft::corpus::cas();
  Estimate a = simulateUnreliability(d, 1.0, {2'000, 7, 0});
  Estimate b = simulateUnreliability(d, 1.0, {2'000, 7, 2'000});
  // Different run-index windows are independent samples; identical hit
  // counts would suggest the firstRun offset is ignored.
  EXPECT_NE(a.hits, b.hits);
}

TEST(Streams, SplitMixDerivationIsStable) {
  // Pin the stream-derivation function itself: simulator reproducibility
  // across versions depends on these exact constants.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_NE(splitmix64(42, 0), splitmix64(42, 1));
  EXPECT_NE(splitmix64(42, 0), splitmix64(43, 0));
}

}  // namespace
}  // namespace imcdft::simulation
