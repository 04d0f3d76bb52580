#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/fox_glynn.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"

namespace imcdft::ctmc {
namespace {

/// up --lambda--> down (absorbing, labelled).
Ctmc twoState(double lambda) {
  Ctmc c;
  c.initial = 0;
  c.rates = {{{lambda, 1}}, {}};
  c.labelMasks = {0, 1};
  c.labelNames = {"down"};
  return c;
}

TEST(FoxGlynn, PointMassAtZero) {
  PoissonWeights w = poissonWeights(0.0, 1e-10);
  EXPECT_EQ(w.left, 0u);
  ASSERT_EQ(w.weights.size(), 1u);
  EXPECT_DOUBLE_EQ(w.weights[0], 1.0);
}

TEST(FoxGlynn, MassSumsToOne) {
  for (double q : {0.1, 1.0, 7.3, 50.0, 400.0, 5000.0}) {
    PoissonWeights w = poissonWeights(q, 1e-12);
    EXPECT_NEAR(w.totalMass, 1.0, 1e-9) << "q=" << q;
    // Mode is covered.
    EXPECT_LE(w.left, static_cast<std::size_t>(q));
    EXPECT_GE(w.right(), static_cast<std::size_t>(q));
  }
}

TEST(FoxGlynn, MatchesDirectPmfForSmallQ) {
  const double q = 2.5;
  PoissonWeights w = poissonWeights(q, 1e-13);
  // P(N=2) = e^-q q^2/2.
  double expected = std::exp(-q) * q * q / 2.0;
  ASSERT_GE(w.right(), 2u);
  EXPECT_NEAR(w.weights[2 - w.left], expected, 1e-12);
}

TEST(FoxGlynn, RejectsBadArguments) {
  EXPECT_THROW(poissonWeights(-1.0, 1e-10), NumericalError);
  EXPECT_THROW(poissonWeights(1.0, 0.0), ModelError);
  EXPECT_THROW(poissonWeights(1.0, 2.0), ModelError);
}

TEST(Transient, TwoStateClosedForm) {
  const double lambda = 0.7;
  Ctmc c = twoState(lambda);
  for (double t : {0.0, 0.1, 1.0, 3.0}) {
    double p = probabilityOfLabelAt(c, "down", t);
    EXPECT_NEAR(p, 1.0 - std::exp(-lambda * t), 1e-9) << "t=" << t;
  }
}

TEST(Transient, ErlangClosedForm) {
  // Three sequential phases of rate 2: P(absorbed by t) = Erlang CDF.
  const double r = 2.0, t = 1.3;
  Ctmc c;
  c.initial = 0;
  c.rates = {{{r, 1}}, {{r, 2}}, {{r, 3}}, {}};
  c.labelMasks = {0, 0, 0, 1};
  c.labelNames = {"down"};
  double x = r * t;
  double expected = 1.0 - std::exp(-x) * (1.0 + x + x * x / 2.0);
  EXPECT_NEAR(probabilityOfLabelAt(c, "down", t), expected, 1e-9);
}

TEST(Transient, IndependentParallelFailures) {
  // Two independent exponential components, both must fail (AND):
  // P = (1-e^-at)(1-e^-bt).  4-state product chain.
  const double a = 1.0, b = 3.0, t = 0.8;
  Ctmc c;
  c.initial = 0;
  c.rates = {{{a, 1}, {b, 2}}, {{b, 3}}, {{a, 3}}, {}};
  c.labelMasks = {0, 0, 0, 1};
  c.labelNames = {"down"};
  double expected = (1 - std::exp(-a * t)) * (1 - std::exp(-b * t));
  EXPECT_NEAR(probabilityOfLabelAt(c, "down", t), expected, 1e-9);
}

TEST(Transient, SelfLoopsAreHarmless) {
  const double lambda = 0.7, t = 1.1;
  Ctmc c = twoState(lambda);
  c.rates[0].push_back({5.0, 0});  // exponential self-loop: no effect
  EXPECT_NEAR(probabilityOfLabelAt(c, "down", t),
              1.0 - std::exp(-lambda * t), 1e-9);
}

TEST(Transient, DistributionSumsToOne) {
  Ctmc c;
  c.initial = 0;
  c.rates = {{{1.0, 1}, {2.0, 2}}, {{0.5, 2}}, {{4.0, 0}}};
  c.labelMasks = {0, 0, 0};
  c.labelNames = {};
  auto pi = transientDistribution(c, 2.7);
  double sum = 0.0;
  for (double p : pi) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Transient, CurveIsMonotoneForAbsorbingTarget) {
  Ctmc c = twoState(1.0);
  auto curve = labelCurve(c, "down", {0.1, 0.5, 1.0, 2.0, 4.0});
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i], curve[i - 1]);
}

TEST(Transient, SharedSweepIsBitwiseIdenticalToPerPointRuns) {
  // The multi-time overload shares one uniformized power-vector sweep
  // across all points; per point it must reproduce the single-time call
  // bit for bit (same weights, same iterates, same accumulation order).
  Ctmc c;
  c.initial = 0;
  c.rates = {{{1.0, 1}, {2.0, 2}}, {{0.5, 2}, {0.25, 0}}, {{4.0, 0}}};
  c.labelMasks = {0, 1, 0};
  c.labelNames = {"down"};
  const std::vector<double> times{0.0, 3.7, 0.3, 1.0, 1.0, 0.05};
  std::vector<double> initial{1.0, 0.0, 0.0};
  auto shared = transientDistributions(c, initial, times);
  ASSERT_EQ(shared.size(), times.size());
  for (std::size_t j = 0; j < times.size(); ++j)
    EXPECT_EQ(shared[j], transientDistribution(c, initial, times[j]))
        << "t=" << times[j];
  auto curve = labelCurve(c, "down", times);
  for (std::size_t j = 0; j < times.size(); ++j)
    EXPECT_EQ(curve[j], probabilityOfLabelAt(c, "down", times[j]));
}

TEST(Transient, SharedSweepOnRatelessChain) {
  Ctmc c;
  c.initial = 0;
  c.rates = {{}, {}};
  c.labelMasks = {0, 1};
  c.labelNames = {"down"};
  auto curve = labelCurve(c, "down", {0.0, 1.0, 5.0});
  EXPECT_EQ(curve, (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(Transient, LargeUniformizationParameter) {
  // Fast rates with long horizon exercise the log-space Poisson weights.
  Ctmc c = twoState(200.0);
  EXPECT_NEAR(probabilityOfLabelAt(c, "down", 5.0), 1.0, 1e-9);
}

TEST(SteadyState, BirthDeathClosedForm) {
  // up <-> down with rates lambda, mu: pi(down) = lambda/(lambda+mu).
  const double lambda = 0.4, mu = 1.6;
  Ctmc c;
  c.initial = 0;
  c.rates = {{{lambda, 1}}, {{mu, 0}}};
  c.labelMasks = {0, 1};
  c.labelNames = {"down"};
  EXPECT_NEAR(steadyStateLabelProbability(c, "down"),
              lambda / (lambda + mu), 1e-8);
}

TEST(SteadyState, AbsorbingChainEndsAbsorbed) {
  Ctmc c = twoState(3.0);
  EXPECT_NEAR(steadyStateLabelProbability(c, "down"), 1.0, 1e-8);
}

TEST(Validation, CatchesBrokenChains) {
  Ctmc c;
  c.initial = 5;
  c.rates = {{}};
  c.labelMasks = {0};
  EXPECT_THROW(c.validate(), ModelError);
  c.initial = 0;
  c.rates = {{{-1.0, 0}}};
  EXPECT_THROW(c.validate(), ModelError);
  c.rates = {{{1.0, 7}}};
  EXPECT_THROW(c.validate(), ModelError);
}

}  // namespace
}  // namespace imcdft::ctmc
