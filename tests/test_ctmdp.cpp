#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "ctmdp/ctmdp.hpp"
#include "ctmdp/reachability.hpp"

namespace imcdft::ctmdp {
namespace {

/// Deterministic two-state chain as a degenerate CTMDP.
Ctmdp twoState(double lambda) {
  Ctmdp m = Ctmdp::fromRows(0, {{{lambda, 1}}, {}}, {{}, {}}, {false, true});
  return m;
}

TEST(Ctmdp, ValidatesStructure) {
  Ctmdp m = twoState(1.0);
  EXPECT_NO_THROW(m.validate());
  m.goal[0] = true;  // goal with outgoing rates
  EXPECT_THROW(m.validate(), ModelError);
}

TEST(Ctmdp, RejectsVanishingCycle) {
  Ctmdp m = Ctmdp::fromRows(0, {{}, {}}, {{1}, {0}}, {false, false});
  EXPECT_THROW(m.validate(), ModelError);
}

TEST(Reachability, DeterministicMatchesClosedForm) {
  const double lambda = 1.3;
  Ctmdp m = twoState(lambda);
  for (double t : {0.0, 0.5, 2.0}) {
    double expected = 1.0 - std::exp(-lambda * t);
    EXPECT_NEAR(timeBoundedReachability(m, t, true), expected, 1e-8);
    EXPECT_NEAR(timeBoundedReachability(m, t, false), expected, 1e-8);
  }
}

TEST(Reachability, VanishingChoicePicksBestAndWorst) {
  // initial --1--> chooser; chooser chooses between a fast branch (rate 4)
  // and a slow branch (rate 0.25) to the goal.
  Ctmdp m = Ctmdp::fromRows(0, {{{1.0, 1}}, {}, {{4.0, 4}}, {{0.25, 4}}, {}}, {{}, {2, 3}, {}, {}, {}}, {false, false, false, false, true});
  m.validate();
  const double t = 2.0;
  double maxP = timeBoundedReachability(m, t, true);
  double minP = timeBoundedReachability(m, t, false);
  EXPECT_GT(maxP, minP);
  // Hand-computed: P = integral of e^-s * (1 - e^-r(t-s)) ds, r in {4, .25}.
  auto branch = [t](double r) {
    // P(X + Y <= t), X ~ Exp(1), Y ~ Exp(r).
    if (r == 1.0) return 1 - std::exp(-t) * (1 + t);
    return 1 - (r * std::exp(-t) - std::exp(-r * t)) / (r - 1);
  };
  EXPECT_NEAR(maxP, branch(4.0), 1e-6);
  EXPECT_NEAR(minP, branch(0.25), 1e-6);
}

TEST(Reachability, VanishingInitialState) {
  Ctmdp m = Ctmdp::fromRows(0, {{}, {{2.0, 3}}, {{0.5, 3}}, {}}, {{1, 2}, {}, {}, {}}, {false, false, false, true});
  m.validate();
  const double t = 1.0;
  double maxP = timeBoundedReachability(m, t, true);
  double minP = timeBoundedReachability(m, t, false);
  EXPECT_NEAR(maxP, 1 - std::exp(-2.0 * t), 1e-8);
  EXPECT_NEAR(minP, 1 - std::exp(-0.5 * t), 1e-8);
}

TEST(Reachability, ChainedVanishingStatesResolve) {
  // v0 -> v1 -> tangible goal branch; chains of immediate choices.
  Ctmdp m = Ctmdp::fromRows(0, {{}, {}, {{1.0, 3}}, {}}, {{1}, {2}, {}, {}}, {false, false, false, true});
  m.validate();
  EXPECT_NEAR(timeBoundedReachability(m, 1.0, true), 1 - std::exp(-1.0),
              1e-8);
}

TEST(Reachability, GoalAtTimeZero) {
  Ctmdp m = twoState(1.0);
  EXPECT_DOUBLE_EQ(timeBoundedReachability(m, 0.0, true), 0.0);
  m = Ctmdp::fromRows(0, {{}, {}}, {{}, {}}, {true, false});
  m.validate();
  EXPECT_DOUBLE_EQ(timeBoundedReachability(m, 0.0, true), 1.0);
}

TEST(Reachability, BoundsBracketDeterministicValue) {
  Ctmdp m = twoState(0.9);
  ReachabilityBounds b = reachabilityBounds(m, 1.5);
  EXPECT_NEAR(b.lower, b.upper, 1e-9);
}

TEST(Reachability, MaxAtLeastMin) {
  // Random-ish structure with two choice states.
  Ctmdp m = Ctmdp::fromRows(0, {{{1.0, 1}, {2.0, 2}}, {}, {{1.0, 5}}, {{3.0, 5}}, {{0.1, 5}}, {}}, {{}, {3, 4}, {}, {}, {}, {}}, {false, false, false, false, false, true});
  m.validate();
  for (double t : {0.2, 1.0, 5.0}) {
    ReachabilityBounds b = reachabilityBounds(m, t);
    EXPECT_LE(b.lower, b.upper + 1e-12) << "t=" << t;
  }
}

}  // namespace
}  // namespace imcdft::ctmdp
