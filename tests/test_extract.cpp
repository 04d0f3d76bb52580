#include <gtest/gtest.h>

#include <cmath>

#include "analysis/extract.hpp"
#include "common/error.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "ioimc/builder.hpp"
#include "ioimc/ops.hpp"

namespace imcdft::analysis {
namespace {

using ioimc::IOIMC;
using ioimc::IOIMCBuilder;
using ioimc::StateId;

TEST(Extract, RejectsVisibleTransitions) {
  auto symbols = ioimc::makeSymbolTable();
  IOIMCBuilder b("open", symbols);
  StateId s0 = b.addState();
  StateId s1 = b.addState();
  b.setInitial(s0);
  b.output("f");
  b.interactive(s0, "f", s1);
  b.label(s1, "down");
  IOIMC m = std::move(b).build();
  EXPECT_THROW(extract(m, "down"), ModelError);
  EXPECT_NO_THROW(extract(ioimc::hideAllOutputs(m), "down"));
}

TEST(Extract, DeterministicTauChainsForward) {
  auto symbols = ioimc::makeSymbolTable();
  IOIMCBuilder b("chain", symbols);
  StateId s0 = b.addState();
  StateId v1 = b.addState();
  StateId v2 = b.addState();
  StateId end = b.addState();
  b.setInitial(s0);
  b.internal(ioimc::kTauName);
  b.markovian(s0, 2.0, v1);
  b.interactive(v1, ioimc::kTauName, v2);
  b.interactive(v2, ioimc::kTauName, end);
  b.label(end, "down");
  Extraction e = extract(std::move(b).build(), "down");
  ASSERT_TRUE(e.deterministic);
  // Vanishing states eliminated: chain is s0 --2--> end.
  EXPECT_EQ(e.chain.numStates(), 2u);
  EXPECT_NEAR(ctmc::probabilityOfLabelAt(e.chain, "down", 1.0),
              1 - std::exp(-2.0), 1e-9);
}

TEST(Extract, VanishingInitialStateResolves) {
  auto symbols = ioimc::makeSymbolTable();
  IOIMCBuilder b("init", symbols);
  StateId v = b.addState();
  StateId s = b.addState();
  StateId end = b.addState();
  b.setInitial(v);
  b.internal(ioimc::kTauName);
  b.interactive(v, ioimc::kTauName, s);
  b.markovian(s, 1.0, end);
  b.label(end, "down");
  Extraction e = extract(std::move(b).build(), "down");
  ASSERT_TRUE(e.deterministic);
  EXPECT_EQ(e.chain.initial, 0u);
  EXPECT_EQ(e.chain.numStates(), 2u);
}

TEST(Extract, NondeterminismYieldsCtmdp) {
  auto symbols = ioimc::makeSymbolTable();
  IOIMCBuilder b("choice", symbols);
  StateId s0 = b.addState();
  StateId v = b.addState();
  StateId fast = b.addState();
  StateId slow = b.addState();
  StateId goal = b.addState();
  b.setInitial(s0);
  b.internal(ioimc::kTauName);
  b.markovian(s0, 1.0, v);
  b.interactive(v, ioimc::kTauName, fast);
  b.interactive(v, ioimc::kTauName, slow);
  b.markovian(fast, 10.0, goal);
  b.markovian(slow, 0.1, goal);
  b.label(goal, "down");
  Extraction e = extract(std::move(b).build(), "down");
  EXPECT_FALSE(e.deterministic);
  auto bounds = ctmdp::reachabilityBounds(e.mdp, 1.0);
  EXPECT_LT(bounds.lower, bounds.upper);
}

TEST(Extract, MaximalProgressDropsRatesOfVanishingStates) {
  auto symbols = ioimc::makeSymbolTable();
  IOIMCBuilder b("urgent", symbols);
  StateId s0 = b.addState();
  StateId viaTau = b.addState();
  StateId viaRate = b.addState();
  b.setInitial(s0);
  b.internal(ioimc::kTauName);
  b.interactive(s0, ioimc::kTauName, viaTau);
  b.markovian(s0, 100.0, viaRate);
  b.label(viaRate, "down");
  Extraction e = extract(std::move(b).build(), "down");
  ASSERT_TRUE(e.deterministic);
  // Time never passes in s0: the rate to the labelled state is dead.
  EXPECT_NEAR(ctmc::probabilityOfLabelAt(e.chain, "down", 10.0), 0.0, 1e-12);
}

TEST(Extract, DivergentTauCycleIsAnError) {
  auto symbols = ioimc::makeSymbolTable();
  IOIMCBuilder b("cycle", symbols);
  StateId a = b.addState();
  StateId c = b.addState();
  b.setInitial(a);
  b.internal(ioimc::kTauName);
  b.interactive(a, ioimc::kTauName, c);
  b.interactive(c, ioimc::kTauName, a);
  b.label(a, "down");
  EXPECT_THROW(extract(std::move(b).build(), "down"), ModelError);
}

TEST(Extract, MissingLabelMeansEmptyGoal) {
  auto symbols = ioimc::makeSymbolTable();
  IOIMCBuilder b("nolabel", symbols);
  StateId s0 = b.addState();
  StateId s1 = b.addState();
  b.setInitial(s0);
  b.markovian(s0, 1.0, s1);
  Extraction e = extract(std::move(b).build(), "down");
  ASSERT_TRUE(e.deterministic);
  for (std::uint8_t g : e.mdp.goal) EXPECT_FALSE(g);
}

TEST(Extract, CtmdpViewMatchesCtmcOnDeterministicModels) {
  auto symbols = ioimc::makeSymbolTable();
  IOIMCBuilder b("both", symbols);
  StateId s0 = b.addState();
  StateId s1 = b.addState();
  StateId s2 = b.addState();
  b.setInitial(s0);
  b.markovian(s0, 1.0, s1);
  b.markovian(s1, 2.0, s2);
  b.label(s2, "down");
  Extraction e = extract(std::move(b).build(), "down");
  ASSERT_TRUE(e.deterministic);
  for (double t : {0.5, 1.0, 2.0})
    EXPECT_NEAR(ctmc::probabilityOfLabelAt(e.chain, "down", t),
                ctmdp::timeBoundedReachability(e.mdp, t, true), 1e-8);
}

}  // namespace
}  // namespace imcdft::analysis
