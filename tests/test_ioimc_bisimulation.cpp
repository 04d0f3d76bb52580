#include <gtest/gtest.h>

#include "ioimc/bisimulation.hpp"
#include "ioimc/builder.hpp"
#include "ioimc/model.hpp"
#include "ioimc/ops.hpp"
#include "strong_bisimulation.hpp"

namespace imcdft::ioimc {
namespace {

TEST(WeakBisim, CollapsesInertTauChain) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("chain", symbols);
  StateId s0 = b.addState();
  StateId s1 = b.addState();
  StateId s2 = b.addState();
  StateId s3 = b.addState();
  b.setInitial(s0);
  b.internal(kTauName);
  b.interactive(s0, kTauName, s1);
  b.interactive(s1, kTauName, s2);
  b.markovian(s2, 1.0, s3);
  IOIMC q = aggregate(std::move(b).build());
  // s0 -> s1 -> s2 collapse onto the stable state; s3 is separate only if
  // labels distinguish it - they do not, but the rate structure does:
  // the merged state delays into the absorbing one.
  EXPECT_EQ(q.numStates(), 2u);
  ASSERT_EQ(q.markovian(q.initial()).size(), 1u);
  EXPECT_DOUBLE_EQ(q.markovian(q.initial())[0].rate, 1.0);
}

TEST(WeakBisim, MaximalProgressPrunesRacesAgainstTau) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("race", symbols);
  StateId s0 = b.addState();
  StateId slow = b.addState();
  StateId fast = b.addState();
  b.setInitial(s0);
  b.internal(kTauName);
  b.label(slow, "slow");
  b.label(fast, "fast");
  // tau and a Markovian transition compete: time cannot pass, the
  // Markovian branch is unreachable.
  b.interactive(s0, kTauName, fast);
  b.markovian(s0, 100.0, slow);
  IOIMC q = aggregate(std::move(b).build());
  EXPECT_EQ(q.labelIndex("fast") >= 0, true);
  for (StateId s = 0; s < q.numStates(); ++s)
    EXPECT_FALSE(q.hasLabel(s, q.labelIndex("slow")));
}

TEST(WeakBisim, RespectsLabels) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("labels", symbols);
  StateId s0 = b.addState();
  StateId s1 = b.addState();
  StateId s2 = b.addState();
  b.setInitial(s0);
  b.markovian(s0, 1.0, s1);
  b.markovian(s0, 1.0, s2);
  b.label(s1, "down");
  // s1 and s2 are both absorbing, but the label keeps them apart.
  IOIMC q = aggregate(std::move(b).build());
  EXPECT_EQ(q.numStates(), 3u);
}

TEST(WeakBisim, MergesParallelBranchesWithEqualRates) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("diamond", symbols);
  StateId s0 = b.addState();
  StateId l = b.addState();
  StateId r = b.addState();
  StateId done = b.addState();
  b.setInitial(s0);
  b.markovian(s0, 1.0, l);
  b.markovian(s0, 1.0, r);
  b.markovian(l, 2.0, done);
  b.markovian(r, 2.0, done);
  IOIMC q = aggregate(std::move(b).build());
  // l and r merge; initial state then has one transition of rate 2.
  EXPECT_EQ(q.numStates(), 3u);
  ASSERT_EQ(q.markovian(q.initial()).size(), 1u);
  EXPECT_DOUBLE_EQ(q.markovian(q.initial())[0].rate, 2.0);
}

TEST(WeakBisim, KeepsDistinctRatesApart) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("rates", symbols);
  StateId s0 = b.addState();
  StateId l = b.addState();
  StateId r = b.addState();
  StateId done = b.addState();
  b.setInitial(s0);
  b.markovian(s0, 1.0, l);
  b.markovian(s0, 1.0, r);
  b.markovian(l, 2.0, done);
  b.markovian(r, 3.0, done);
  IOIMC q = aggregate(std::move(b).build());
  EXPECT_EQ(q.numStates(), 4u);
}

TEST(WeakBisim, SaturatesVisibleActionsThroughTau) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("sat", symbols);
  StateId s0 = b.addState();
  StateId s1 = b.addState();
  StateId s2 = b.addState();
  b.setInitial(s0);
  b.internal(kTauName);
  b.output("out");
  b.interactive(s0, kTauName, s1);
  b.interactive(s1, "out", s2);
  IOIMC q = aggregate(std::move(b).build());
  // s0 ~ s1 (tau is inert); quotient: 2 states with a direct out!.
  EXPECT_EQ(q.numStates(), 2u);
  ASSERT_EQ(q.interactive(q.initial()).size(), 1u);
  EXPECT_EQ(q.actionName(q.interactive(q.initial())[0].action), "out");
}

TEST(WeakBisim, PreservesNondeterministicTauChoice) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("nondet", symbols);
  StateId s0 = b.addState();
  StateId l = b.addState();
  StateId r = b.addState();
  StateId lEnd = b.addState();
  StateId rEnd = b.addState();
  b.setInitial(s0);
  b.internal(kTauName);
  b.interactive(s0, kTauName, l);
  b.interactive(s0, kTauName, r);
  b.markovian(l, 1.0, lEnd);
  b.markovian(r, 5.0, rEnd);
  b.label(lEnd, "left");
  b.label(rEnd, "right");
  IOIMC q = aggregate(std::move(b).build());
  // The choice between two genuinely different futures must survive.
  StateId init = q.initial();
  EXPECT_EQ(q.interactive(init).size(), 2u);
  EXPECT_TRUE(q.markovian(init).empty());  // maximal progress
}

TEST(WeakBisim, OutputUrgencyPrunesRates) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("urgent", symbols);
  StateId s0 = b.addState();
  StateId viaOut = b.addState();
  StateId viaRate = b.addState();
  b.setInitial(s0);
  b.output("out");
  b.interactive(s0, "out", viaOut);
  b.markovian(s0, 1.0, viaRate);
  b.label(viaRate, "delayed");
  IOIMC m = std::move(b).build();

  // I/O-IMC urgency: the output fires immediately, the delay never does.
  IOIMC urgent = aggregate(m);
  bool delayedReachable = false;
  for (StateId s = 0; s < urgent.numStates(); ++s)
    if (urgent.hasLabel(s, urgent.labelIndex("delayed")))
      delayedReachable = true;
  EXPECT_FALSE(delayedReachable);
}

TEST(WeakBisim, QuotientIsIdempotent) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("idem", symbols);
  StateId s0 = b.addState();
  StateId s1 = b.addState();
  StateId s2 = b.addState();
  StateId s3 = b.addState();
  b.setInitial(s0);
  b.internal(kTauName);
  b.output("o");
  b.interactive(s0, kTauName, s1);
  b.markovian(s1, 2.0, s2);
  b.interactive(s2, "o", s3);
  IOIMC once = aggregate(std::move(b).build());
  IOIMC twice = aggregate(once);
  EXPECT_EQ(once.numStates(), twice.numStates());
  EXPECT_EQ(once.numTransitions(), twice.numTransitions());
}

TEST(StrongBisim, MovedStateIsReSignedEvenWhenNothingItReadsMoved) {
  // Round 1 splits {s0..s4} into {s2,s3,s4} (kept, the largest piece) and
  // {s0,s1} (moved).  s0's input move into its own class was dropped so
  // far; now its target s2 sits in the kept piece, so s0 reads no moved
  // state, yet the move names another class and sets s0 apart from s1
  // (whose input self-loop is implicit).  A refiner that re-signed only
  // the readers of moved states would keep {s0,s1} together.  The model
  // has no internal move, so weak and strong bisimulation coincide: the
  // weak refiner must reach the naive strong refiner's partition.
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("moved", symbols);
  std::vector<StateId> s;
  for (int i = 0; i < 6; ++i) s.push_back(b.addState());
  b.setInitial(s[0]);
  b.input("a");
  b.interactive(s[0], "a", s[2]);
  for (int i = 2; i <= 4; ++i) b.markovian(s[i], 1.0, s[5]);
  b.label(s[5], "down");
  const IOIMC m = std::move(b).build();
  const std::vector<std::uint32_t> expected{0, 1, 2, 2, 2, 3};
  const Partition strong = test::fullReEncodingStrongBisimulation(m);
  EXPECT_EQ(strong.numClasses, 4u);
  EXPECT_EQ(strong.classOf, expected);
  const Partition weak = weakBisimulation(m);
  EXPECT_EQ(weak.numClasses, 4u);
  EXPECT_EQ(weak.classOf, expected);
}

TEST(WeakBisim, PartitionSizesMatchQuotient) {
  auto symbols = makeSymbolTable();
  IOIMCBuilder b("part", symbols);
  StateId s0 = b.addState();
  StateId s1 = b.addState();
  StateId s2 = b.addState();
  b.setInitial(s0);
  b.markovian(s0, 1.0, s1);
  b.markovian(s1, 1.0, s2);
  IOIMC m = std::move(b).build();
  Partition p = weakBisimulation(m);
  IOIMC q = weakQuotient(m);
  EXPECT_EQ(p.numClasses, q.numStates());
}

}  // namespace
}  // namespace imcdft::ioimc
