#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "analyze_once.hpp"
#include "ctmc/transient.hpp"
#include "dft/builder.hpp"
#include "dft/corpus.hpp"
#include "diftree/modular.hpp"
#include "diftree/monolithic.hpp"

/// Property-style differential suites: the compositional-aggregation
/// pipeline and the DIFTree-style monolithic generator are two independent
/// implementations of the same DFT semantics; on deterministic trees they
/// must agree exactly, across gate types, rates, dormancies and mission
/// times.

namespace imcdft::analysis {
namespace {

using dft::DftBuilder;
using dft::SpareKind;

void expectAgreement(const dft::Dft& d, double tolerance = 1e-7) {
  const std::vector<double> times{0.25, 1.0, 2.5};
  AnalysisReport r = analyzeOnce(d, {MeasureSpec::unreliability(times)});
  ASSERT_FALSE(r.nondeterministic());
  diftree::MonolithicResult mono = diftree::generateMonolithic(d);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(r.measures[0].values.at(i),
                ctmc::probabilityOfLabelAt(mono.chain, "down", times[i]),
                tolerance)
        << "t=" << times[i];
  }
}

// ---------- static gates across arity and rates ----------

class StaticGateSweep : public ::testing::TestWithParam<int> {};

TEST_P(StaticGateSweep, AndAgrees) {
  const int n = GetParam();
  DftBuilder b;
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    names.push_back("E" + std::to_string(i));
    b.basicEvent(names.back(), 0.5 + 0.4 * i);
  }
  b.andGate("Top", names).top("Top");
  expectAgreement(b.build());
}

TEST_P(StaticGateSweep, OrAgrees) {
  const int n = GetParam();
  DftBuilder b;
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    names.push_back("E" + std::to_string(i));
    b.basicEvent(names.back(), 0.5 + 0.4 * i);
  }
  b.orGate("Top", names).top("Top");
  expectAgreement(b.build());
}

TEST_P(StaticGateSweep, VotingAgreesForEveryThreshold) {
  const int n = GetParam();
  for (int k = 1; k <= n; ++k) {
    DftBuilder b;
    std::vector<std::string> names;
    for (int i = 0; i < n; ++i) {
      names.push_back("E" + std::to_string(i));
      b.basicEvent(names.back(), 0.3 + 0.3 * i);
    }
    b.votingGate("Top", static_cast<std::uint32_t>(k), names).top("Top");
    expectAgreement(b.build());
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, StaticGateSweep, ::testing::Values(1, 2, 3, 4));

// ---------- PAND order semantics across arity ----------

class PandSweep : public ::testing::TestWithParam<int> {};

TEST_P(PandSweep, Agrees) {
  const int n = GetParam();
  DftBuilder b;
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    names.push_back("E" + std::to_string(i));
    b.basicEvent(names.back(), 1.0 + 0.5 * i);
  }
  b.pandGate("Top", names).top("Top");
  expectAgreement(b.build());
}

INSTANTIATE_TEST_SUITE_P(Arity, PandSweep, ::testing::Values(2, 3, 4));

// ---------- spare gates across dormancy ----------

class SpareSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpareSweep, SingleSpareAgrees) {
  const double alpha = GetParam();
  DftBuilder b;
  b.basicEvent("P", 1.0)
      .basicEvent("S", 2.0, alpha)
      .spareGate("Top", SpareKind::Warm, {"P", "S"})
      .top("Top");
  expectAgreement(b.build());
}

TEST_P(SpareSweep, TwoSparesAgree) {
  const double alpha = GetParam();
  DftBuilder b;
  b.basicEvent("P", 1.0)
      .basicEvent("S1", 2.0, alpha)
      .basicEvent("S2", 1.5, alpha)
      .spareGate("Top", SpareKind::Warm, {"P", "S1", "S2"})
      .top("Top");
  expectAgreement(b.build());
}

TEST_P(SpareSweep, SharedSpareAgrees) {
  const double alpha = GetParam();
  DftBuilder b;
  b.basicEvent("P1", 1.0)
      .basicEvent("P2", 0.7)
      .basicEvent("S", 2.0, alpha)
      .spareGate("G1", SpareKind::Warm, {"P1", "S"})
      .spareGate("G2", SpareKind::Warm, {"P2", "S"})
      .andGate("Top", {"G1", "G2"})
      .top("Top");
  expectAgreement(b.build());
}

INSTANTIATE_TEST_SUITE_P(Dormancy, SpareSweep,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0));

// ---------- FDEP without simultaneity conflicts ----------

class FdepSweep : public ::testing::TestWithParam<double> {};

TEST_P(FdepSweep, SingleDependentAgrees) {
  const double rate = GetParam();
  DftBuilder b;
  b.basicEvent("T", rate)
      .basicEvent("A", 1.0)
      .basicEvent("E", 1.0)
      .fdep("F", "T", {"A"})
      .andGate("Top", {"A", "E"})
      .top("Top");
  expectAgreement(b.build());
}

TEST_P(FdepSweep, ChainedTriggersAgree) {
  const double rate = GetParam();
  DftBuilder b;
  // T kills A; A (with its FDEP) kills Z: a cascade through auxiliaries.
  b.basicEvent("T", rate)
      .basicEvent("A", 1.0)
      .basicEvent("Z", 1.0)
      .basicEvent("E", 1.0)
      .fdep("F1", "T", {"A"})
      .fdep("F2", "A", {"Z"})
      .andGate("Top", {"Z", "E"})
      .top("Top");
  expectAgreement(b.build());
}

INSTANTIATE_TEST_SUITE_P(TriggerRate, FdepSweep,
                         ::testing::Values(0.2, 1.0, 4.0));

// ---------- mission-time sweep on the paper's two systems ----------

class MissionTimeSweep : public ::testing::TestWithParam<double> {};

TEST_P(MissionTimeSweep, CasAgrees) {
  const double t = GetParam();
  dft::Dft d = dft::corpus::cas();
  AnalysisReport r = analyzeOnce(d, {MeasureSpec::unreliability({t})});
  diftree::MonolithicResult mono = diftree::generateMonolithic(d);
  EXPECT_NEAR(r.measures[0].values.at(0),
              ctmc::probabilityOfLabelAt(mono.chain, "down", t), 1e-7);
}

TEST_P(MissionTimeSweep, CpsAgrees) {
  const double t = GetParam();
  dft::Dft d = dft::corpus::cps();
  AnalysisReport r = analyzeOnce(d, {MeasureSpec::unreliability({t})});
  EXPECT_NEAR(r.measures[0].values.at(0),
              std::pow(1 - std::exp(-t), 12.0) / 3.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Times, MissionTimeSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

// ---------- structural invariances ----------

TEST(Invariance, CompositionOrderDoesNotChangeTheMeasure) {
  dft::Dft d = dft::corpus::cas();
  AnalysisOptions modular, declaration;
  declaration.engine.strategy = CompositionStrategy::Declaration;
  const std::vector<MeasureSpec> u{MeasureSpec::unreliability({1.0})};
  double u1 = analyzeOnce(d, u, modular).measures[0].values.at(0);
  double u2 = analyzeOnce(d, u, declaration).measures[0].values.at(0);
  EXPECT_NEAR(u1, u2, 1e-9);
}

TEST(Invariance, SubsetGatesGiveTheSameAnswer) {
  AnalysisOptions subset;
  subset.conversion.subsetGates = true;
  dft::Dft d = dft::corpus::cps();
  const std::vector<MeasureSpec> u{MeasureSpec::unreliability({1.0})};
  double u1 = analyzeOnce(d, u).measures[0].values.at(0);
  double u2 = analyzeOnce(d, u, subset).measures[0].values.at(0);
  EXPECT_NEAR(u1, u2, 1e-9);
}

TEST(Invariance, AggregationOffGivesTheSameAnswerAtHigherCost) {
  AnalysisOptions raw;
  raw.engine.aggregateEachStep = false;
  dft::Dft d = dft::corpus::cascadedPands(2, 3);
  const std::vector<MeasureSpec> u{MeasureSpec::unreliability({1.0})};
  AnalysisReport aggregated = analyzeOnce(d, u);
  AnalysisReport unaggregated = analyzeOnce(d, u, raw);
  EXPECT_NEAR(aggregated.measures[0].values.at(0),
              unaggregated.measures[0].values.at(0), 1e-9);
  EXPECT_LE(aggregated.stats().peakComposedStates,
            unaggregated.stats().peakComposedStates);
}

// ---------- randomized differential testing ----------

/// Builds a pseudo-random static tree from a seed: a few layers of
/// AND/OR/K-M gates over shared basic events.  Deterministic per seed.
dft::Dft randomStaticTree(unsigned seed) {
  std::mt19937 rng(seed);
  auto randint = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
  };
  DftBuilder b;
  const int numBes = randint(3, 6);
  std::vector<std::string> pool;
  for (int i = 0; i < numBes; ++i) {
    pool.push_back("e" + std::to_string(i));
    b.basicEvent(pool.back(), 0.25 * randint(1, 8));
  }
  const int numGates = randint(2, 4);
  for (int g = 0; g < numGates; ++g) {
    // Pick 2-3 distinct inputs from everything built so far.
    std::vector<std::string> inputs = pool;
    std::shuffle(inputs.begin(), inputs.end(), rng);
    inputs.resize(static_cast<std::size_t>(randint(2, 3)));
    std::string name = "g" + std::to_string(g);
    switch (randint(0, 2)) {
      case 0:
        b.andGate(name, inputs);
        break;
      case 1:
        b.orGate(name, inputs);
        break;
      default:
        b.votingGate(name, 2, inputs.size() >= 2 ? inputs
                                                 : std::vector<std::string>{});
        break;
    }
    pool.push_back(name);
  }
  // ORing every gate under the top keeps the tree connected while basic
  // events stay shared between gates (the interesting case for BDDs).
  std::vector<std::string> topInputs;
  for (int g = 0; g < numGates; ++g)
    topInputs.push_back("g" + std::to_string(g));
  b.orGate("Top", topInputs);
  b.top("Top");
  return b.build();
}

class RandomStaticTrees : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomStaticTrees, ThreeSolversAgree) {
  dft::Dft d = randomStaticTree(GetParam());
  const double t = 0.8;
  AnalysisReport r = analyzeOnce(d, {MeasureSpec::unreliability({t})});
  ASSERT_FALSE(r.nondeterministic());
  double compositional = r.measures[0].values.at(0);
  double monolithic = ctmc::probabilityOfLabelAt(
      diftree::generateMonolithic(d).chain, "down", t);
  double bddBased = diftree::modularAnalysis(d, t).unreliability;
  EXPECT_NEAR(compositional, monolithic, 1e-8);
  EXPECT_NEAR(compositional, bddBased, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStaticTrees,
                         ::testing::Range(1u, 13u));

TEST(Invariance, ModuleReuseByRenamingMatchesDirectAnalysis) {
  // Section 5.2: modules A, C, D of the CPS are identical; analysing the
  // tree where they are literally distinct elements must equal the
  // closed-form regardless.
  dft::Dft d = dft::corpus::cascadedPands(3, 4);
  AnalysisReport r = analyzeOnce(d, {MeasureSpec::unreliability({1.0})});
  EXPECT_NEAR(r.measures[0].values.at(0),
              std::pow(1 - std::exp(-1.0), 12.0) / 3.0, 1e-8);
}

}  // namespace
}  // namespace imcdft::analysis
