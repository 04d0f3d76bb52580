#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/converter.hpp"
#include "analysis/engine.hpp"
#include "common/error.hpp"
#include "dft/builder.hpp"
#include "dft/corpus.hpp"

namespace imcdft::analysis {
namespace {

EngineResult run(const dft::Dft& d, EngineOptions opts = {}) {
  return composeCommunity(convertDft(d), d, opts);
}

TEST(Engine, ResultIsClosedAndFullyHidden) {
  EngineResult r = run(dft::corpus::cps());
  EXPECT_TRUE(r.model.isClosed());
  for (ioimc::StateId s = 0; s < r.model.numStates(); ++s)
    for (const auto& t : r.model.interactive(s))
      EXPECT_TRUE(r.model.signature().isInternal(t.action));
}

TEST(Engine, OneStepPerCompositionPair) {
  dft::Dft d = dft::corpus::cps();
  // Without symmetry reuse, N community members fold in exactly N-1
  // pairwise compositions; the symmetry reduction skips the compositions
  // of reused sibling modules (see test_symmetry.cpp for its invariants).
  EngineOptions plain;
  plain.symmetry = false;
  EngineResult r = run(d, plain);
  Community c = convertDft(d);
  EXPECT_EQ(r.stats.steps.size(), c.models.size() - 1);
  EngineResult reduced = run(d);
  EXPECT_LT(reduced.stats.steps.size(), r.stats.steps.size());
}

TEST(Engine, ModularStrategyRecordsPaperModules) {
  EngineResult r = run(dft::corpus::cps());
  auto hasModule = [&](const std::string& name) {
    return std::any_of(r.stats.modules.begin(), r.stats.modules.end(),
                       [&](const ModuleResult& m) { return m.name == name; });
  };
  EXPECT_TRUE(hasModule("A"));
  EXPECT_TRUE(hasModule("B"));
  EXPECT_TRUE(hasModule("C"));
  EXPECT_TRUE(hasModule("D"));
  EXPECT_TRUE(hasModule("System"));
}

TEST(Engine, CpsModulesAggregateToTheFigure9Chain) {
  EngineResult r = run(dft::corpus::cps());
  for (const ModuleResult& m : r.stats.modules) {
    if (m.name == "A" || m.name == "C" || m.name == "D") {
      // 4 counting states + firing + fired = 6 (Fig. 9).
      EXPECT_EQ(m.states, 6u) << m.name;
      EXPECT_EQ(m.transitions, 5u) << m.name;
    }
  }
}

TEST(Engine, DeclarationSkipsModuleBookkeeping) {
  EngineOptions decl;
  decl.strategy = CompositionStrategy::Declaration;
  EngineResult r = run(dft::corpus::cps(), decl);
  EXPECT_TRUE(r.stats.modules.empty());
  EXPECT_GT(r.stats.steps.size(), 0u);
}

TEST(Engine, TreeWithoutATopModuleMergesAsOnePool) {
  // "Side" watches A from outside the top's dependency closure, so no
  // independent module contains the top: the merge planner folds the
  // whole community as one pool and records no modules.
  dft::Dft d = dft::DftBuilder()
                   .basicEvent("A", 1.0)
                   .basicEvent("B", 2.0)
                   .andGate("Top", {"A", "B"})
                   .orGate("Side", {"A"})
                   .top("Top")
                   .build();
  EngineResult r = run(d);
  EXPECT_TRUE(r.stats.modules.empty());
  EXPECT_EQ(r.stats.steps.size(), convertDft(d).models.size() - 1);
  EXPECT_TRUE(r.model.isClosed());
  EngineOptions decl;
  decl.strategy = CompositionStrategy::Declaration;
  EXPECT_EQ(r.model.numStates(), run(d, decl).model.numStates());
}

TEST(Engine, PeaksAreConsistent) {
  EngineResult r = run(dft::corpus::cas());
  std::size_t maxComposed = 0, maxAggregated = 0;
  for (const CompositionStep& s : r.stats.steps) {
    maxComposed = std::max(maxComposed, s.composedStates);
    maxAggregated = std::max(maxAggregated, s.aggregatedStates);
  }
  EXPECT_EQ(r.stats.peakComposedStates, maxComposed);
  EXPECT_EQ(r.stats.peakAggregatedStates, maxAggregated);
  EXPECT_LE(maxAggregated, maxComposed);
}

TEST(Engine, DisablingSinkCollapseGrowsModules) {
  EngineOptions withCollapse;
  EngineOptions withoutCollapse;
  withoutCollapse.collapseSinks = false;
  EngineResult small = run(dft::corpus::cas(), withCollapse);
  EngineResult big = run(dft::corpus::cas(), withoutCollapse);
  EXPECT_LT(small.model.numStates(), big.model.numStates());
}

TEST(Engine, AggregationOffBlowsUpIntermediateSizes) {
  EngineOptions raw;
  raw.aggregateEachStep = false;
  raw.collapseSinks = false;
  dft::Dft d = dft::corpus::cascadedPands(2, 3);
  EngineResult aggregated = run(d);
  EngineResult unaggregated = run(d, raw);
  EXPECT_LT(aggregated.stats.peakComposedStates,
            unaggregated.stats.peakComposedStates);
}

TEST(Engine, DeclarationOrderFoldsLeftToRight) {
  EngineOptions decl;
  decl.strategy = CompositionStrategy::Declaration;
  dft::Dft d = dft::DftBuilder()
                   .basicEvent("A", 1.0)
                   .basicEvent("B", 1.0)
                   .andGate("Top", {"A", "B"})
                   .top("Top")
                   .build();
  EngineResult r = run(d, decl);
  ASSERT_EQ(r.stats.steps.size(), 3u);  // 4 models: BEs, gate, monitor
  EXPECT_NE(r.stats.steps[0].name.find("BE_A"), std::string::npos);
}

TEST(Engine, CpsPeakIsInThePaperBallpark) {
  // Paper: biggest generated I/O-IMC 156 states / 490 transitions.  With
  // the sink collapse ours is slightly smaller; it must stay well under
  // the monolithic 4113 while being clearly nontrivial.
  EngineResult r = run(dft::corpus::cps());
  EXPECT_GT(r.stats.peakComposedStates, 30u);
  EXPECT_LT(r.stats.peakComposedStates, 400u);
}

TEST(Engine, EmptyCommunityIsRejected) {
  dft::Dft d = dft::corpus::cps();
  Community c = convertDft(d);
  c.models.clear();
  EXPECT_THROW(composeCommunity(std::move(c), d, {}), ModelError);
}

}  // namespace
}  // namespace imcdft::analysis
