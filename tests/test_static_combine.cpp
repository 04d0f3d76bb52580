#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/static_combine.hpp"
#include "common/error.hpp"
#include "dft/builder.hpp"
#include "dft/corpus.hpp"
#include "dft/modules.hpp"

/// \file test_static_combine.cpp
/// The static-layer numeric combination path: the dft::detectStaticLayer
/// eligibility rules (every ineligible configuration must fall back to the
/// composition pipeline and reproduce its measures exactly), the numeric
/// path's agreement with full composition on eligible trees, its peak-size
/// guarantee (the joint product is never built), and the reuse of frontier
/// modules through the session tree cache.

namespace imcdft::analysis {
namespace {

using dft::DftBuilder;
using dft::StaticLayer;

std::vector<std::string> names(const dft::Dft& d,
                               const std::vector<dft::ElementId>& ids) {
  std::vector<std::string> out;
  for (dft::ElementId id : ids) out.push_back(d.element(id).name);
  std::sort(out.begin(), out.end());
  return out;
}

AnalysisReport analyzeCold(const dft::Dft& d, bool staticCombine,
                           std::vector<double> grid = {0.5, 1.0, 2.0},
                           Reference reference = Reference::Production) {
  Analyzer session;
  AnalysisRequest req = AnalysisRequest::forDft(d);
  req.options.engine.staticCombine = staticCombine;
  req.options.engine.reference = reference;
  req.measure(MeasureSpec::unreliability(std::move(grid)));
  return session.analyze(req);
}

// ---------------------------------------------------------------------------
// Detector eligibility
// ---------------------------------------------------------------------------

TEST(DetectStaticLayer, TopGateIsTheLayer) {
  // sensorBanks: a 2-of-N voting top directly over dynamic bank modules.
  dft::Dft d = dft::corpus::sensorBanks(3, 2);
  StaticLayer layer = dft::detectStaticLayer(d);
  ASSERT_TRUE(layer.eligible) << layer.reason;
  EXPECT_EQ(layer.gates.size(), 1u);
  EXPECT_EQ(layer.gates[0], d.top());
  EXPECT_EQ(names(d, layer.moduleRoots),
            (std::vector<std::string>{"Bank_0", "Bank_1", "Bank_2"}));
}

TEST(DetectStaticLayer, VotingLayerExpandsThroughStaticGates) {
  // voterFarm: VOTING top over per-unit ORs — a multi-gate layer whose
  // frontier is the 2*units dynamic sub-modules, not the units.
  dft::Dft d = dft::corpus::voterFarm(3, 2);
  StaticLayer layer = dft::detectStaticLayer(d);
  ASSERT_TRUE(layer.eligible) << layer.reason;
  EXPECT_EQ(layer.gates.size(), 4u);  // System + Unit_0..2
  EXPECT_EQ(layer.moduleRoots.size(), 6u);
  EXPECT_EQ(names(d, layer.moduleRoots),
            (std::vector<std::string>{"Ctrl_0", "Ctrl_1", "Ctrl_2", "Power_0",
                                      "Power_1", "Power_2"}));
}

TEST(DetectStaticLayer, ExpansionRetreatsToTheEnclosingModule) {
  // CAS: the pump unit's AND is a pure static gate, but its spare-gate
  // children share the pool spare PS and are not independent — the
  // detector must stop at Pump_unit instead of cutting through.
  dft::Dft d = dft::corpus::cas();
  StaticLayer layer = dft::detectStaticLayer(d);
  ASSERT_TRUE(layer.eligible) << layer.reason;
  EXPECT_EQ(names(d, layer.moduleRoots),
            (std::vector<std::string>{"CPU_unit", "Motor_unit", "Pump_unit"}));
}

TEST(DetectStaticLayer, FullyStaticTreeDecomposesToBasicEvents) {
  dft::Dft d = DftBuilder()
                   .basicEvent("A", 1.0)
                   .basicEvent("B", 2.0)
                   .basicEvent("C", 3.0)
                   .andGate("left", {"A", "B"})
                   .orGate("Top", {"left", "C"})
                   .top("Top")
                   .build();
  StaticLayer layer = dft::detectStaticLayer(d);
  ASSERT_TRUE(layer.eligible) << layer.reason;
  EXPECT_EQ(layer.gates.size(), 2u);
  EXPECT_EQ(names(d, layer.moduleRoots),
            (std::vector<std::string>{"A", "B", "C"}));
}

TEST(DetectStaticLayer, PandAboveTheLayerIsIneligible) {
  // An order-observing gate above the static region: the region's failure
  // *time* matters, not just its event, so nothing may be combined
  // numerically.
  dft::Dft d = DftBuilder()
                   .basicEvent("A", 1.0)
                   .basicEvent("B", 1.0)
                   .basicEvent("E", 1.0)
                   .orGate("layer", {"A", "B"})
                   .pandGate("Top", {"layer", "E"})
                   .top("Top")
                   .build();
  StaticLayer layer = dft::detectStaticLayer(d);
  EXPECT_FALSE(layer.eligible);
  EXPECT_NE(layer.reason.find("not a static gate"), std::string::npos)
      << layer.reason;
}

TEST(DetectStaticLayer, FdepCrossingTheBoundaryIsIneligible) {
  // Trigger in one would-be module, dependent in the other: the modules
  // are not stochastically independent.
  dft::Dft d = DftBuilder()
                   .basicEvent("A", 1.0)
                   .basicEvent("B", 1.0)
                   .basicEvent("C", 1.0)
                   .basicEvent("D", 1.0)
                   .andGate("M1", {"A", "B"})
                   .andGate("M2", {"C", "D"})
                   .fdep("F", "A", {"C"})
                   .orGate("Top", {"M1", "M2"})
                   .top("Top")
                   .build();
  StaticLayer layer = dft::detectStaticLayer(d);
  EXPECT_FALSE(layer.eligible);
}

TEST(DetectStaticLayer, SharedSparePoolAcrossModulesIsIneligible) {
  // Two spare gates under the top sharing one pool spare: claiming couples
  // them, so neither is an independent module.
  dft::Dft d = DftBuilder()
                   .basicEvent("A", 1.0)
                   .basicEvent("B", 1.0)
                   .basicEvent("S", 1.0, 0.0)
                   .spareGate("G1", dft::SpareKind::Cold, {"A", "S"})
                   .spareGate("G2", dft::SpareKind::Cold, {"B", "S"})
                   .orGate("Top", {"G1", "G2"})
                   .top("Top")
                   .build();
  StaticLayer layer = dft::detectStaticLayer(d);
  EXPECT_FALSE(layer.eligible);
}

TEST(DetectStaticLayer, MutexAcrossBranchesIsIneligible) {
  // fail_open and fail_closed are mutually exclusive but feed different
  // branches of the top OR: the branches are dependent.
  StaticLayer layer = dft::detectStaticLayer(dft::corpus::mutexSwitch());
  EXPECT_FALSE(layer.eligible);
}

TEST(DetectStaticLayer, RepairableTreeIsIneligible) {
  StaticLayer layer = dft::detectStaticLayer(dft::corpus::repairableAnd());
  EXPECT_FALSE(layer.eligible);
  EXPECT_NE(layer.reason.find("repairable"), std::string::npos);
}

TEST(DetectStaticLayer, GateTriggeredFdepModuleStaysOneModule) {
  // Figure 10.c: the FDEP-targeted AND gate A is impure, but A's closure
  // (including trigger and FDEP) is an independent module; E is a
  // single-BE module.
  dft::Dft d = dft::corpus::figure10c();
  StaticLayer layer = dft::detectStaticLayer(d);
  ASSERT_TRUE(layer.eligible) << layer.reason;
  EXPECT_EQ(names(d, layer.moduleRoots),
            (std::vector<std::string>{"A", "E"}));
}

TEST(DetectStaticLayer, HecsLayerStopsAtCoupledModules) {
  // HECS: Buses and Application expand down to BEs; Processors (shared
  // spare) and Memory (FDEP-coupled voting) stay whole modules.
  dft::Dft d = dft::corpus::hecs();
  StaticLayer layer = dft::detectStaticLayer(d);
  ASSERT_TRUE(layer.eligible) << layer.reason;
  EXPECT_EQ(names(d, layer.moduleRoots),
            (std::vector<std::string>{"Bus1", "Bus2", "HW", "Memory",
                                      "Processors", "SW"}));
}

TEST(BuildLayerDft, ReproducesTheLayerStructure) {
  dft::Dft d = dft::corpus::voterFarm(2, 2);
  StaticLayer layer = dft::detectStaticLayer(d);
  ASSERT_TRUE(layer.eligible);
  dft::Dft mini = buildLayerDft(d, layer);
  // 4 pseudo BEs + 2 unit ORs + the voting top.
  EXPECT_EQ(mini.size(), 7u);
  EXPECT_EQ(mini.element(mini.top()).name, "System");
  EXPECT_EQ(mini.element(mini.top()).type, dft::ElementType::Voting);
  EXPECT_FALSE(mini.isDynamic());
}

// ---------------------------------------------------------------------------
// Numeric path vs full composition
// ---------------------------------------------------------------------------

/// 1e-9-relative agreement with a 5e-10 absolute floor — a few times the
/// composition path's own uniformization truncation bound (epsilon =
/// 1e-10); on probabilities below ~1e-3 the full pipeline itself is only
/// that accurate, so no two solvers can meet a pure relative criterion
/// there.
bool agreeRel(const std::vector<double>& a, const std::vector<double>& b,
              double rel) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) >
        rel * std::max(std::abs(a[i]), std::abs(b[i])) + 5e-10)
      return false;
  return true;
}

TEST(StaticCombine, EligibleFamiliesAgreeWithComposition) {
  const struct {
    const char* name;
    dft::Dft tree;
  } families[] = {
      {"cas", dft::corpus::cas()},
      {"hecs", dft::corpus::hecs()},
      {"cloned_cas_2", dft::corpus::clonedCas(2)},
      {"banks_3x2", dft::corpus::sensorBanks(3, 2)},
      {"voter_3of4", dft::corpus::voterFarm(4, 3)},
      {"fig10c", dft::corpus::figure10c()},
  };
  for (const auto& f : families) {
    AnalysisReport on = analyzeCold(f.tree, true);
    AnalysisReport off = analyzeCold(f.tree, false);
    ASSERT_TRUE(on.measures[0].ok) << f.name;
    ASSERT_TRUE(off.measures[0].ok) << f.name;
    ASSERT_TRUE(on.analysis->staticCombo != nullptr) << f.name;
    EXPECT_TRUE(agreeRel(on.measures[0].values, off.measures[0].values, 1e-9))
        << f.name;
    // The numeric path never builds the joint product: its largest
    // intermediate is bounded by the largest single module pipeline.  With
    // the fused (on-the-fly) engine on, peakComposedStates is the peak
    // *live* region, which lands wherever the step happened to cross a
    // refinement trigger — the numeric path's standalone module pipelines
    // hide slightly differently than the in-context ones, so their
    // trigger points can differ by up to the states one expansion adds
    // (one product row).  kOtfPeakJitter bounds that row for these
    // families with room to spare while staying far below any real
    // peak-memory regression (the off-path peaks here are in the
    // hundreds to tens of thousands).
    constexpr std::size_t kOtfPeakJitter = 32;
    EXPECT_LE(on.stats().peakComposedStates,
              off.stats().peakComposedStates + kOtfPeakJitter)
        << f.name;
  }
}

// Wide replicated systems on the classic engine: one frontier module per
// replicated component (linear in the replica count), one curve per module
// shape, and a peak that stays at the largest single module.  Where full
// composition is affordable it is the reference.
TEST(StaticCombine, WideFamiliesStayAtModuleSize) {
  struct Family {
    std::string name;
    dft::Dft tree;
    bool compose;        ///< small enough to compose fully
    std::size_t modules;
    std::size_t curves;
    std::size_t peakBound;
  };
  std::vector<Family> families;
  // Cloned CAS: CPU, motor and pump per unit.  clonedCas(8) composed fully
  // is a ~2.7M-state joint product.
  for (int k = 2; k <= 8; ++k)
    families.push_back({"cas_cloned_" + std::to_string(k),
                        dft::corpus::clonedCas(k), k <= 4,
                        static_cast<std::size_t>(3 * k), 3, 100});
  families.push_back({"banks_6x2", dft::corpus::sensorBanks(6, 2), true, 6, 1,
                      200});
  families.push_back({"banks_8x2", dft::corpus::sensorBanks(8, 2), true, 8, 1,
                      200});
  // Voter farm: a control chain and a power slot per unit.
  families.push_back({"voter_4of2", dft::corpus::voterFarm(4, 2), true, 8, 2,
                      100});
  families.push_back({"voter_6of3", dft::corpus::voterFarm(6, 3), true, 12, 2,
                      100});
  families.push_back({"voter_8of4", dft::corpus::voterFarm(8, 4), false, 16,
                      2, 100});
  const std::vector<double> grid{0.5, 1.0, 2.0};
  for (const Family& f : families) {
    SCOPED_TRACE(f.name);
    AnalysisReport on =
        analyzeCold(f.tree, true, grid, Reference::ClassicChain);
    ASSERT_TRUE(on.measures[0].ok);
    ASSERT_TRUE(on.analysis->staticCombo != nullptr);
    EXPECT_EQ(on.analysis->staticCombo->modules().size(), f.modules);
    EXPECT_EQ(on.analysis->staticCombo->chains().size(), f.curves);
    EXPECT_LT(on.stats().peakComposedStates, f.peakBound);
    for (double v : on.measures[0].values) EXPECT_FALSE(std::isnan(v));
    if (!f.compose) continue;
    AnalysisReport off =
        analyzeCold(f.tree, false, grid, Reference::ClassicChain);
    ASSERT_TRUE(off.measures[0].ok);
    EXPECT_TRUE(agreeRel(on.measures[0].values, off.measures[0].values, 1e-9));
    EXPECT_LE(on.stats().peakComposedStates, off.stats().peakComposedStates);
  }
}

TEST(StaticCombine, IneligibleTreesFallBackBitIdentically) {
  // Fallback means the exact composition pipeline runs; every measure must
  // be bit-identical to --static-combine off, and the analysis must not
  // carry a numeric combination.
  const dft::Dft trees[] = {
      dft::corpus::cps(),          // PAND top
      dft::corpus::mutexSwitch(),  // inhibition across branches
      dft::corpus::figure10a(),    // spare top
      DftBuilder()                 // shared spare pool under the top
          .basicEvent("A", 1.0)
          .basicEvent("B", 1.0)
          .basicEvent("S", 1.0, 0.0)
          .spareGate("G1", dft::SpareKind::Cold, {"A", "S"})
          .spareGate("G2", dft::SpareKind::Cold, {"B", "S"})
          .orGate("Top", {"G1", "G2"})
          .top("Top")
          .build(),
      DftBuilder()  // FDEP crossing the would-be layer boundary
          .basicEvent("A", 1.0)
          .basicEvent("B", 1.0)
          .basicEvent("C", 1.0)
          .basicEvent("D", 1.0)
          .andGate("M1", {"A", "B"})
          .andGate("M2", {"C", "D"})
          .fdep("F", "A", {"C"})
          .orGate("Top", {"M1", "M2"})
          .top("Top")
          .build(),
  };
  for (const dft::Dft& tree : trees) {
    AnalysisReport on = analyzeCold(tree, true);
    AnalysisReport off = analyzeCold(tree, false);
    EXPECT_EQ(on.analysis->staticCombo, nullptr);
    EXPECT_EQ(on.measures[0].values, off.measures[0].values);
    EXPECT_EQ(on.measures[0].bounds.size(), off.measures[0].bounds.size());
    for (std::size_t i = 0; i < on.measures[0].bounds.size(); ++i) {
      EXPECT_EQ(on.measures[0].bounds[i].lower,
                off.measures[0].bounds[i].lower);
      EXPECT_EQ(on.measures[0].bounds[i].upper,
                off.measures[0].bounds[i].upper);
    }
  }
}

TEST(StaticCombine, NondeterministicModuleFallsBackWithAWarning) {
  // Figure 6.a's simultaneity under a static top: the layer is eligible,
  // but the module's extraction is nondeterministic — the numeric path
  // must fall back (with a warning) and reproduce the off-path bounds.
  DftBuilder b;
  b.basicEvent("T", 1.0);
  b.basicEvent("A", 1.0);
  b.basicEvent("B", 1.0);
  b.basicEvent("E", 0.5);
  b.fdep("F", "T", {"A", "B"});
  b.pandGate("P", {"A", "B"});
  b.orGate("Top", {"P", "E"});
  b.top("Top");
  dft::Dft d = b.build();
  ASSERT_TRUE(dft::detectStaticLayer(d).eligible);

  AnalysisReport on = analyzeCold(d, true);
  AnalysisReport off = analyzeCold(d, false);
  EXPECT_EQ(on.analysis->staticCombo, nullptr);
  EXPECT_TRUE(on.nondeterministic());
  bool warned = false;
  for (const Diagnostic& diag : on.diagnostics)
    if (diag.severity == Severity::Warning &&
        diag.message.find("fell back") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned);
  ASSERT_EQ(on.measures[0].bounds.size(), off.measures[0].bounds.size());
  for (std::size_t i = 0; i < on.measures[0].bounds.size(); ++i) {
    EXPECT_EQ(on.measures[0].bounds[i].lower, off.measures[0].bounds[i].lower);
    EXPECT_EQ(on.measures[0].bounds[i].upper, off.measures[0].bounds[i].upper);
  }
}

TEST(StaticCombine, SymmetricSiblingsShareOneCurve) {
  AnalysisReport on = analyzeCold(dft::corpus::clonedCas(4), true);
  ASSERT_TRUE(on.analysis->staticCombo != nullptr);
  const StaticCombination& sc = *on.analysis->staticCombo;
  // 4 units x {CPU, Motor, Pump} = 12 frontier modules, 3 distinct shapes.
  EXPECT_EQ(sc.modules().size(), 12u);
  EXPECT_EQ(sc.chains().size(), 3u);
  EXPECT_EQ(on.stats().symmetricBuckets, 3u);
  EXPECT_EQ(on.stats().symmetricModulesReused, 9u);
  EXPECT_EQ(on.stats().modules.size(), 12u);
  // Aggregation work is linear in the number of *shapes*, not modules:
  // with symmetry off every module is solved separately.
  AnalysisReport noSym = [] {
    Analyzer session;
    AnalysisRequest req = AnalysisRequest::forDft(dft::corpus::clonedCas(4));
    req.options.engine.symmetry = false;
    req.measure(MeasureSpec::unreliability({1.0}));
    return session.analyze(req);
  }();
  ASSERT_TRUE(noSym.analysis->staticCombo != nullptr);
  EXPECT_EQ(noSym.analysis->staticCombo->chains().size(), 12u);
  EXPECT_TRUE(agreeRel(on.measures[0].values,
                       analyzeCold(dft::corpus::clonedCas(4), false)
                           .measures[0]
                           .values,
                       1e-9));
}

TEST(StaticCombine, StepDerivedStatsAreAFoldOfTheSteps) {
  // The numeric path concatenates the module pipelines' steps; every
  // step-derived field of its stats is the engine's fold of those steps.
  AnalysisReport on = analyzeCold(dft::corpus::clonedCas(4), true);
  ASSERT_TRUE(on.analysis->staticCombo != nullptr);
  const CompositionStats& stats = on.stats();
  ASSERT_FALSE(stats.steps.empty());
  CompositionStats folded;
  folded.steps = stats.steps;
  folded.foldSteps();
  EXPECT_EQ(stats.peakComposedStates, folded.peakComposedStates);
  EXPECT_EQ(stats.peakComposedTransitions, folded.peakComposedTransitions);
  EXPECT_EQ(stats.peakAggregatedStates, folded.peakAggregatedStates);
  EXPECT_EQ(stats.peakAggregatedTransitions,
            folded.peakAggregatedTransitions);
  EXPECT_GT(stats.peakComposedStates, 0u);
}

TEST(StaticCombine, JointProductIsNeverMaterialized) {
  // clonedCas(3) composed fully peaks at thousands of states; numerically
  // combined it peaks at the largest single module pipeline.
  AnalysisReport on = analyzeCold(dft::corpus::clonedCas(3), true, {1.0});
  AnalysisReport off = analyzeCold(dft::corpus::clonedCas(3), false, {1.0});
  ASSERT_TRUE(on.analysis->staticCombo != nullptr);
  EXPECT_LT(on.stats().peakComposedStates, 100u);
  EXPECT_GT(off.stats().peakComposedStates,
            10 * on.stats().peakComposedStates);
  EXPECT_TRUE(agreeRel(on.measures[0].values, off.measures[0].values, 1e-9));
}

// ---------------------------------------------------------------------------
// Session reuse: frontier modules are trees
// ---------------------------------------------------------------------------

TEST(StaticCombine, VariantsShareSolvedChainsAcrossTheSession) {
  // Numeric-path analogue of Analyzer.VariantsShareModulesAcrossTheSession:
  // perturbing the CPU unit leaves the motor and pump chains reusable.
  auto perturbed = [](double csLambda) {
    std::string text = dft::corpus::galileoCas();
    const std::string needle = "\"CS\" lambda=0.2;";
    text.replace(text.find(needle), needle.size(),
                 "\"CS\" lambda=" + std::to_string(csLambda) + ";");
    return text;
  };
  Analyzer session;
  AnalysisReport base = session.analyze(
      AnalysisRequest::forGalileo(dft::corpus::galileoCas(), "base")
          .measure(MeasureSpec::unreliability({1.0})));
  ASSERT_TRUE(base.analysis->staticCombo != nullptr);

  AnalysisReport variant = session.analyze(
      AnalysisRequest::forGalileo(perturbed(0.4), "cs=0.4")
          .measure(MeasureSpec::unreliability({1.0})));
  EXPECT_FALSE(variant.fromCache);
  EXPECT_GE(variant.cache.moduleHits, 2u);  // motor + pump chains reused
  EXPECT_GT(variant.cache.stepsSaved, 0u);
  EXPECT_LT(variant.cache.stepsRun, base.cache.stepsRun);
  EXPECT_EQ(variant.stats().cachedModules, 2u);

  // Same grid, same chains: the repeated request is a pure tree-cache hit,
  // and a new grid only re-solves curves, not chains.
  AnalysisReport repeat = session.analyze(
      AnalysisRequest::forGalileo(perturbed(0.4), "cs=0.4 again")
          .measure(MeasureSpec::unreliability({1.0})));
  EXPECT_TRUE(repeat.fromCache);
  EXPECT_EQ(repeat.measures[0].values, variant.measures[0].values);
  AnalysisReport regrid = session.analyze(
      AnalysisRequest::forGalileo(perturbed(0.4), "cs=0.4 regrid")
          .measure(MeasureSpec::unreliability({0.25, 0.75})));
  EXPECT_TRUE(regrid.fromCache);  // same tree+options: analysis shared
  Analyzer cold;
  AnalysisReport coldRegrid = cold.analyze(
      AnalysisRequest::forGalileo(perturbed(0.4), "cs=0.4 cold")
          .measure(MeasureSpec::unreliability({0.25, 0.75})));
  ASSERT_TRUE(regrid.allMeasuresOk());
  EXPECT_EQ(regrid.measures[0].values, coldRegrid.measures[0].values);
}

TEST(StaticCombine, FrontierModulesShareTheTreeCache) {
  // A frontier module is an ordinary tree: the numeric path caches it
  // under the key a request for the extracted module alone probes, so
  // that request is a pure tree-cache hit.
  const dft::Dft cas = dft::corpus::cas();
  const dft::Dft motor = dft::extractModule(cas, cas.byName("Motor_unit"));
  auto mttf = [&](Analyzer& session) {
    return session.analyze(
        AnalysisRequest::forDft(motor, "motor").measure(MeasureSpec::mttf()));
  };
  Analyzer session;
  AnalysisReport numeric = session.analyze(
      AnalysisRequest::forDft(cas, "cas")
          .measure(MeasureSpec::unreliability({1.0})));
  ASSERT_TRUE(numeric.analysis->staticCombo != nullptr);
  AnalysisReport warm = mttf(session);
  EXPECT_TRUE(warm.fromCache);
  EXPECT_EQ(warm.cache.stepsRun, 0u);
  const StaticCombination& combo = *numeric.analysis->staticCombo;
  for (const NumericModule& m : combo.modules()) {
    if (m.name == "Motor_unit") {  // the very analysis the numeric path solved
      EXPECT_EQ(warm.analysis.get(), combo.chains()[m.chain].analysis.get());
    }
  }

  Analyzer coldSession;
  AnalysisReport cold = mttf(coldSession);
  ASSERT_TRUE(warm.allMeasuresOk());
  ASSERT_TRUE(cold.allMeasuresOk());
  EXPECT_EQ(warm.measures[0].values, cold.measures[0].values);  // bitwise
}

TEST(StaticCombine, BoundsCollapseOnTheNumericPath) {
  AnalysisReport rep = [] {
    Analyzer session;
    AnalysisRequest req = AnalysisRequest::forDft(dft::corpus::cas());
    req.measure(MeasureSpec::unreliability({1.0}))
        .measure(MeasureSpec::unreliabilityBounds({1.0}));
    return session.analyze(req);
  }();
  ASSERT_TRUE(rep.analysis->staticCombo != nullptr);
  ASSERT_TRUE(rep.measures[1].ok);
  ASSERT_EQ(rep.measures[1].bounds.size(), 1u);
  EXPECT_EQ(rep.measures[1].bounds[0].lower, rep.measures[0].values[0]);
  EXPECT_EQ(rep.measures[1].bounds[0].upper, rep.measures[0].values[0]);
}

TEST(StaticCombine, NonUnreliabilityMeasuresUseTheFullPipeline) {
  // An MTTF request on an eligible tree must route to composition (the
  // numeric path cannot answer it), and both analyses may coexist in one
  // session under their distinct cache keys.
  Analyzer session;
  AnalysisReport numeric = session.analyze(
      AnalysisRequest::forDft(dft::corpus::cas())
          .measure(MeasureSpec::unreliability({1.0})));
  EXPECT_TRUE(numeric.analysis->staticCombo != nullptr);
  AnalysisReport mttf = session.analyze(
      AnalysisRequest::forDft(dft::corpus::cas())
          .measure(MeasureSpec::mttf()));
  EXPECT_EQ(mttf.analysis->staticCombo, nullptr);
  ASSERT_TRUE(mttf.measures[0].ok);
  EXPECT_NEAR(mttf.measures[0].values[0], 0.85973600037066156, 1e-9);
  // And the numeric analysis is still served from cache afterwards.
  AnalysisReport again = session.analyze(
      AnalysisRequest::forDft(dft::corpus::cas())
          .measure(MeasureSpec::unreliability({1.0})));
  EXPECT_TRUE(again.fromCache);
  EXPECT_TRUE(again.analysis->staticCombo != nullptr);
}

TEST(StaticCombine, FreeFunctionFacadeEvaluatesNumericAnalyses) {
  AnalysisReport rep = analyzeCold(dft::corpus::cas(), true, {1.0});
  ASSERT_TRUE(rep.analysis->staticCombo != nullptr);
  const DftAnalysis& a = *rep.analysis;
  // A second cold request asks for the point value, a curve through the
  // same time and the scheduler bounds; on the numeric path all three
  // repeat the first request's value.
  AnalysisReport again = Analyzer().analyze(
      AnalysisRequest::forDft(dft::corpus::cas())
          .measure(MeasureSpec::unreliability({1.0}))
          .measure(MeasureSpec::unreliability({0.5, 1.0}))
          .measure(MeasureSpec::unreliabilityBounds({1.0})));
  ASSERT_TRUE(again.analysis->staticCombo != nullptr);
  EXPECT_EQ(again.measures[0].values.at(0), rep.measures[0].values[0]);
  EXPECT_EQ(again.measures[1].values.at(1), rep.measures[0].values[0]);
  ctmdp::ReachabilityBounds b = again.measures[2].bounds.at(0);
  EXPECT_EQ(b.lower, rep.measures[0].values[0]);
  EXPECT_EQ(b.upper, rep.measures[0].values[0]);
  EXPECT_THROW(fullExtraction(a), Error);
}

}  // namespace
}  // namespace imcdft::analysis
