#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "dft/builder.hpp"
#include "dft/corpus.hpp"
#include "dft/hash.hpp"
#include "common/error.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/builder.hpp"
#include "ioimc/compose.hpp"
#include "ioimc/ops.hpp"
#include "strong_bisimulation.hpp"

/// The symmetry reduction end to end: rename-invariant module shapes
/// (dft::moduleShape), the renameActions edge cases it relies on, the
/// engine's one-aggregation-per-shape bucketing with its counters, the
/// acceptance golden (--symmetry on is bit-identical to --symmetry off
/// across the replica families), and the Analyzer's exact-keyed module
/// cache, which does not reuse a module across renamed scenario variants.

// ---------------------------------------------------------------------------
// dft::moduleShape
// ---------------------------------------------------------------------------

namespace imcdft::dft {
namespace {

TEST(ModuleShape, IsomorphicModulesShareAKey) {
  Dft cps = corpus::cps();
  ModuleShape a = moduleShape(cps, cps.byName("A"));
  ModuleShape c = moduleShape(cps, cps.byName("C"));
  ModuleShape d = moduleShape(cps, cps.byName("D"));
  EXPECT_EQ(a.key, c.key);
  EXPECT_EQ(a.key, d.key);
  // The name bases line up index-wise: names[i] of one module corresponds
  // to names[i] of the other under the module isomorphism.
  ASSERT_EQ(a.names.size(), c.names.size());
  EXPECT_EQ(a.names.front(), "A");
  EXPECT_EQ(c.names.front(), "C");
  EXPECT_EQ(a.names[1], "A1");
  EXPECT_EQ(c.names[1], "C1");
}

TEST(ModuleShape, DifferentStructuresDiffer) {
  Dft cps = corpus::cps();
  ModuleShape gate = moduleShape(cps, cps.byName("A"));
  ModuleShape pand = moduleShape(cps, cps.byName("B"));
  EXPECT_NE(gate.key, pand.key);
}

TEST(ModuleShape, RatesArePartOfTheShape) {
  auto tree = [](double lambda) {
    return DftBuilder()
        .basicEvent("X1", lambda)
        .basicEvent("X2", lambda)
        .andGate("X", {"X1", "X2"})
        .basicEvent("Z", 1.0)
        .orGate("Top", {"X", "Z"})
        .top("Top")
        .build();
  };
  Dft slow = tree(0.5);
  Dft fast = tree(2.0);
  EXPECT_NE(moduleShape(slow, slow.byName("X")).key,
            moduleShape(fast, fast.byName("X")).key);
  // While a pure rename keeps the key.
  Dft renamed = DftBuilder()
                    .basicEvent("Y1", 0.5)
                    .basicEvent("Y2", 0.5)
                    .andGate("Y", {"Y1", "Y2"})
                    .basicEvent("Z", 1.0)
                    .orGate("Top", {"Y", "Z"})
                    .top("Top")
                    .build();
  EXPECT_EQ(moduleShape(slow, slow.byName("X")).key,
            moduleShape(renamed, renamed.byName("Y")).key);
}

}  // namespace
}  // namespace imcdft::dft

// ---------------------------------------------------------------------------
// ioimc::renameActions edge cases
// ---------------------------------------------------------------------------

namespace imcdft::ioimc {
namespace {

/// Exact structural equality (states, transitions, signature, labels).
void expectSameModel(const IOIMC& x, const IOIMC& y) {
  ASSERT_EQ(x.numStates(), y.numStates());
  EXPECT_EQ(x.initial(), y.initial());
  EXPECT_EQ(x.signature(), y.signature());
  EXPECT_EQ(x.labelNames(), y.labelNames());
  for (StateId s = 0; s < x.numStates(); ++s) {
    EXPECT_EQ(x.labelMask(s), y.labelMask(s)) << "state " << s;
    auto xi = x.interactive(s);
    auto yi = y.interactive(s);
    ASSERT_TRUE(std::equal(xi.begin(), xi.end(), yi.begin(), yi.end()))
        << "interactive rows of state " << s << " differ";
    auto xm = x.markovian(s);
    auto ym = y.markovian(s);
    ASSERT_TRUE(std::equal(xm.begin(), xm.end(), ym.begin(), ym.end()))
        << "markovian rows of state " << s << " differ";
  }
}

/// A producer/consumer pair over one shared action plus private behavior.
std::pair<IOIMC, IOIMC> makePair(const SymbolTablePtr& symbols) {
  IOIMCBuilder a("A", symbols);
  StateId a0 = a.addState(), a1 = a.addState(), a2 = a.addState();
  a.setInitial(a0);
  a.output("out_a");
  a.input("sync");
  a.markovian(a0, 2.0, a1);
  a.interactive(a1, "out_a", a2);
  a.interactive(a0, "sync", a2);
  a.label(a2, "down");
  IOIMC ma = std::move(a).build();

  IOIMCBuilder b("B", symbols);
  StateId b0 = b.addState(), b1 = b.addState();
  b.setInitial(b0);
  b.output("sync");
  b.input("out_a");
  b.markovian(b0, 1.0, b1);
  b.interactive(b1, "sync", b0);
  b.interactive(b0, "out_a", b1);
  IOIMC mb = std::move(b).build();
  return {std::move(ma), std::move(mb)};
}

std::unordered_map<ActionId, std::string> renamingFor(
    const SymbolTablePtr& symbols,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::unordered_map<ActionId, std::string> renaming;
  for (const auto& [from, to] : pairs) renaming.emplace(symbols->intern(from), to);
  return renaming;
}

TEST(RenameActions, IdentityIsANoOp) {
  SymbolTablePtr symbols = makeSymbolTable();
  auto [a, b] = makePair(symbols);
  IOIMC m = compose(a, b);
  expectSameModel(m, renameActions(m, {}));
  expectSameModel(
      m, renameActions(m, renamingFor(symbols, {{"out_a", "out_a"},
                                                {"sync", "sync"}})));
}

TEST(RenameActions, CollidingTargetsAreRejected) {
  SymbolTablePtr symbols = makeSymbolTable();
  auto [a, b] = makePair(symbols);
  IOIMC m = compose(a, b);
  // Two distinct actions mapped onto one name.
  EXPECT_THROW(renameActions(m, renamingFor(symbols, {{"out_a", "clash"},
                                                      {"sync", "clash"}})),
               ModelError);
  // Renaming one action onto another existing, unrenamed action.
  EXPECT_THROW(renameActions(m, renamingFor(symbols, {{"out_a", "sync"}})),
               ModelError);
}

TEST(RenameActions, CommutesWithComposeExactlyWhenOrderPreserving) {
  SymbolTablePtr symbols = makeSymbolTable();
  auto [a, b] = makePair(symbols);
  // Intern the targets in the same relative order as the sources so the
  // id map is order-preserving — the engine's bitwise-identity condition.
  symbols->intern("z_out_a");
  symbols->intern("z_sync");
  std::vector<std::pair<std::string, std::string>> sigma{
      {"out_a", "z_out_a"}, {"sync", "z_sync"}};
  IOIMC left = compose(renameActions(a, renamingFor(symbols, sigma)),
                       renameActions(b, renamingFor(symbols, sigma)));
  IOIMC right = renameActions(compose(a, b), renamingFor(symbols, sigma));
  expectSameModel(left, right);
}

TEST(RenameActions, CommutesWithComposeUpToStrongBisimulation) {
  SymbolTablePtr symbols = makeSymbolTable();
  auto [a, b] = makePair(symbols);
  // Reversed interning order: the id map is injective but NOT
  // order-preserving, so the two sides may differ structurally — they must
  // still be strongly bisimilar.
  symbols->intern("r_sync");
  symbols->intern("r_out_a");
  std::vector<std::pair<std::string, std::string>> sigma{
      {"out_a", "r_out_a"}, {"sync", "r_sync"}};
  IOIMC left = compose(renameActions(a, renamingFor(symbols, sigma)),
                       renameActions(b, renamingFor(symbols, sigma)));
  IOIMC right = renameActions(compose(a, b), renamingFor(symbols, sigma));
  EXPECT_TRUE(test::stronglyBisimilar(left, right));
}

}  // namespace
}  // namespace imcdft::ioimc

// ---------------------------------------------------------------------------
// Engine-level symmetry reduction
// ---------------------------------------------------------------------------

namespace imcdft::analysis {
namespace {

AnalysisReport analyzeCold(const dft::Dft& d, bool symmetry,
                           std::vector<MeasureSpec> measures,
                           unsigned threads = 1) {
  Analyzer session;
  AnalysisRequest req = AnalysisRequest::forDft(d);
  req.options.engine.symmetry = symmetry;
  req.options.engine.numThreads = threads;
  // These tests probe the composition engine's symmetry machinery; the
  // static-combination numeric path would bypass the top-level fold (its
  // own symmetry counters are covered in test_static_combine.cpp).
  req.options.engine.staticCombine = false;
  for (MeasureSpec& m : measures) req.measure(std::move(m));
  return session.analyze(req);
}

TEST(EngineSymmetry, CpsAggregatesOneRepresentativePerShape) {
  AnalysisReport off = analyzeCold(dft::corpus::cps(), false,
                                   {MeasureSpec::unreliability({1.0})});
  AnalysisReport on = analyzeCold(dft::corpus::cps(), true,
                                  {MeasureSpec::unreliability({1.0})});
  // A, C, D share one shape: one bucket, two sibling instantiations.
  EXPECT_EQ(on.stats().symmetricBuckets, 1u);
  EXPECT_EQ(on.stats().symmetricModulesReused, 2u);
  EXPECT_GT(on.stats().symmetrySavedSteps, 0u);
  EXPECT_LT(on.stats().steps.size(), off.stats().steps.size());
  EXPECT_EQ(off.stats().symmetricBuckets, 0u);
  EXPECT_EQ(off.stats().symmetricModulesReused, 0u);
  // The sibling records survive with their own names and the
  // representative's sizes (Fig. 9: six states per CPS module).
  for (const char* name : {"A", "C", "D"}) {
    auto it = std::find_if(
        on.stats().modules.begin(), on.stats().modules.end(),
        [&](const ModuleResult& m) { return m.name == name; });
    ASSERT_NE(it, on.stats().modules.end()) << name;
    EXPECT_EQ(it->states, 6u) << name;
  }
}

TEST(EngineSymmetry, ClonedCasFormsOneBucketOverTheUnits) {
  AnalysisReport on = analyzeCold(dft::corpus::clonedCas(3), true,
                                  {MeasureSpec::unreliability({1.0})});
  EXPECT_EQ(on.stats().symmetricBuckets, 1u);
  EXPECT_EQ(on.stats().symmetricModulesReused, 2u);
}

TEST(EngineSymmetry, SensorBanksFormNestedBuckets) {
  AnalysisReport on = analyzeCold(dft::corpus::sensorBanks(3, 2), true,
                                  {MeasureSpec::unreliability({1.0})});
  // One bucket over the three banks (two reused) and one inside the
  // representative bank over its two sensor chains (one reused).
  EXPECT_EQ(on.stats().symmetricBuckets, 2u);
  EXPECT_EQ(on.stats().symmetricModulesReused, 3u);
}

// The acceptance golden: every measure with --symmetry on is bit-identical
// to --symmetry off, across the replica families, deterministic and
// nondeterministic trees, and thread counts.
TEST(EngineSymmetry, MeasuresAreBitIdenticalToTheSymmetryOffPath) {
  const std::vector<double> grid{0.5, 1.0, 2.0};
  struct Family {
    const char* name;
    dft::Dft tree;
  };
  const Family families[] = {
      {"cas", dft::corpus::cas()},
      {"cps", dft::corpus::cps()},
      {"hecs", dft::corpus::hecs()},
      {"cps_4x3", dft::corpus::cascadedPands(4, 3)},
      {"cas_cloned_3", dft::corpus::clonedCas(3)},
      {"banks_3x2", dft::corpus::sensorBanks(3, 2)},
      {"fig10a", dft::corpus::figure10a()},
      {"fig10b", dft::corpus::figure10b()},
      {"fig10c", dft::corpus::figure10c()},
      {"mutex", dft::corpus::mutexSwitch()},
  };
  for (const Family& f : families) {
    for (unsigned threads : {1u, 4u}) {
      AnalysisReport off = analyzeCold(
          f.tree, false,
          {MeasureSpec::unreliability(grid), MeasureSpec::mttf()}, threads);
      AnalysisReport on = analyzeCold(
          f.tree, true,
          {MeasureSpec::unreliability(grid), MeasureSpec::mttf()}, threads);
      ASSERT_EQ(off.measures.size(), on.measures.size()) << f.name;
      for (std::size_t m = 0; m < off.measures.size(); ++m) {
        EXPECT_EQ(off.measures[m].ok, on.measures[m].ok) << f.name;
        EXPECT_EQ(off.measures[m].values, on.measures[m].values)
            << f.name << " measure " << m << " threads " << threads;
        ASSERT_EQ(off.measures[m].bounds.size(), on.measures[m].bounds.size())
            << f.name;
        for (std::size_t i = 0; i < off.measures[m].bounds.size(); ++i) {
          EXPECT_EQ(off.measures[m].bounds[i].lower,
                    on.measures[m].bounds[i].lower)
              << f.name;
          EXPECT_EQ(off.measures[m].bounds[i].upper,
                    on.measures[m].bounds[i].upper)
              << f.name;
        }
      }
      EXPECT_EQ(off.analysis->closedModel.numStates(),
                on.analysis->closedModel.numStates())
          << f.name;
    }
  }
}

// The replica families: aggregation work drops from one per module to one
// per distinct module shape, on the classic engine, without changing a bit.
TEST(EngineSymmetry, ReplicaFamiliesAggregateOncePerShape) {
  struct Family {
    const char* name;
    dft::Dft tree;
    /// Distinct proper-module shapes.  Cloned CAS: the unit, its CPU,
    /// motor and pump sub-modules and the top.  Sensor banks: bank, sensor
    /// chain, top.  Cascaded PANDs: one AND shape plus every PAND of the
    /// chain.
    std::size_t shapes;
  };
  const Family families[] = {
      {"cas_cloned_2", dft::corpus::clonedCas(2), 6},
      {"cas_cloned_4", dft::corpus::clonedCas(4), 6},
      {"banks_4x3", dft::corpus::sensorBanks(4, 3), 3},
      {"banks_8x2", dft::corpus::sensorBanks(8, 2), 3},
      {"cps_8x10", dft::corpus::cascadedPands(8, 10), 8},
      {"cps_6x14", dft::corpus::cascadedPands(6, 14), 6},
  };
  for (const Family& f : families) {
    SCOPED_TRACE(f.name);
    const std::vector<MeasureSpec> grid{
        MeasureSpec::unreliability({0.5, 1.0, 2.0})};
    AnalysisReport off = analyzeCold(f.tree, false, grid);
    AnalysisReport on = analyzeCold(f.tree, true, grid);
    ASSERT_TRUE(off.measures[0].ok && on.measures[0].ok);
    EXPECT_EQ(off.measures[0].values, on.measures[0].values);
    for (double v : on.measures[0].values) EXPECT_FALSE(std::isnan(v));
    EXPECT_GT(on.stats().symmetricBuckets, 0u);
    EXPECT_GT(on.stats().symmetricModulesReused, 0u);
    const std::size_t aggregated =
        on.stats().modules.size() - on.stats().symmetricModulesReused;
    EXPECT_EQ(aggregated, f.shapes);
    EXPECT_LT(aggregated, off.stats().modules.size());
    EXPECT_LT(on.stats().steps.size(), off.stats().steps.size());
  }
}

TEST(EngineSymmetry, BitIdenticalOnNondeterministicAndRepairableTrees) {
  AnalysisReport off = analyzeCold(dft::corpus::figure6b(), false,
                                   {MeasureSpec::unreliabilityBounds({1.0})});
  AnalysisReport on = analyzeCold(dft::corpus::figure6b(), true,
                                  {MeasureSpec::unreliabilityBounds({1.0})});
  ASSERT_EQ(off.measures[0].bounds.size(), on.measures[0].bounds.size());
  EXPECT_EQ(off.measures[0].bounds[0].lower, on.measures[0].bounds[0].lower);
  EXPECT_EQ(off.measures[0].bounds[0].upper, on.measures[0].bounds[0].upper);

  AnalysisReport offR =
      analyzeCold(dft::corpus::repairableAnd(), false,
                  {MeasureSpec::unavailability({0.5, 1.0}),
                   MeasureSpec::steadyStateUnavailability()});
  AnalysisReport onR =
      analyzeCold(dft::corpus::repairableAnd(), true,
                  {MeasureSpec::unavailability({0.5, 1.0}),
                   MeasureSpec::steadyStateUnavailability()});
  for (std::size_t m = 0; m < offR.measures.size(); ++m)
    EXPECT_EQ(offR.measures[m].values, onR.measures[m].values);
}

// ---------------------------------------------------------------------------
// Analyzer module cache across renamed variants
// ---------------------------------------------------------------------------

/// Two trees identical up to a consistent renaming of one AND module.
dft::Dft variantTree(const std::string& prefix) {
  return dft::DftBuilder()
      .basicEvent(prefix + "1", 0.7)
      .basicEvent(prefix + "2", 0.7)
      .andGate(prefix, {prefix + "1", prefix + "2"})
      .basicEvent("K1", 1.3)
      .basicEvent("K2", 1.3)
      .andGate("K", {"K1", "K2"})
      .pandGate("Top", {prefix, "K"})
      .top("Top")
      .build();
}

/// Module keys are exact, with symmetry on or off: across two requests of
/// one session, the renamed module N misses the model stored for M, and only
/// the unchanged K splices.
void expectOnlyTheUnchangedModuleHits(bool symmetry) {
  Analyzer session;
  auto request = [&](const std::string& prefix) {
    AnalysisRequest req = AnalysisRequest::forDft(variantTree(prefix), prefix);
    req.options.engine.symmetry = symmetry;
    return req.measure(MeasureSpec::unreliability({1.0}));
  };
  AnalysisReport first = session.analyze(request("M"));
  AnalysisReport second = session.analyze(request("N"));
  EXPECT_NE(first.treeHash, second.treeHash);
  EXPECT_FALSE(second.fromCache);
  EXPECT_EQ(second.cache.moduleHits, 1u);
  EXPECT_EQ(second.cache.moduleMisses, 1u);
  EXPECT_EQ(second.stats().cachedModules, 1u);
  EXPECT_LT(second.cache.stepsRun, first.cache.stepsRun);

  // The spliced pipeline agrees with a cold, uncached analysis.
  AnalysisReport cold = analyzeCold(variantTree("N"), symmetry,
                                    {MeasureSpec::unreliability({1.0})});
  ASSERT_TRUE(second.measures[0].ok);
  EXPECT_GT(second.measures[0].values[0], 0.0);
  EXPECT_NEAR(second.measures[0].values[0], cold.measures[0].values[0], 1e-12);
  // The variants differ only in names, so they agree on the measure too.
  EXPECT_NEAR(second.measures[0].values[0], first.measures[0].values[0],
              1e-12);
}

// With symmetry on, the module cache still hits across renamed variants, but
// only on the module whose names did not change: there is no shape-keyed
// lookup that would splice M's model for N.
TEST(AnalyzerSymmetry, ShapeCacheHitsAcrossRenamedVariants) {
  expectOnlyTheUnchangedModuleHits(true);
}

TEST(AnalyzerSymmetry, SymmetryOffKeepsExactKeying) {
  expectOnlyTheUnchangedModuleHits(false);
}

}  // namespace
}  // namespace imcdft::analysis
