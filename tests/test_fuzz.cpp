#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "dft/builder.hpp"
#include "dft/corpus.hpp"
#include "dft/execution.hpp"
#include "dft/galileo.hpp"
#include "dft/generate.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"

/// The differential oracle and the shrinker, including the standing
/// end-to-end drill: an intentionally injected semantics mutation (PAND
/// evaluated as AND in the executor) must be caught by the statistical
/// arm and shrunk to a minimal PAND repro.

namespace imcdft::fuzz {
namespace {

using dft::DftBuilder;

/// Fast oracle settings for unit tests: fewer simulator runs, and a
/// live-state budget so an accidentally heavy tree skips instead of
/// stalling the suite.
OracleOptions fastOracle() {
  OracleOptions opts;
  opts.simRuns = 1500;
  opts.deadlineSeconds = 60.0;
  opts.maxLiveStates = 50'000;
  return opts;
}

/// Scoped enabling of the executor's fault-injection hook.
struct InjectPandBug {
  InjectPandBug() { dft::setPandOrderMutationForTesting(true); }
  ~InjectPandBug() { dft::setPandOrderMutationForTesting(false); }
};

TEST(Oracle, AgreesOnCorpusModels) {
  for (auto make : {dft::corpus::cas, dft::corpus::cps,
                    dft::corpus::figure10c, dft::corpus::mutexSwitch}) {
    const OracleVerdict verdict = crossCheck(make(), fastOracle());
    EXPECT_TRUE(verdict.agreed()) << verdict.detail;
    // reference, otf, parallel, static — the full exact matrix.
    EXPECT_EQ(verdict.configsCompared, 4u);
  }
}

TEST(Oracle, AgreesOnRepairableTree) {
  const OracleVerdict verdict =
      crossCheck(dft::corpus::repairableAnd(), fastOracle());
  EXPECT_TRUE(verdict.agreed()) << verdict.detail;
  EXPECT_TRUE(verdict.repairable);
}

TEST(Oracle, StaticTreeExercisesNumericPath) {
  const OracleVerdict verdict =
      crossCheck(dft::corpus::voterFarm(3, 2), fastOracle());
  EXPECT_TRUE(verdict.agreed()) << verdict.detail;
  EXPECT_TRUE(verdict.staticEligible);
}

TEST(Oracle, NondeterministicModelComparedViaBounds) {
  // A trigger killing two siblings simultaneously is the paper's
  // Section 4.4 nondeterminism; the oracle must compare scheduler bounds
  // bitwise and accept the simulator (one scheduler) inside them.  The
  // PAND must be the top: if the trigger also fails the top directly the
  // ordering is spurious and minimization resolves it away.
  dft::Dft tree = DftBuilder()
                      .basicEvent("T", 1.0)
                      .basicEvent("A", 1.0)
                      .basicEvent("B", 1.0)
                      .pandGate("Top", {"A", "B"})
                      .fdep("F", "T", {"A", "B"})
                      .top("Top")
                      .build();
  const OracleVerdict verdict = crossCheck(tree, fastOracle());
  EXPECT_TRUE(verdict.agreed()) << verdict.detail;
  EXPECT_TRUE(verdict.nondeterministic);
}

TEST(Oracle, AgreesOnGeneratedSeedBlock) {
  // A slice of the real fuzzing loop inside tier 1; budget-capped so a
  // heavy seed skips rather than slowing the suite.
  OracleOptions opts = fastOracle();
  opts.simRuns = 500;
  opts.maxLiveStates = 20'000;
  dft::GeneratorOptions gen;
  gen.maxElements = 13;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const OracleVerdict verdict = crossCheck(dft::generateDft(seed, gen), opts);
    EXPECT_FALSE(verdict.disagreed()) << "seed " << seed << ": "
                                      << verdict.detail;
  }
}

TEST(Oracle, FormerClassicTripsAreCrossChecked) {
  // Generated seed 67's last merge builds 23,995 states under the fused
  // engine but outgrows a 30,000 live-state cap on the classic chain.  The
  // reference row (Production) hands that merge to the fused engine, so
  // the oracle compares the whole matrix instead of skipping the tree.
  OracleOptions opts = fastOracle();
  opts.simRuns = 500;
  opts.maxLiveStates = 30'000;
  const OracleVerdict verdict = crossCheck(dft::generateDft(67), opts);
  EXPECT_TRUE(verdict.agreed()) << verdict.detail;
  EXPECT_EQ(verdict.configsCompared, 4u);
}

TEST(Oracle, ReplayCommandNamesBothTools) {
  OracleOptions opts;
  const std::string cmd = replayCommand("out/repro-seed7.dft", opts);
  EXPECT_NE(cmd.find("dftimc"), std::string::npos);
  EXPECT_NE(cmd.find("dftfuzz --check out/repro-seed7.dft"),
            std::string::npos);
  EXPECT_NE(cmd.find("--seed"), std::string::npos);
}

TEST(Oracle, FuzzCorpusRegressions) {
  // Every shrunken repro checked into corpus/fuzz/ must agree today: each
  // one captured a bug (engine or oracle) that has since been fixed, and
  // a regression re-fires exactly here.  See the file headers for the
  // history of each tree.
  std::size_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(IMCDFT_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() != ".dft") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const OracleVerdict verdict =
        crossCheck(dft::parseGalileo(text.str()), fastOracle());
    EXPECT_TRUE(verdict.agreed())
        << entry.path().filename() << ": " << verdict.detail;
    ++checked;
  }
  EXPECT_GE(checked, 2u);
}

// --- Shrinker -----------------------------------------------------------

TEST(Shrinker, ReducesToPredicateCore) {
  // Predicate: "contains a PAND".  The shrinker should strip everything
  // else and land on a minimal PAND over two events.
  dft::Dft start = dft::corpus::cascadedPands(3, 2);
  auto hasPand = [](const dft::Dft& t) {
    for (dft::ElementId id = 0; id < t.size(); ++id)
      if (t.element(id).type == dft::ElementType::Pand) return true;
    return false;
  };
  ShrinkResult result = shrink(start, hasPand);
  EXPECT_TRUE(hasPand(result.tree));
  EXPECT_LE(result.tree.size(), 3u);  // pand + two basic events
  EXPECT_GT(result.accepted, 0u);
}

TEST(Shrinker, KeepsInputWhenNothingShrinks) {
  dft::Dft minimal = DftBuilder()
                         .basicEvent("A", 1.0)
                         .basicEvent("B", 1.0)
                         .pandGate("Top", {"A", "B"})
                         .top("Top")
                         .build();
  auto hasPand = [](const dft::Dft& t) {
    for (dft::ElementId id = 0; id < t.size(); ++id)
      if (t.element(id).type == dft::ElementType::Pand) return true;
    return false;
  };
  ShrinkResult result = shrink(minimal, hasPand);
  EXPECT_EQ(result.tree.size(), 3u);
}

TEST(Shrinker, SharedEventsDoNotBlockShrinking) {
  dft::Dft shared = DftBuilder()
                        .basicEvent("A", 1.0)
                        .basicEvent("B", 1.0)
                        .basicEvent("C", 1.0)
                        .andGate("G1", {"A", "B"})
                        .andGate("G2", {"A", "C"})
                        .orGate("Top", {"G1", "G2"})
                        .top("Top")
                        .build();
  auto nontrivial = [](const dft::Dft& t) { return t.size() >= 3; };
  ShrinkResult result = shrink(shared, nontrivial);
  EXPECT_TRUE(nontrivial(result.tree));
  EXPECT_LE(result.tree.size(), 3u);
}

// --- The end-to-end injected-bug drill ----------------------------------

TEST(InjectedBugDrill, PandMutationIsCaughtAndShrunk) {
  InjectPandBug guard;
  // Under the mutation the simulator treats PAND as AND:
  // P(AND) - P(PAND) is several percentage points here, which is many
  // sigma at 1500 runs — the statistical arm must fire.
  dft::Dft tree = DftBuilder()
                      .basicEvent("A", 1.0)
                      .basicEvent("B", 1.2)
                      .basicEvent("C", 0.8)
                      .pandGate("P", {"A", "B"})
                      .orGate("Top", {"P", "C"})
                      .top("Top")
                      .build();
  OracleOptions opts = fastOracle();
  const OracleVerdict verdict = crossCheck(tree, opts);
  ASSERT_TRUE(verdict.disagreed()) << verdict.detail;
  EXPECT_NE(verdict.detail.find("simulator"), std::string::npos)
      << verdict.detail;

  ShrinkResult shrunk = shrink(
      tree, [&](const dft::Dft& t) { return crossCheck(t, opts).disagreed(); });
  // Acceptance bar from the harness design: the drill must shrink to a
  // repro of at most 6 elements, and the repro must still disagree.
  EXPECT_LE(shrunk.tree.size(), 6u);
  EXPECT_TRUE(crossCheck(shrunk.tree, opts).disagreed());
  bool hasPand = false;
  for (dft::ElementId id = 0; id < shrunk.tree.size(); ++id)
    hasPand = hasPand || shrunk.tree.element(id).type == dft::ElementType::Pand;
  EXPECT_TRUE(hasPand);
  // The repro must survive a print/parse cycle (it ships as Galileo).
  dft::Dft reparsed = dft::parseGalileo(dft::printGalileo(shrunk.tree));
  EXPECT_TRUE(crossCheck(reparsed, opts).disagreed());
}

TEST(InjectedBugDrill, HookOffMeansAgreement) {
  // The same tree agrees once the hook is off — the drill tests the
  // harness, not a real bug.
  dft::Dft tree = DftBuilder()
                      .basicEvent("A", 1.0)
                      .basicEvent("B", 1.2)
                      .pandGate("Top", {"A", "B"})
                      .top("Top")
                      .build();
  const OracleVerdict verdict = crossCheck(tree, fastOracle());
  EXPECT_TRUE(verdict.agreed()) << verdict.detail;
}

}  // namespace
}  // namespace imcdft::fuzz
