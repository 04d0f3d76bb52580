#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/converter.hpp"
#include "analysis/engine.hpp"
#include "analysis/extract.hpp"
#include "common/cancel.hpp"
#include "dft/corpus.hpp"
#include "dft/generate.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/ops.hpp"
#include "obs/trace.hpp"

/// \file test_closed_tail.cpp
/// The engine's last merge already yields the closed, minimal, canonically
/// numbered quotient, so the engine skips its finalize pass (hide all
/// outputs, collapse, aggregate) and the Analyzer extracts the absorbed
/// chain without re-aggregating unless a down state still has behaviour.
/// These tests keep the old tail as the reference: on the corpus families
/// and fuzz seeds 0..149 the skipped passes must be identities (up to the
/// model's display name), bit for bit, and the guards must still finalize
/// or re-aggregate where the skip does not hold.

namespace imcdft {
namespace {

using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::CompositionStrategy;
using analysis::EngineOptions;
using analysis::EngineResult;
using analysis::Extraction;
using ioimc::IOIMC;

constexpr const char* kDown = "down";

/// Structural equality in everything but the display name: states,
/// initial state, signature, labels, and every transition row.
void expectSameModel(const IOIMC& x, const IOIMC& y) {
  ASSERT_EQ(x.numStates(), y.numStates());
  EXPECT_EQ(x.initial(), y.initial());
  EXPECT_EQ(x.signature(), y.signature());
  EXPECT_EQ(x.labelNames(), y.labelNames());
  for (ioimc::StateId s = 0; s < x.numStates(); ++s) {
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

/// Rate rows equal with rates compared by bit pattern.
bool sameRows(const ctmc::RateRows& x, const ctmc::RateRows& y) {
  if (x.offsets != y.offsets || x.targets != y.targets) return false;
  for (std::size_t k = 0; k < x.rates.size(); ++k)
    if (std::bit_cast<std::uint64_t>(x.rates[k]) !=
        std::bit_cast<std::uint64_t>(y.rates[k]))
      return false;
  return true;
}

void expectSameExtraction(const Extraction& x, const Extraction& y) {
  EXPECT_EQ(x.deterministic, y.deterministic);
  EXPECT_EQ(x.chain.initial, y.chain.initial);
  EXPECT_TRUE(sameRows(x.chain.rates, y.chain.rates)) << "chain rates differ";
  EXPECT_EQ(x.chain.labelMasks, y.chain.labelMasks);
  EXPECT_EQ(x.chain.labelNames, y.chain.labelNames);
  EXPECT_EQ(x.mdp.initial, y.mdp.initial);
  EXPECT_TRUE(sameRows(x.mdp.rates, y.mdp.rates)) << "mdp rates differ";
  EXPECT_EQ(x.mdp.choiceOffsets, y.mdp.choiceOffsets);
  EXPECT_EQ(x.mdp.choiceTargets, y.mdp.choiceTargets);
  EXPECT_EQ(x.mdp.goal, y.mdp.goal);
  EXPECT_EQ(x.mdp.vanishing, y.mdp.vanishing);
}

/// Reference: the engine's finalize pass (hide all outputs, collapse,
/// aggregate), which the engine now skips on a closed minimal result.
IOIMC oldFinalize(const IOIMC& m) {
  return ioimc::aggregate(
      ioimc::collapseUnobservableSinks(ioimc::hideAllOutputs(m)));
}

/// Reference: absorb the down states and re-aggregate before extracting,
/// which the Analyzer now skips when no down state has behaviour.
Extraction oldAbsorbedExtraction(const IOIMC& closed) {
  return analysis::extract(
      ioimc::aggregate(ioimc::makeLabelAbsorbing(closed, kDown)), kDown);
}

bool downStateHasBehaviour(const IOIMC& m) {
  const int down = m.labelIndex(kDown);
  for (ioimc::StateId s = 0; s < m.numStates(); ++s)
    if (m.hasLabel(s, down) &&
        (!m.interactive(s).empty() || !m.markovian(s).empty()))
      return true;
  return false;
}

/// Analyzes \p tree through the composition pipeline under the perfbench
/// fuzz budget (30,000 live states) and checks both skipped passes against
/// the old tail.  Returns false when the budget tripped.
bool checkAgainstOldTail(const dft::Dft& tree, const std::string& label) {
  AnalysisRequest request = AnalysisRequest::forDft(tree, label);
  request.options.engine.staticCombine = false;
  request.budget.maxLiveStates = 30000;
  AnalysisReport report;
  try {
    report = Analyzer().analyze(request);
  } catch (const BudgetExceeded&) {
    return false;
  }
  SCOPED_TRACE(label);
  const analysis::DftAnalysis& a = *report.analysis;
  expectSameModel(a.closedModel, oldFinalize(a.closedModel));
  expectSameExtraction(a.absorbed, oldAbsorbedExtraction(a.closedModel));
  return true;
}

/// Runs \p compose (one engine run on the calling thread) with tracing on;
/// returns its result and the number of "finalize" spans it emitted.
template <typename Compose>
std::pair<EngineResult, std::size_t> traceFinalize(Compose&& compose) {
  obs::clearTrace();
  obs::setTraceEnabled(true);
  EngineResult r = compose();
  obs::setTraceEnabled(false);
  std::size_t count = 0;
  for (const obs::TraceRecord& rec : obs::snapshotTrace().records)
    if (std::strcmp(rec.name, "finalize") == 0) ++count;
  obs::clearTrace();
  return {std::move(r), count};
}

std::pair<EngineResult, std::size_t> traceFinalize(const dft::Dft& tree,
                                                   EngineOptions opts) {
  opts.numThreads = 1;
  return traceFinalize([&] {
    return analysis::composeCommunity(analysis::convertDft(tree), tree, opts);
  });
}

TEST(ClosedTail, CorpusFamiliesMatchTheOldTail) {
  const std::vector<std::pair<std::string, dft::Dft>> trees = {
      {"cas", dft::corpus::cas()},
      {"cps", dft::corpus::cps()},
      {"hecs", dft::corpus::hecs()},
      {"cps_8x10", dft::corpus::cascadedPands(8, 10)},
      {"pand_4x3", dft::corpus::cascadedPand(4, 3)},
      {"sensors_4x2", dft::corpus::sensorBanks(4, 2)},
      {"voter_4x2", dft::corpus::voterFarm(4, 2)},
  };
  for (const auto& [name, tree] : trees)
    EXPECT_TRUE(checkAgainstOldTail(tree, name)) << name << " tripped";
}

/// Fuzz seeds 0..149 in blocks of 25, so a sanitizer build stays inside
/// the per-test timeout.
class ClosedTailFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ClosedTailFuzz, SeedsMatchTheOldTail) {
  std::size_t checked = 0;
  for (std::uint64_t seed = GetParam() * 25; seed < (GetParam() + 1) * 25u;
       ++seed)
    if (checkAgainstOldTail(dft::generateDft(seed),
                            "seed " + std::to_string(seed)))
      ++checked;
  // A few seeds trip the live-state cap; most must get through.
  EXPECT_GE(checked, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedTailFuzz, ::testing::Range(0, 6));

TEST(ClosedTail, EveryStrategySkipsFinalize) {
  const dft::Dft tree = dft::corpus::cps();
  for (CompositionStrategy strategy :
       {CompositionStrategy::Modular, CompositionStrategy::Declaration}) {
    EngineOptions opts;
    opts.strategy = strategy;
    auto [r, finalized] = traceFinalize(tree, opts);
    EXPECT_EQ(finalized, 0u) << "strategy " << static_cast<int>(strategy);
    EXPECT_TRUE(r.model.signature().outputs().empty());
    expectSameModel(r.model, oldFinalize(r.model));
  }
}

TEST(ClosedTail, UnaggregatedRunStillFinalizes) {
  EngineOptions raw;
  raw.aggregateEachStep = false;
  const dft::Dft tree = dft::corpus::cascadedPands(2, 3);
  auto [r, finalized] = traceFinalize(tree, raw);
  EXPECT_EQ(finalized, 1u);
  // Finalize aggregates to a fixpoint, so the result is still minimal.
  expectSameModel(r.model, oldFinalize(r.model));
}

TEST(ClosedTail, OneModelCommunityStillFinalizes) {
  const dft::Dft tree = dft::corpus::cas();
  analysis::Community full = analysis::convertDft(tree);
  analysis::Community single;
  single.symbols = full.symbols;
  single.models.push_back(full.models.front());
  const IOIMC raw = single.models.front().model;
  ASSERT_FALSE(raw.signature().outputs().empty());

  EngineOptions opts;
  opts.numThreads = 1;
  opts.strategy = CompositionStrategy::Declaration;  // no module tree to walk
  auto [r, finalized] = traceFinalize([&] {
    return analysis::composeCommunity(std::move(single), tree, opts);
  });
  EXPECT_EQ(finalized, 1u);
  EXPECT_TRUE(r.model.signature().outputs().empty());
  expectSameModel(r.model,
                  ioimc::aggregateFixpoint(ioimc::collapseUnobservableSinks(
                      ioimc::hideAllOutputs(raw))));
}

TEST(ClosedTail, RepairableDownStatesAreStillReaggregated) {
  // The repairable AND leaves its down state through repairs: absorbing it
  // cuts transitions, so the extraction must go through re-aggregation.
  AnalysisRequest request =
      AnalysisRequest::forDft(dft::corpus::repairableAnd(), "rep-and");
  AnalysisReport report = Analyzer().analyze(request);
  const analysis::DftAnalysis& a = *report.analysis;
  ASSERT_TRUE(downStateHasBehaviour(a.closedModel));
  expectSameExtraction(a.absorbed, oldAbsorbedExtraction(a.closedModel));
  // Straight extraction would keep the repair transitions out of "down".
  const Extraction direct = analysis::extract(a.closedModel, kDown);
  EXPECT_FALSE(sameRows(direct.chain.rates, a.absorbed.chain.rates));
}

TEST(ClosedTail, WholeTreeStoreHitMatchesTheComposedAnalysis) {
  const std::string dir = ::testing::TempDir() + "imcq_closed_tail";
  std::filesystem::remove_all(dir);
  for (const dft::Dft& tree : {dft::corpus::cps(), dft::corpus::repairableAnd()}) {
    auto makeRequest = [&] {
      AnalysisRequest r = AnalysisRequest::forDft(tree);
      r.options.engine.staticCombine = false;
      r.options.engine.storeDir = dir;
      return r;
    };
    AnalysisReport composed = Analyzer().analyze(makeRequest());
    ASSERT_GE(composed.cache.storeWrites, 1u);
    AnalysisReport loaded = Analyzer().analyze(makeRequest());
    ASSERT_EQ(loaded.cache.storeHits, 1u);
    // Two sessions intern actions in different tables, so compare the
    // extractions (action-free) rather than the models.
    expectSameExtraction(loaded.analysis->absorbed,
                         composed.analysis->absorbed);
    expectSameExtraction(
        loaded.analysis->absorbed,
        oldAbsorbedExtraction(loaded.analysis->closedModel));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace imcdft
