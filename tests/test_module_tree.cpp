#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/converter.hpp"
#include "analysis/engine.hpp"
#include "common/text.hpp"
#include "dft/corpus.hpp"
#include "dft/generate.hpp"
#include "obs/trace.hpp"

/// The module tree's aggregation (composeCommunity off DeclarationOrder):
/// the orders a cache or a stats reader can see, and which threads run the
/// module tasks.

namespace imcdft::analysis {
namespace {

/// A ModuleCache that keeps every stored module under its root's name and
/// records the root names of each lookup and store, in call order.
class RecordingCache : public ModuleCache {
 public:
  std::optional<CachedModule> lookup(const dft::Dft& dft,
                                     dft::ElementId root) override {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string& name = dft.element(root).name;
    lookups.push_back(name);
    auto it = modules_.find(name);
    if (it == modules_.end()) return std::nullopt;
    return it->second;
  }
  void store(const dft::Dft& dft, dft::ElementId root,
             const ioimc::IOIMC& model, std::size_t steps) override {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string& name = dft.element(root).name;
    stores.push_back(name);
    modules_.insert_or_assign(name, CachedModule{model, steps});
  }

  std::vector<std::string> lookups, stores;

 private:
  std::mutex mutex_;
  std::map<std::string, CachedModule> modules_;
};

/// What one run lets a cache and a stats reader see.
struct Orders {
  std::vector<std::string> lookups, stores, steps;
  std::vector<std::pair<std::string, std::size_t>> modules;
  std::size_t cachedModules = 0, stepsSaved = 0, symmetricModulesReused = 0,
              symmetrySavedSteps = 0;

  bool operator==(const Orders&) const = default;
};

/// Labels for the models that steps build: "#k" for the k-th step seen.
struct StepLabels {
  std::map<std::string, std::string> byName;  ///< built model name -> label
  std::size_t seen = 0;

  /// The name of a step, "L || R", with each operand that an earlier step
  /// built written as its label (a full name spells out every operand's
  /// name, nested).  A classic step names its result "(L||R)/weak".
  std::string shorten(const std::string& name) {
    const std::size_t bar = name.find(" || ");
    // A step whose aggregation took k quotient passes names its result
    // with k "/weak" suffixes; the extra ones stay on the label.
    auto operand = [&](std::string full) {
      std::string extra;
      for (;;) {
        auto it = byName.find(full);
        if (it != byName.end()) return it->second + extra;
        if (!full.ends_with("/weak")) return full + extra;
        full.resize(full.size() - 5);
        extra += "/weak";
      }
    };
    const std::string left = name.substr(0, bar), right = name.substr(bar + 4);
    const std::string shortName = operand(left) + " || " + operand(right);
    std::string built = "(";
    built.append(left).append("||").append(right).append(")/weak");
    byName.insert_or_assign(std::move(built), indexedName("#", seen++));
    return shortName;
  }
};

Orders runOnce(const dft::Dft& tree, const ConversionOptions& conversion,
               RecordingCache& cache, StepLabels& labels) {
  cache.lookups.clear();
  cache.stores.clear();
  EngineOptions opts;
  opts.numThreads = 1;
  const EngineResult r =
      composeCommunity(convertDft(tree, conversion), tree, opts, &cache);
  Orders o;
  o.lookups = cache.lookups;
  o.stores = cache.stores;
  for (const CompositionStep& s : r.stats.steps)
    o.steps.push_back(labels.shorten(s.name));
  for (const ModuleResult& m : r.stats.modules)
    o.modules.emplace_back(m.name, m.states);
  o.cachedModules = r.stats.cachedModules;
  o.stepsSaved = r.stats.stepsSaved;
  o.symmetricModulesReused = r.stats.symmetricModulesReused;
  o.symmetrySavedSteps = r.stats.symmetrySavedSteps;
  return o;
}

/// \p o as the initializer of a pinned Orders, for a failure message.
std::string literal(const Orders& o) {
  std::ostringstream out;
  auto names = [&](const std::vector<std::string>& v) {
    out << '{';
    for (std::size_t i = 0; i < v.size(); ++i)
      out << (i ? ", \"" : "\"") << v[i] << '"';
    out << "},\n ";
  };
  out << '{';
  names(o.lookups);
  names(o.stores);
  names(o.steps);
  out << '{';
  for (std::size_t i = 0; i < o.modules.size(); ++i)
    out << (i ? ", {\"" : "{\"") << o.modules[i].first << "\", "
        << o.modules[i].second << '}';
  out << "},\n " << o.cachedModules << ", " << o.stepsSaved << ", "
      << o.symmetricModulesReused << ", " << o.symmetrySavedSteps << '}';
  return out.str();
}

TEST(ModuleTree, OrdersArePinned) {
  // One thread, symmetry on (the default), a cache that stores every
  // offered module: the first run misses every lookup and stores, the
  // second splices what the first stored.  The cache's lookup and store
  // orders, the step names of stats.steps (operands built by earlier
  // steps abbreviated, see StepLabels) and the (name, states) records of
  // stats.modules are pinned as literals: the tree's numbering and walks
  // may change, these orders may not.  On a mismatch the measured values
  // are printed in the layout of the pins.
  struct Pinned {
    const char* name;
    dft::Dft tree;
    Orders cold, warm;
  };
  const Pinned pins[] = {
      {"cps",
       dft::corpus::cps(),
       {{"A", "B", "C", "D"},
       {"D", "C", "A", "B"},
       {"GATE_D || BE_D1", "BE_D2 || #0", "BE_D3 || #1", "BE_D4 || #2",
        "PAND_B || #3", "#3 || #4", "PAND_System || MONITOR", "#3 || #6",
        "#5 || #7"},
       {{"A", 6}, {"C", 6}, {"D", 6}, {"B", 22}, {"System", 39}},
       0, 0, 2, 8},
       {{"A", "B"},
       {},
       {"PAND_System || MONITOR", "#3 || #9", "#5 || #10"},
       {{"A", 6}, {"B", 22}, {"System", 39}},
       2, 10, 0, 0}},
      {"sensors_3x2",
       dft::corpus::sensorBanks(3, 2),
       {{"Bank_0", "Bank_1", "Bank_2", "A_2", "B_2", "A_1", "B_1", "A_0",
        "B_0"},
       {"B_2", "A_2", "Bank_2", "Bank_1", "Bank_0"},
       {"GATE_B_2 || BE_SB_2_0", "BE_SB_2_1 || #0", "PAND_Bank_2 || #1",
        "#1 || #2", "GATE_System || MONITOR", "#3 || #4", "#3 || #5",
        "#3 || #6"},
       {{"Bank_0", 8}, {"Bank_1", 8}, {"A_2", 4}, {"B_2", 4}, {"Bank_2", 8},
        {"System", 106}},
       0, 0, 3, 10},
       {{"Bank_0", "Bank_1", "Bank_2"},
       {},
       {"GATE_System || MONITOR", "#3 || #8", "#3 || #9", "#3 || #10"},
       {{"Bank_0", 8}, {"Bank_1", 8}, {"Bank_2", 8}, {"System", 106}},
       3, 12, 0, 0}},
      {"hecs",
       dft::corpus::hecs(),
       {{"Buses", "Application", "Processors", "Memory"},
       {"Buses", "Application", "Processors", "Memory"},
       {"GATE_Buses || BE_Bus1", "BE_Bus2 || #0", "GATE_Application || BE_HW",
        "BE_SW || #2", "AUX_AA_PA || BE_PA", "SPARE_Proc_1 || BE_P1",
        "SPARE_Proc_2 || BE_P2", "#4 || #5", "#6 || #7",
        "GATE_Processors || #8", "BE_M1 || AUX_FA_M1", "BE_M2 || AUX_FA_M2",
        "BE_M3 || AUX_FA_M3", "BE_M4 || AUX_FA_M4", "BE_M5 || AUX_FA_M5",
        "BE_MIU1 || #10", "BE_MIU2 || #13", "GATE_MIU_both || #12",
        "#11 || #15", "#14 || #16", "#17 || #18", "GATE_Memory || #19",
        "#20 || #21", "GATE_HECS || MONITOR", "#3 || #23", "#1 || #24",
        "#9 || #25",
        "#22/weak || #26"},
       {{"Buses", 4}, {"Application", 3}, {"Processors", 5}, {"Memory", 8},
        {"HECS", 38}},
       0, 0, 0, 0},
       {{"Buses", "Application", "Processors", "Memory"},
       {},
       {"GATE_HECS || MONITOR", "#3 || #28", "#1 || #29", "#9 || #30",
        "#22/weak || #31"},
       {{"Buses", 4}, {"Application", 3}, {"Processors", 5}, {"Memory", 8},
        {"HECS", 38}},
       4, 23, 0, 0}},
      {"gen26",
       dft::generateDft(26),
       {{"g4"},
       {"g4"},
       {"GATE_g4 || BE_e3", "BE_e4 || #0", "GATE_g1 || BE_e7",
        "GATE_g3 || BE_e2", "GATE_g5 || BE_e6", "GATE_g0 || MONITOR",
        "BE_e1 || #5", "BE_e0 || #3", "BE_e5 || #4", "GATE_g2 || #1",
        "#2 || #6", "#7 || #9", "#8 || #11", "#10 || #12"},
       {{"g4", 7}, {"g0", 1008}},
       0, 0, 0, 0},
       {{"g4"},
       {},
       {"GATE_g1 || BE_e7", "GATE_g3 || BE_e2", "GATE_g5 || BE_e6",
        "GATE_g0 || MONITOR", "BE_e1 || #17", "BE_e0 || #15", "BE_e5 || #16",
        "GATE_g2 || #1", "#14 || #18", "#19 || #21", "#20 || #23",
        "#22 || #24"},
       {{"g4", 7}, {"g0", 1008}},
       1, 2, 0, 0}},
  };
  for (const Pinned& pin : pins) {
    SCOPED_TRACE(pin.name);
    RecordingCache cache;
    ConversionOptions conversion;  // one table, so cached models compose
    conversion.symbols = makeSymbolTable();
    StepLabels labels;  // one numbering across both runs
    const Orders cold = runOnce(pin.tree, conversion, cache, labels);
    EXPECT_EQ(cold, pin.cold) << "cold:\n" << literal(cold);
    const Orders warm = runOnce(pin.tree, conversion, cache, labels);
    EXPECT_EQ(warm, pin.warm) << "warm:\n" << literal(warm);
  }
}

std::vector<std::uint64_t> measureBits(const AnalysisReport& report) {
  std::vector<std::uint64_t> bits;
  for (const MeasureResult& m : report.measures) {
    EXPECT_TRUE(m.ok) << m.error;
    for (double v : m.values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

AnalysisReport analyzeCps(unsigned numThreads) {
  AnalysisRequest request =
      AnalysisRequest::forDft(dft::corpus::cascadedPands(8, 10))
          .measure(MeasureSpec::unreliability({0.5, 1.0, 2.0}));
  request.options.engine.staticCombine = false;
  request.options.engine.numThreads = numThreads;
  return Analyzer().analyze(request);
}

TEST(ModuleTree, CallingThreadRunsModuleTasks) {
  // With two threads the module tasks run on the calling thread and one
  // helper: every `module` span lies on at most two threads, one of them
  // the thread of the request's `compose` span.
  obs::clearTrace();
  obs::setTraceEnabled(true);
  const AnalysisReport twoThreads = analyzeCps(2);
  obs::setTraceEnabled(false);
  const obs::TraceSnapshot snap = obs::snapshotTrace();
  obs::clearTrace();
  std::set<std::uint32_t> moduleTids;
  std::optional<std::uint32_t> composeTid;
  for (const obs::TraceRecord& rec : snap.records) {
    if (std::strcmp(rec.name, "module") == 0) moduleTids.insert(rec.tid);
    if (std::strcmp(rec.name, "compose") == 0) composeTid = rec.tid;
  }
  ASSERT_TRUE(composeTid.has_value());
  ASSERT_FALSE(moduleTids.empty());
  EXPECT_LE(moduleTids.size(), 2u);
  EXPECT_EQ(moduleTids.count(*composeTid), 1u);
  EXPECT_EQ(measureBits(twoThreads), measureBits(analyzeCps(1)));
}

}  // namespace
}  // namespace imcdft::analysis
