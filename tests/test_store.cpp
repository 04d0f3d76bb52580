#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "dft/builder.hpp"
#include "dft/corpus.hpp"
#include "dft/galileo.hpp"
#include "ioimc/serialize.hpp"
#include "store/format.hpp"
#include "store/quotient_store.hpp"

/// \file test_store.cpp
/// The persistent quotient store: byte-exact serialization round trips,
/// robustness against every malformed-record shape (all of which must
/// degrade to a cold-aggregation miss with a soft diagnostic — never a
/// wrong answer or a crash), concurrent writers, and the end-to-end
/// guarantee that a warm store serves bitwise-identical results.

namespace imcdft {
namespace {

namespace fs = std::filesystem;
using analysis::AnalysisOptions;
using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::AnalyzerOptions;
using analysis::MeasureSpec;
using analysis::Severity;
using store::QuotientStore;

/// A fresh, empty directory under the test temp root.
std::string freshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "imcq_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  EXPECT_TRUE(out.good()) << path;
}

/// CAS variant with the cross-switch failure rate perturbed (same helper
/// as test_analyzer.cpp): only the CPU unit changes.
std::string perturbedCas(double csLambda) {
  std::string text = dft::corpus::galileoCas();
  const std::string needle = "\"CS\" lambda=0.2;";
  auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(),
               "\"CS\" lambda=" + std::to_string(csLambda) + ";");
  return text;
}

std::string serializedBytes(const ioimc::IOIMC& model) {
  ioimc::ByteWriter w;
  ioimc::serializeModel(model, w);
  return w.take();
}

bool hasDiagnostic(const AnalysisReport& report, Severity severity,
                   const std::string& needle) {
  for (const analysis::Diagnostic& d : report.diagnostics)
    if (d.severity == severity &&
        d.message.find(needle) != std::string::npos)
      return true;
  return false;
}

/// Analyzes the cardiac assist system through the composition pipeline and
/// hands back the session (whose symbol table the model is interned in)
/// plus the aggregated whole-tree quotient.
struct ComposedCas {
  Analyzer session;
  std::shared_ptr<const analysis::DftAnalysis> analysis;

  ComposedCas() {
    AnalysisOptions opts;
    opts.engine.staticCombine = false;
    AnalysisReport report = session.analyze(
        AnalysisRequest::forDft(dft::corpus::cas(), "cas")
            .withOptions(opts)
            .measure(MeasureSpec::unreliability({1.0})));
    EXPECT_TRUE(report.allMeasuresOk());
    analysis = report.analysis;
  }
};

/// A small closed model (the aggregated quotient of a two-event AND) plus
/// the session whose symbol table it is interned in: the record that the
/// corruption, fault-injection and concurrency tests store and load.
struct SmallTree {
  Analyzer session;
  std::shared_ptr<const analysis::DftAnalysis> analysis;

  SmallTree() {
    dft::DftBuilder b;
    b.basicEvent("A", 1.0);
    b.basicEvent("B", 2.0);
    b.andGate("Top", {"A", "B"});
    b.top("Top");
    AnalysisOptions opts;
    opts.engine.staticCombine = false;
    AnalysisReport report = session.analyze(
        AnalysisRequest::forDft(b.build(), "and2")
            .withOptions(opts)
            .measure(MeasureSpec::unreliability({1.0})));
    EXPECT_TRUE(report.allMeasuresOk());
    analysis = report.analysis;
  }

  bool store(QuotientStore& store, const std::string& key,
             std::uint64_t steps = 0) const {
    return store.store(key, analysis->closedModel, steps);
  }
  /// Loads \p key and checks the model round-tripped byte for byte.
  std::optional<store::Record> load(QuotientStore& store,
                                    const std::string& key) const {
    std::optional<store::Record> loaded = store.load(key, session.symbols());
    if (loaded) {
      EXPECT_EQ(serializedBytes(loaded->model),
                serializedBytes(analysis->closedModel));
    }
    return loaded;
  }
};

TEST(Store, ModelSerializationRoundTripsByteExactly) {
  ComposedCas cas;
  const ioimc::IOIMC& model = cas.analysis->closedModel;
  const std::string bytes = serializedBytes(model);

  ioimc::ByteReader in(bytes.data(), bytes.size());
  std::optional<ioimc::IOIMC> back =
      ioimc::deserializeModel(in, cas.session.symbols());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(back->numStates(), model.numStates());
  EXPECT_EQ(back->numTransitions(), model.numTransitions());
  EXPECT_EQ(back->initial(), model.initial());
  // Byte-exact: re-serializing the deserialized model reproduces the
  // original record bit for bit.
  EXPECT_EQ(serializedBytes(*back), bytes);
}

TEST(Store, ModelSerializationIsSymbolTableIndependent) {
  ComposedCas cas;
  const std::string bytes = serializedBytes(cas.analysis->closedModel);

  // Deserializing into a *fresh* table (a different process of the fleet)
  // re-interns every action by name; the structure — and hence the
  // re-serialized bytes — must not depend on the table's id assignment.
  ioimc::SymbolTablePtr fresh = ioimc::makeSymbolTable();
  ioimc::ByteReader in(bytes.data(), bytes.size());
  std::optional<ioimc::IOIMC> back = ioimc::deserializeModel(in, fresh);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(serializedBytes(*back), bytes);
}

/// The header of a record of \p kind around \p body, as the store frames
/// it (store/format.hpp).
std::string framedRecord(std::uint32_t kind, const std::string& body) {
  ioimc::ByteWriter header;
  header.raw(store::kMagic, sizeof store::kMagic);
  header.u32(store::kFormatVersion);
  header.u32(kind);
  header.u64(body.size());
  header.u64(store::fnv1aBytes(body.data(), body.size()));
  return header.take() + body;
}

TEST(Store, ModuleRecordRoundTrip) {
  ComposedCas cas;
  const std::string dir = freshDir("module_roundtrip");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);

  const std::string key = "module-key-1";
  EXPECT_TRUE(store->store(key, cas.analysis->closedModel, 7));
  // Content-addressed: a record that exists is never rewritten.
  EXPECT_FALSE(store->store(key, cas.analysis->closedModel, 7));
  std::optional<store::Record> loaded =
      store->load(key, cas.session.symbols());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->steps, 7u);
  EXPECT_EQ(serializedBytes(loaded->model),
            serializedBytes(cas.analysis->closedModel));

  // A record whose name list is not empty (older stores wrote one for
  // shape-keyed entries) still loads: the list is skipped.
  ioimc::ByteWriter payload;
  payload.str("module-key-2");
  payload.u64(5);
  payload.u32(3);
  for (const char* name : {"MA", "MB", "MS"}) payload.str(name);
  ioimc::serializeModel(cas.analysis->closedModel, payload);
  writeAll(store->entryPath("module-key-2"),
           framedRecord(store::kQuotientKind, payload.take()));
  loaded = store->load("module-key-2", cas.session.symbols());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->steps, 5u);
  EXPECT_EQ(serializedBytes(loaded->model),
            serializedBytes(cas.analysis->closedModel));
  EXPECT_EQ(store->loadErrors(), 0u);
  EXPECT_TRUE(store->drainWarnings().empty());
}

TEST(Store, TreeRecordRoundTrip) {
  ComposedCas cas;
  const std::string dir = freshDir("tree_roundtrip");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);

  // A whole-tree quotient is the module record under its tree key: the
  // model and the compose steps that built it survive the round trip.
  const std::string key = "tree-key;nc=0";
  EXPECT_TRUE(store->store(key, cas.analysis->closedModel, 9));
  EXPECT_FALSE(store->store(key, cas.analysis->closedModel, 9));
  std::optional<store::Record> loaded =
      store->load(key, cas.session.symbols());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->key, key);
  EXPECT_EQ(loaded->steps, 9u);
  EXPECT_EQ(serializedBytes(loaded->model),
            serializedBytes(cas.analysis->closedModel));

  // The file carries the one record kind; no repairable flag is written.
  const std::string data = readAll(store->entryPath(key));
  ASSERT_GE(data.size(), store::kHeaderSize);
  ioimc::ByteReader header(data.data() + 12, 4);  // kind field (format.hpp)
  EXPECT_EQ(header.u32(), store::kQuotientKind);

  // A record of the retired whole-tree kind (3: repairable byte, no step
  // count) at that path is refused as a load error, not misread.
  ioimc::ByteWriter payload;
  payload.str(key);
  payload.u8(1);
  ioimc::serializeModel(cas.analysis->closedModel, payload);
  writeAll(store->entryPath(key), framedRecord(3, payload.take()));
  EXPECT_FALSE(store->load(key, cas.session.symbols()).has_value());
  EXPECT_EQ(store->loadErrors(), 1u);
  const std::vector<std::string> warnings = store->drainWarnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("record kind mismatch"), std::string::npos);
}

TEST(Store, MissingRecordIsASilentMiss) {
  const std::string dir = freshDir("missing");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  EXPECT_FALSE(
      store->load("never-stored", ioimc::makeSymbolTable()).has_value());
  EXPECT_EQ(store->loadErrors(), 0u);
  EXPECT_TRUE(store->drainWarnings().empty());
}

/// Applies \p mutate to the stored record's file and expects the
/// next load to be an error-miss whose warning mentions \p expectWarning
/// (or a silent miss when \p expectWarning is empty).
void corruptionCase(const std::string& dirName,
                    void (*mutate)(std::string&),
                    const std::string& expectWarning) {
  SmallTree tree;
  const std::string dir = freshDir(dirName);
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  ASSERT_TRUE(tree.store(*store, "the-key"));
  const std::string path = store->entryPath("the-key");

  std::string data = readAll(path);
  mutate(data);
  writeAll(path, data);

  EXPECT_FALSE(tree.load(*store, "the-key").has_value());
  if (expectWarning.empty()) {
    EXPECT_EQ(store->loadErrors(), 0u);
    EXPECT_TRUE(store->drainWarnings().empty());
  } else {
    EXPECT_EQ(store->loadErrors(), 1u);
    std::vector<std::string> warnings = store->drainWarnings();
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find(expectWarning), std::string::npos)
        << warnings[0];
  }
}

TEST(StoreRobustness, TruncatedBelowHeaderIsAnErrorMiss) {
  corruptionCase(
      "truncated_header", +[](std::string& d) { d.resize(20); },
      "truncated record");
}

TEST(StoreRobustness, TruncatedPayloadIsAnErrorMiss) {
  corruptionCase(
      "truncated_payload", +[](std::string& d) { d.resize(d.size() - 5); },
      "truncated record");
}

TEST(StoreRobustness, MagicMismatchIsAnErrorMiss) {
  corruptionCase(
      "bad_magic", +[](std::string& d) { d[0] ^= '\xff'; },
      "magic mismatch");
}

TEST(StoreRobustness, FormatVersionMismatchIsAnErrorMiss) {
  // The version field is the u32 right after the 8-byte magic; bumping it
  // leaves the payload checksum valid, so the version check must fire
  // first.
  corruptionCase(
      "bad_version", +[](std::string& d) { d[8] = '\x7f'; },
      "version mismatch");
}

TEST(StoreRobustness, ChecksumMismatchIsAnErrorMiss) {
  corruptionCase(
      "bad_checksum", +[](std::string& d) { d.back() ^= '\xff'; },
      "checksum mismatch");
}

TEST(StoreRobustness, EmptyFileIsAnErrorMiss) {
  corruptionCase(
      "empty_file", +[](std::string& d) { d.clear(); }, "empty record");
}

TEST(StoreRobustness, RecordKindMismatchIsAnErrorMiss) {
  SmallTree tree;
  const std::string dir = freshDir("wrong_kind");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  // A well-formed record whose header names the retired whole-tree kind
  // (3) must be rejected.  The checksum covers only the payload, so the
  // kind field is patched in place.
  std::string record =
      store::encodeRecord("k", tree.analysis->closedModel, 0);
  record[12] = '\x03';
  writeAll(store->entryPath("k"), record);
  EXPECT_FALSE(store->load("k", tree.session.symbols()).has_value());
  EXPECT_EQ(store->loadErrors(), 1u);
  std::vector<std::string> warnings = store->drainWarnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("kind mismatch"), std::string::npos);
}

TEST(StoreRobustness, KeyCollisionIsASilentMiss) {
  SmallTree tree;
  const std::string dir = freshDir("collision");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  // Simulate two keys hashing to one file: a record whose embedded key is
  // not the probed key is a plain miss (recompute), never an error — and
  // never the other key's data.
  writeAll(store->entryPath("wanted"),
           store::encodeRecord("other", tree.analysis->closedModel, 0));
  EXPECT_FALSE(tree.load(*store, "wanted").has_value());
  EXPECT_EQ(store->loadErrors(), 0u);
  EXPECT_TRUE(store->drainWarnings().empty());
}

TEST(StoreRobustness, GarbagePayloadNeverCrashes) {
  const std::string dir = freshDir("garbage");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  ioimc::SymbolTablePtr symbols = ioimc::makeSymbolTable();
  // Valid header framing around adversarial payload bytes: the decoder's
  // bounds-checked reader must reject, not crash or over-allocate.
  for (const std::string& payload :
       {std::string(1, '\0'), std::string(200, '\xff'),
        std::string("\x06\x00\x00\x00module-key-1\xff\xff\xff\xff", 20)}) {
    writeAll(store->entryPath("k"),
             framedRecord(store::kQuotientKind, payload));
    EXPECT_FALSE(store->load("k", symbols).has_value());
    fs::remove(store->entryPath("k"));
  }
  store->drainWarnings();
}

TEST(StoreRobustness, ConcurrentWritersPublishOnlyCompleteRecords) {
  SmallTree tree;
  const std::string dir = freshDir("concurrent_writers");
  // Two handles on one directory, as two fleet processes would hold.
  std::shared_ptr<QuotientStore> a = QuotientStore::open(dir);
  std::shared_ptr<QuotientStore> b = QuotientStore::open(dir);

  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&, i] {
      QuotientStore& mine = (i % 2 == 0) ? *a : *b;
      // Everyone races to publish the same key (identical bytes — records
      // are pure functions of their key) plus one private key each, whose
      // step count tells the records apart.
      tree.store(mine, "shared-key");
      tree.store(mine, "own-" + std::to_string(i), i);
    });
  for (std::thread& t : pool) t.join();

  std::optional<store::Record> got = tree.load(*a, "shared-key");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->steps, 0u);
  for (int i = 0; i < kThreads; ++i) {
    std::optional<store::Record> own =
        tree.load(*b, "own-" + std::to_string(i));
    ASSERT_TRUE(own.has_value()) << i;
    EXPECT_EQ(own->steps, static_cast<std::uint64_t>(i)) << i;
  }
  EXPECT_EQ(a->loadErrors() + b->loadErrors(), 0u);
  // No leftover temporaries: every .tmp either renamed or unlinked.
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    EXPECT_EQ(e.path().extension(), ".imcq") << e.path();
}

// ---------------------------------------------------------------------------
// End-to-end: the Analyzer over a store directory.
// ---------------------------------------------------------------------------

/// Runs the corpus sweep (CAS variants, HECS, a voter farm) on a fresh
/// session over \p storeDir ("" = no store) and returns every measured
/// value in order, plus the session's cache counters via \p statsOut.
std::vector<double> runSweep(const std::string& storeDir, bool staticCombine,
                             analysis::CacheStats* statsOut = nullptr) {
  Analyzer session({.storeDir = storeDir});
  const std::vector<double> grid{0.5, 1.0, 2.0};
  std::vector<AnalysisRequest> requests;
  for (double l : {0.2, 0.35, 0.5})
    requests.push_back(AnalysisRequest::forGalileo(
        perturbedCas(l), "cas-" + std::to_string(l)));
  requests.push_back(
      AnalysisRequest::forGalileo(dft::corpus::galileoHecs(), "hecs"));
  requests.push_back(
      AnalysisRequest::forDft(dft::corpus::voterFarm(3, 2), "farm"));
  std::vector<double> values;
  for (AnalysisRequest& request : requests) {
    request.options.engine.staticCombine = staticCombine;
    request.measure(MeasureSpec::unreliability(grid));
    AnalysisReport report = session.analyze(request);
    EXPECT_TRUE(report.allMeasuresOk()) << request.label;
    for (const analysis::MeasureResult& m : report.measures)
      values.insert(values.end(), m.values.begin(), m.values.end());
  }
  if (statsOut) *statsOut = session.cacheStats();
  return values;
}

TEST(Store, WarmStoreIsBitwiseIdenticalToColdComposition) {
  const std::string dir = freshDir("warm_composition");
  const std::vector<double> noStore = runSweep("", /*staticCombine=*/false);
  analysis::CacheStats cold, warm;
  const std::vector<double> coldStore = runSweep(dir, false, &cold);
  const std::vector<double> warmStore = runSweep(dir, false, &warm);

  EXPECT_GT(cold.storeWrites, 0u);
  EXPECT_GT(warm.storeHits, 0u);
  EXPECT_EQ(warm.storeWrites, 0u);  // steady state: no write I/O
  ASSERT_EQ(coldStore.size(), noStore.size());
  ASSERT_EQ(warmStore.size(), noStore.size());
  for (std::size_t i = 0; i < noStore.size(); ++i) {
    EXPECT_EQ(coldStore[i], noStore[i]) << i;  // exact, not approximate
    EXPECT_EQ(warmStore[i], noStore[i]) << i;
  }
}

TEST(Store, WarmStoreIsBitwiseIdenticalToColdNumericPath) {
  const std::string dir = freshDir("warm_numeric");
  const std::vector<double> noStore = runSweep("", /*staticCombine=*/true);
  analysis::CacheStats cold, warm;
  const std::vector<double> coldStore = runSweep(dir, true, &cold);
  const std::vector<double> warmStore = runSweep(dir, true, &warm);

  EXPECT_GT(cold.storeWrites, 0u);
  EXPECT_GT(warm.storeHits, 0u);
  EXPECT_EQ(warm.stepsRun, 0u);     // every frontier module from the store
  EXPECT_EQ(warm.storeWrites, 0u);  // steady state: no write I/O
  ASSERT_EQ(coldStore.size(), noStore.size());
  ASSERT_EQ(warmStore.size(), noStore.size());
  for (std::size_t i = 0; i < noStore.size(); ++i) {
    EXPECT_EQ(coldStore[i], noStore[i]) << i;
    EXPECT_EQ(warmStore[i], noStore[i]) << i;
  }
}

TEST(Store, WarmTreeRecordsKeepTheirStepCount) {
  // Tree records carry the compose steps that built them, so an analysis
  // served from the store reports what the cold run did: the numeric
  // path's symmetric HECS sibling saves the representative's steps, and a
  // whole-tree record keeps its count.
  const std::string dir = freshDir("warm_steps");
  auto run = [&](bool staticCombine) {
    Analyzer session({.storeDir = dir});
    AnalysisRequest request =
        AnalysisRequest::forGalileo(dft::corpus::galileoHecs(), "hecs")
            .measure(MeasureSpec::unreliability({1.0}));
    request.options.engine.staticCombine = staticCombine;
    return session.analyze(request);
  };
  for (bool staticCombine : {true, false}) {
    SCOPED_TRACE(staticCombine ? "numeric" : "composition");
    const AnalysisReport cold = run(staticCombine);
    const AnalysisReport warm = run(staticCombine);
    EXPECT_EQ(cold.cache.storeHits, 0u);
    EXPECT_GT(warm.cache.storeHits, 0u);
    EXPECT_EQ(warm.cache.stepsRun, 0u);
    if (staticCombine) {
      EXPECT_GT(cold.analysis->stats.symmetrySavedSteps, 0u);
      EXPECT_EQ(warm.analysis->stats.symmetrySavedSteps,
                cold.analysis->stats.symmetrySavedSteps);
    } else {
      EXPECT_GT(cold.analysis->composeSteps, 0u);
      EXPECT_EQ(warm.analysis->composeSteps, cold.analysis->composeSteps);
    }
    EXPECT_EQ(warm.measures[0].values, cold.measures[0].values);
  }
}

TEST(Store, WarmNumericPathCountsStoreServedModulesAsHits) {
  // On the numeric path every frontier module is its own tree.  A warm
  // session served from whole-tree store records composes nothing, and
  // accounts each store-served module as a module-cache hit that saves the
  // steps that built it, as the composition path does.
  const std::string dir = freshDir("numeric_module_hits");
  auto run = [&] {
    Analyzer session({.storeDir = dir});
    AnalysisRequest request =
        AnalysisRequest::forGalileo(dft::corpus::galileoHecs(), "hecs")
            .measure(MeasureSpec::unreliability({1.0}));
    return session.analyze(request);
  };
  const AnalysisReport cold = run();
  const AnalysisReport warm = run();
  ASSERT_TRUE(cold.analysis->staticCombo != nullptr);
  ASSERT_TRUE(warm.analysis->staticCombo != nullptr);
  EXPECT_GT(cold.cache.stepsRun, 0u);
  EXPECT_GT(cold.cache.moduleMisses, 0u);
  EXPECT_GT(warm.cache.storeHits, 0u);
  EXPECT_EQ(warm.cache.stepsRun, 0u);
  EXPECT_EQ(warm.cache.moduleMisses, 0u);
  EXPECT_EQ(warm.cache.moduleHits, cold.cache.moduleMisses);
  EXPECT_EQ(warm.cache.stepsSaved, cold.cache.stepsRun);
  EXPECT_EQ(warm.measures[0].values, cold.measures[0].values);
}

TEST(Store, CorruptedStoreFallsBackToColdAggregationEverywhere) {
  const std::string dir = freshDir("corrupt_all");
  const std::vector<double> reference = runSweep("", false);
  runSweep(dir, false);  // warm it
  // Flip the last payload byte of every record: every checksum breaks.
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    std::string data = readAll(e.path().string());
    data.back() ^= '\xff';
    writeAll(e.path().string(), data);
  }
  analysis::CacheStats stats;
  const std::vector<double> recovered = runSweep(dir, false, &stats);
  EXPECT_GT(stats.storeErrors, 0u);
  EXPECT_EQ(stats.storeHits, 0u);
  ASSERT_EQ(recovered.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(recovered[i], reference[i]) << i;
}

TEST(Store, AnalyzerSurfacesCorruptionAsWarningDiagnostic) {
  const std::string dir = freshDir("corrupt_diag");
  AnalysisOptions opts;
  opts.engine.staticCombine = false;
  auto request = [&] {
    return AnalysisRequest::forDft(dft::corpus::cas(), "cas")
        .withOptions(opts)
        .measure(MeasureSpec::unreliability({1.0}));
  };
  double reference;
  {
    Analyzer session({.storeDir = dir});
    reference = session.analyze(request()).measures[0].values.at(0);
  }
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    std::string data = readAll(e.path().string());
    data.back() ^= '\xff';
    writeAll(e.path().string(), data);
  }
  Analyzer session({.storeDir = dir});
  AnalysisReport report = session.analyze(request());
  EXPECT_TRUE(report.allMeasuresOk());
  EXPECT_EQ(report.measures[0].values.at(0), reference);
  EXPECT_GT(report.cache.storeErrors, 0u);
  EXPECT_TRUE(hasDiagnostic(report, Severity::Warning, "quotient store"));
}

TEST(Store, UnusableStoreDirectoryDegradesSoftly) {
  // A regular file where the store directory should be: open() fails, the
  // request warns once and proceeds without persistence.
  const std::string blocker = freshDir("not_a_dir");
  writeAll(blocker, "i am a file");
  Analyzer session({.storeDir = blocker});
  AnalysisReport report = session.analyze(
      AnalysisRequest::forDft(dft::corpus::cas(), "cas")
          .measure(MeasureSpec::unreliability({1.0})));
  EXPECT_TRUE(report.allMeasuresOk());
  EXPECT_TRUE(
      hasDiagnostic(report, Severity::Warning, "quotient store disabled"));
  EXPECT_NEAR(report.measures[0].values.at(0), 0.6579, 1e-3);
}

TEST(Store, ProductionRecordNamesArePinned) {
  // A record's file name hashes its key, and every key ends in the
  // session's optionsKey: records already on disk stay reachable only
  // while the Production key is byte-identical.  These are the names a
  // default-options `corpus:cas` request wrote when they were captured; a
  // change to optionsKey, the canonical tree key or the module key shows
  // up here as a rename.
  const std::string dir = freshDir("pinned_names");
  Analyzer session({.storeDir = dir});
  AnalysisRequest request =
      AnalysisRequest::forGalileo(dft::corpus::galileoCas(), "cas")
          .measure(MeasureSpec::unreliability({1.0}));
  ASSERT_TRUE(session.analyze(request).allMeasuresOk());
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  const std::vector<std::string> pinned{
      "q014920b302635477.imcq", "q7d65878ac35e5db2.imcq",
      "qed8152d7787d191b.imcq", "qf6531860e9bbeb5a.imcq"};
  EXPECT_EQ(names, pinned);
}

TEST(Store, UnusableStoreDirectoryWarnsOnlyOnTheFirstRequest) {
  // The session opens its store once, at construction; a directory that
  // cannot be opened is one Warning on the first request, not one per
  // request.
  const std::string blocker = freshDir("not_a_dir_twice");
  writeAll(blocker, "i am a file");
  Analyzer session({.storeDir = blocker});
  auto request = [] {
    return AnalysisRequest::forDft(dft::corpus::cas(), "cas")
        .measure(MeasureSpec::unreliability({1.0}));
  };
  const AnalysisReport first = session.analyze(request());
  const AnalysisReport second = session.analyze(request());
  EXPECT_TRUE(
      hasDiagnostic(first, Severity::Warning, "quotient store disabled"));
  EXPECT_FALSE(hasDiagnostic(second, Severity::Warning, "quotient store"));
  EXPECT_TRUE(second.allMeasuresOk());
}

TEST(Store, OldTreeFilesAreNeverProbed) {
  // Older stores kept whole-tree quotients in a second record kind (3), at
  // a 't' path, with a flags byte (bit 0 repairable, bit 1 a step count
  // follows) after the key.  A directory holding only such a record serves
  // the tree cold and silently, publishes the one-kind record, and a later
  // session hits that.
  AnalysisOptions opts;
  opts.engine.staticCombine = false;
  auto request = [&] {
    return AnalysisRequest::forDft(dft::corpus::cas(), "cas")
        .withOptions(opts)
        .measure(MeasureSpec::unreliability({1.0}));
  };

  // The whole-tree record a store session writes (the one whose key ends
  // in ";nc=0"), taken apart into its key, step count and model bytes.
  const std::string source = freshDir("old_tree_source");
  double reference;
  {
    Analyzer session({.storeDir = source});
    reference = session.analyze(request()).measures[0].values.at(0);
  }
  std::string treeFile, key, modelBytes;
  std::uint64_t steps = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(source)) {
    const std::string data = readAll(e.path().string());
    ioimc::ByteReader in(data.data() + store::kHeaderSize,
                         data.size() - store::kHeaderSize);
    std::string recordKey = in.str();
    if (!recordKey.ends_with(";nc=0")) continue;
    treeFile = e.path().filename().string();
    key = std::move(recordKey);
    steps = in.u64();
    ASSERT_EQ(in.u32(), 0u);  // the empty name list
    modelBytes = data.substr(data.size() - in.remaining());
  }
  ASSERT_FALSE(treeFile.empty());
  ASSERT_GT(steps, 0u);

  // The same quotient in the old layout, alone at the old path.
  const std::string dir = freshDir("old_tree");
  fs::create_directories(dir);
  ioimc::ByteWriter payload;
  payload.str(key);
  payload.u8(2);  // not repairable; a step count follows
  payload.u64(steps);
  payload.raw(modelBytes.data(), modelBytes.size());
  writeAll(dir + "/t" + treeFile.substr(1), framedRecord(3, payload.take()));

  AnalysisReport cold = Analyzer({.storeDir = dir}).analyze(request());
  EXPECT_EQ(cold.cache.storeHits, 0u);
  EXPECT_EQ(cold.cache.storeErrors, 0u);
  EXPECT_GT(cold.cache.stepsRun, 0u);
  EXPECT_FALSE(hasDiagnostic(cold, Severity::Warning, "quotient store"));
  EXPECT_EQ(cold.measures[0].values.at(0), reference);
  EXPECT_TRUE(fs::exists(dir + "/" + treeFile));

  AnalysisReport warm = Analyzer({.storeDir = dir}).analyze(request());
  EXPECT_EQ(warm.cache.storeHits, 1u);
  EXPECT_EQ(warm.cache.stepsRun, 0u);
  EXPECT_EQ(warm.analysis->composeSteps, steps);
  EXPECT_EQ(warm.measures[0].values.at(0), reference);
}


// ---------------------------------------------------------------------------
// Deterministic I/O fault injection (QuotientStore::injectFault): every
// injected failure must behave exactly like the real thing — a soft miss
// plus a queued warning, a clean directory, and a correct retry.
// ---------------------------------------------------------------------------

/// True iff any queued warning contains \p needle (drains the queue).
bool drainedWarningContains(QuotientStore& store, const std::string& needle) {
  bool found = false;
  for (const std::string& w : store.drainWarnings())
    if (w.find(needle) != std::string::npos) found = true;
  return found;
}

TEST(StoreFaultInjection, ShortWriteIsSoftAndLeavesNoDebris) {
  SmallTree tree;
  const std::string dir = freshDir("fault_short_write");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  store->injectFault({QuotientStore::IoFault::Kind::ShortWrite, 0});
  EXPECT_FALSE(tree.store(*store, "k"));
  EXPECT_TRUE(drainedWarningContains(*store, "short write"));
  // Nothing published, no leftover temp file.
  EXPECT_FALSE(tree.load(*store, "k").has_value());
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    ADD_FAILURE() << "unexpected file " << e.path();
  // The fault was one-shot: the retry publishes and round-trips.
  EXPECT_TRUE(tree.store(*store, "k"));
  EXPECT_TRUE(tree.load(*store, "k").has_value());
  EXPECT_EQ(store->loadErrors(), 0u);
}

TEST(StoreFaultInjection, WriteFailureReportsEnospcAndRetries) {
  SmallTree tree;
  const std::string dir = freshDir("fault_write_fails");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  store->injectFault({QuotientStore::IoFault::Kind::WriteFails, 0});
  EXPECT_FALSE(tree.store(*store, "k"));
  EXPECT_TRUE(drainedWarningContains(*store, "cannot write"));
  EXPECT_TRUE(tree.store(*store, "k"));
  EXPECT_TRUE(tree.load(*store, "k").has_value());
}

TEST(StoreFaultInjection, SyncFailurePoisonsThePublish) {
  // An fsync error means the kernel may have dropped the dirty pages;
  // publishing anyway could expose a torn record after a crash.  The
  // attempt must be abandoned like a short write.
  SmallTree tree;
  const std::string dir = freshDir("fault_sync_fails");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  store->injectFault({QuotientStore::IoFault::Kind::SyncFails, 0});
  EXPECT_FALSE(tree.store(*store, "k"));
  EXPECT_TRUE(drainedWarningContains(*store, "cannot sync"));
  EXPECT_FALSE(tree.load(*store, "k").has_value());
  EXPECT_TRUE(tree.store(*store, "k"));
}

TEST(StoreFaultInjection, ShortReadDegradesToAMiss) {
  SmallTree tree;
  const std::string dir = freshDir("fault_short_read");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  ASSERT_TRUE(tree.store(*store, "k"));
  store->injectFault({QuotientStore::IoFault::Kind::ShortRead, 0});
  EXPECT_FALSE(tree.load(*store, "k").has_value());
  EXPECT_EQ(store->loadErrors(), 1u);
  EXPECT_TRUE(drainedWarningContains(*store, "recomputing"));
  // One-shot: the record itself is intact.
  EXPECT_TRUE(tree.load(*store, "k").has_value());
}

TEST(StoreFaultInjection, CorruptReadIsCaughtByTheChecksum) {
  SmallTree tree;
  const std::string dir = freshDir("fault_corrupt_read");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  ASSERT_TRUE(tree.store(*store, "k"));
  store->injectFault({QuotientStore::IoFault::Kind::CorruptRead, 0});
  EXPECT_FALSE(tree.load(*store, "k").has_value());
  EXPECT_EQ(store->loadErrors(), 1u);
  EXPECT_TRUE(drainedWarningContains(*store, "recomputing"));
  EXPECT_TRUE(tree.load(*store, "k").has_value());
}

TEST(StoreFaultInjection, AfterOpsCountsMatchingOperationsOnly) {
  SmallTree tree;
  const std::string dir = freshDir("fault_after_ops");
  std::shared_ptr<QuotientStore> store = QuotientStore::open(dir);
  ASSERT_TRUE(tree.store(*store, "a"));
  ASSERT_TRUE(tree.store(*store, "b"));
  // Fires on the second *read*; the interleaved write is not counted.
  store->injectFault({QuotientStore::IoFault::Kind::CorruptRead, 1});
  EXPECT_TRUE(tree.load(*store, "a").has_value());
  ASSERT_TRUE(tree.store(*store, "c"));
  EXPECT_FALSE(tree.load(*store, "b").has_value());
  store->clearFaults();
  store->drainWarnings();
}

TEST(StoreFaultInjection, AnalyzerServesThroughInjectedFaults) {
  // End to end: a session whose store misbehaves still answers, with the
  // same numbers a store-less session produces, and surfaces the faults
  // as Warning diagnostics.
  const std::string dir = freshDir("fault_end_to_end");
  auto request = [&] {
    return AnalysisRequest::forDft(dft::corpus::cas(), "cas")
        .measure(MeasureSpec::unreliability({1.0}));
  };
  double reference;
  {
    Analyzer session({.storeDir = dir});
    reference = session.analyze(request()).measures[0].values.at(0);
  }
  // Injected faults are per-handle, and the Analyzer opens its own, so
  // the corruption is planted at the file level instead: flip one byte
  // of every record.
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    std::string data = readAll(e.path().string());
    data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
    writeAll(e.path().string(), data);
  }
  Analyzer session({.storeDir = dir});
  AnalysisReport report = session.analyze(request());
  EXPECT_TRUE(report.allMeasuresOk());
  EXPECT_EQ(report.measures[0].values.at(0), reference);
  EXPECT_GT(report.cache.storeErrors, 0u);
  EXPECT_TRUE(hasDiagnostic(report, Severity::Warning, "quotient store"));
}


}  // namespace
}  // namespace imcdft
