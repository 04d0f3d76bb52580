#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/cancel.hpp"
#include "dft/corpus.hpp"
#include "dft/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

/// \file test_obs.cpp
/// The observability layer's contract: metrics registry semantics
/// (ObsMetrics) and trace well-formedness under real concurrency
/// (ConcurrentTraceObs — the suite name puts it in the TSan CI filter).
/// The well-formedness invariants are the ones scripts/check_trace.py
/// enforces on exported files: balanced begin/end per thread, monotonic
/// per-thread timestamps, laminar (properly nested) span families — plus
/// the bitwise on-vs-off measure identity the dead-branch design promises.

namespace imcdft {
namespace {

using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::MeasureSpec;
using analysis::Reference;

/// Every trace test leaves the process with tracing off and the rings
/// drained, so suites can run in any order.
struct TraceGuard {
  TraceGuard() {
    obs::clearTrace();
    obs::setTraceEnabled(true);
  }
  ~TraceGuard() {
    obs::setTraceEnabled(false);
    obs::clearTrace();
  }
};

std::vector<double> unreliabilityValues(const AnalysisReport& report) {
  std::vector<double> out;
  for (const analysis::MeasureResult& m : report.measures) {
    EXPECT_TRUE(m.ok) << m.error;
    out.insert(out.end(), m.values.begin(), m.values.end());
  }
  return out;
}

TEST(ObsMetrics, CounterAndGaugeBasics) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& c = reg.counter("test.obs.counter");
  const std::uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before + 42);
  // Same name, same object: hot paths may cache the reference.
  EXPECT_EQ(&c, &reg.counter("test.obs.counter"));

  obs::Gauge& g = reg.gauge("test.obs.gauge");
  g.set(7);
  EXPECT_EQ(g.value(), 7u);
  g.atLeast(3);  // lower than current: no change
  EXPECT_EQ(g.value(), 7u);
  g.atLeast(19);
  EXPECT_EQ(g.value(), 19u);
}

TEST(ObsMetrics, HistogramExactBelowSixteen) {
  obs::Histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.minValue(), 0u);
  EXPECT_EQ(h.maxValue(), 15u);
  // Small values land in exact unit buckets, so quantiles are exact.
  EXPECT_EQ(h.quantile(0.5), 7.0);
  EXPECT_EQ(h.quantile(1.0), 15.0);
}

TEST(ObsMetrics, HistogramQuantilesWithinBucketError) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 100'000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100'000u);
  // Log-linear buckets with 16 sub-buckets per octave: any quantile is
  // within one sub-bucket width, i.e. ~1/16 relative error.
  EXPECT_NEAR(h.quantile(0.5), 50'000.0, 50'000.0 / 8.0);
  EXPECT_NEAR(h.quantile(0.95), 95'000.0, 95'000.0 / 8.0);
  // Quantiles never leave the observed range.
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 100'000.0);
  EXPECT_NEAR(h.mean(), 50'000.5, 1.0);
}

/// True when a value of the JSON text \p json spells a non-finite number
/// ("nan", "inf" in any case).  Quoted strings are skipped: metric names
/// such as "analyzer.inflight_joins" may contain those letters.
bool hasNonFiniteValue(const std::string& json) {
  std::string values;
  bool inString = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (inString) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        inString = false;
    } else if (c == '"') {
      inString = true;
    } else {
      values += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return values.find("nan") != std::string::npos ||
         values.find("inf") != std::string::npos;
}

TEST(ObsMetrics, NonFiniteCheckReadsValuesNotNames) {
  EXPECT_FALSE(hasNonFiniteValue(
      R"({"counters": {"analyzer.inflight_joins": 3, "x.nan_seen": 0}})"));
  EXPECT_FALSE(hasNonFiniteValue(R"({"a\"inf": 1.5e-3, "b": [1, -2]})"));
  EXPECT_TRUE(hasNonFiniteValue(R"({"a": inf})"));
  EXPECT_TRUE(hasNonFiniteValue(R"({"a": -inf})"));
  EXPECT_TRUE(hasNonFiniteValue(R"({"a": nan})"));
  EXPECT_TRUE(hasNonFiniteValue(R"({"a": [1, -nan]})"));
  EXPECT_TRUE(hasNonFiniteValue(R"({"a": NaN, "b": Infinity})"));
}

TEST(ObsMetrics, WriteJsonIsFiniteAndContainsRegisteredNames) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("test.obs.json_counter").add(3);
  reg.gauge("test.obs.json_gauge").set(11);
  obs::Histogram& h = reg.histogram("test.obs.json_histogram");
  h.record(1);
  h.record(1'000'000);

  std::ostringstream out;
  reg.writeJson(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.find_last_not_of(" \n")], '}');
  EXPECT_NE(json.find("\"test.obs.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json_histogram\""), std::string::npos);
  // Every emitted number must be finite JSON: no NaN/Inf spellings.
  EXPECT_FALSE(hasNonFiniteValue(json)) << json;
}

/// Replays the export expansion at the record level and asserts the three
/// invariants: begin/end balance (implied by complete records), monotonic
/// per-thread timestamps in sequence order, and laminarity (two spans on
/// one thread either nest or are disjoint — never partially overlap).
void expectWellFormed(const obs::TraceSnapshot& snap) {
  std::map<std::uint32_t, std::vector<const obs::TraceRecord*>> byTid;
  for (const obs::TraceRecord& rec : snap.records) {
    EXPECT_LE(rec.beginSeq, rec.endSeq);
    if (rec.instant) {
      EXPECT_EQ(rec.beginSeq, rec.endSeq);
    }
    EXPECT_LE(rec.args.size(), obs::kMaxTraceArgs);
    byTid[rec.tid].push_back(&rec);
  }
  for (const auto& [tid, recs] : byTid) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> events;
    for (const obs::TraceRecord* r : recs) {
      events.emplace_back(r->beginSeq, r->beginNanos);
      if (!r->instant)
        events.emplace_back(r->endSeq, r->beginNanos + r->durNanos);
    }
    std::sort(events.begin(), events.end());
    for (std::size_t i = 0; i + 1 < events.size(); ++i) {
      EXPECT_LT(events[i].first, events[i + 1].first)
          << "duplicate sequence number on tid " << tid;
      EXPECT_LE(events[i].second, events[i + 1].second)
          << "non-monotonic timestamps on tid " << tid;
    }
    for (std::size_t i = 0; i < recs.size(); ++i)
      for (std::size_t j = i + 1; j < recs.size(); ++j) {
        const auto& a = *recs[i];
        const auto& b = *recs[j];
        const bool disjoint =
            a.endSeq < b.beginSeq || b.endSeq < a.beginSeq;
        const bool aInB = b.beginSeq < a.beginSeq && a.endSeq < b.endSeq;
        const bool bInA = a.beginSeq < b.beginSeq && b.endSeq < a.endSeq;
        EXPECT_TRUE(disjoint || aInB || bInA)
            << "partially overlapping spans '" << a.name << "' and '"
            << b.name << "' on tid " << tid;
      }
  }
}

TEST(TraceObs, SpanWithoutDetailRecordsEmptyDetail) {
  TraceGuard guard;
  { obs::TraceSpan span("no-detail"); }
  { obs::TraceSpan span("empty-view", std::string_view()); }
  const obs::TraceSnapshot snap = obs::snapshotTrace();
  ASSERT_EQ(snap.records.size(), 2u);
  for (const obs::TraceRecord& rec : snap.records)
    EXPECT_TRUE(rec.detail.empty()) << rec.name;
}

TEST(TraceObs, SelfTimesSubtractSameThreadChildren) {
  // A hand-built snapshot: on tid 1 `outer` holds `a` (which holds
  // `inner`), an instant and a sibling `b`; on tid 2 a second `outer`
  // holds another `a`.  Sequence numbers overlap across the threads, so
  // only per-thread nesting may count.
  auto span = [](const char* name, std::uint32_t tid, std::uint64_t begin,
                 std::uint64_t end, std::uint64_t durNanos) {
    obs::TraceRecord rec;
    rec.name = name;
    rec.tid = tid;
    rec.beginSeq = begin;
    rec.endSeq = end;
    rec.durNanos = durNanos;
    return rec;
  };
  obs::TraceSnapshot snap;
  snap.records = {span("inner", 1, 3, 4, 10), span("a", 1, 2, 5, 30),
                  span("tick", 1, 6, 6, 0),   span("b", 1, 7, 8, 20),
                  span("outer", 1, 1, 9, 100), span("a", 2, 2, 3, 15),
                  span("outer", 2, 1, 4, 50)};
  snap.records[2].instant = true;
  snap.dropped = 7;

  const obs::SelfTimes self = obs::selfTimes(snap);
  EXPECT_NEAR(self.of("outer"), (100 - 30 - 20 + 50 - 15) * 1e-9, 1e-15);
  EXPECT_NEAR(self.of("a"), (30 - 10 + 15) * 1e-9, 1e-15);
  EXPECT_NEAR(self.of("inner"), 10e-9, 1e-15);
  EXPECT_NEAR(self.of("b"), 20e-9, 1e-15);
  EXPECT_EQ(self.seconds.count("tick"), 0u);
  EXPECT_EQ(self.of("absent"), 0.0);
  EXPECT_EQ(self.dropped, 7u);
  // Inclusive times are whole durations, children included.
  EXPECT_NEAR(self.inclusiveOf("outer"), 150e-9, 1e-15);
  EXPECT_NEAR(self.inclusiveOf("a"), 45e-9, 1e-15);
  EXPECT_EQ(self.inclusive.count("tick"), 0u);
  EXPECT_EQ(self.inclusiveOf("absent"), 0.0);
  // Self times partition the root spans' durations.
  double total = 0.0;
  for (const auto& [name, seconds] : self.seconds) total += seconds;
  EXPECT_NEAR(total, 150e-9, 1e-15);
}

TEST(TraceObs, SelfTimesCoverFusedStages) {
  TraceGuard guard;
  AnalysisRequest request =
      AnalysisRequest::forGalileo(dft::corpus::galileoCas())
          .measure(MeasureSpec::unreliability({1.0}));
  request.options.engine.staticCombine = false;
  request.options.engine.reference = Reference::FusedChain;
  Analyzer().analyze(request);
  const obs::SelfTimes self = obs::selfTimes(obs::snapshotTrace());
  EXPECT_EQ(self.dropped, 0u);
  EXPECT_GT(self.of("otf.explore"), 0.0);
  EXPECT_GT(self.of("otf.finish"), 0.0);
  for (const auto& [name, seconds] : self.seconds)
    EXPECT_GE(seconds, 0.0) << name;
}

TEST(TraceObs, SelfTimesCoverClassicStages) {
  // Uncapped, every production step runs the classic chain; its stages
  // are child spans of compose.step, so the step's own self time is only
  // the bookkeeping around them.
  TraceGuard guard;
  AnalysisRequest request =
      AnalysisRequest::forGalileo(dft::corpus::galileoCas())
          .measure(MeasureSpec::unreliability({1.0}));
  request.options.engine.staticCombine = false;
  Analyzer().analyze(request);
  const obs::SelfTimes self = obs::selfTimes(obs::snapshotTrace());
  EXPECT_EQ(self.dropped, 0u);
  for (const char* stage :
       {"classic.compose", "classic.collapse", "classic.aggregate"})
    EXPECT_GT(self.of(stage), 0.0) << stage;
  EXPECT_EQ(self.of("otf.explore"), 0.0);
  EXPECT_LT(self.of("compose.step"),
            self.of("classic.compose") + self.of("classic.collapse") +
                self.of("classic.aggregate"));
}

TEST(TraceObs, ComposeStepCarriesPlannerArgs) {
  TraceGuard guard;
  Analyzer session;
  session.analyze(AnalysisRequest::forGalileo(dft::corpus::galileoCas())
                      .measure(MeasureSpec::unreliability({1.0})));
  const obs::TraceSnapshot snap = obs::snapshotTrace();
  std::size_t steps = 0, hidden = 0;
  for (const obs::TraceRecord& rec : snap.records) {
    if (std::strcmp(rec.name, "compose.step") != 0) continue;
    ++steps;
    bool sawHidden = false, sawPredicted = false;
    for (const obs::TraceArg& arg : rec.args) {
      if (std::strcmp(arg.key, "hidden") == 0) {
        sawHidden = true;
        hidden += arg.value;
      }
      if (std::strcmp(arg.key, "predicted") == 0) {
        sawPredicted = true;
        EXPECT_GT(arg.value, 0u);
      }
    }
    EXPECT_TRUE(sawHidden && sawPredicted) << rec.detail;
  }
  EXPECT_GT(steps, 0u);
  // Every CAS signal but the top's is internal to the tree, so the merges
  // hide them one by one.
  EXPECT_GT(hidden, 0u);
}

TEST(TraceObs, ClassicComposeCarriesStatesAndOverflow) {
  // classic.compose reports the pairs it discovered and whether it gave up
  // on the request's caps.  Uncapped, no attempt overflows and every span
  // reports its whole product.  Under 9,000 live states, pand_4x3's last
  // merge (9,925 states) overflows just past the cap and runs fused.
  for (const std::size_t cap : {std::size_t{0}, std::size_t{9000}}) {
    SCOPED_TRACE(cap);
    TraceGuard guard;
    AnalysisRequest request =
        AnalysisRequest::forDft(dft::corpus::cascadedPand(4, 3))
            .measure(MeasureSpec::unreliability({1.0}));
    request.options.engine.staticCombine = false;
    request.budget.maxLiveStates = cap;
    const AnalysisReport report = Analyzer().analyze(request);
    std::vector<std::uint64_t> composed;
    for (const analysis::CompositionStep& s : report.stats().steps)
      if (!s.onTheFly) composed.push_back(s.composedStates);
    std::vector<std::uint64_t> fits, overflows;
    for (const obs::TraceRecord& rec : obs::snapshotTrace().records) {
      if (std::strcmp(rec.name, "classic.compose") != 0) continue;
      std::map<std::string, std::uint64_t> args;
      for (const obs::TraceArg& arg : rec.args) args[arg.key] = arg.value;
      ASSERT_EQ(args.count("states"), 1u);
      ASSERT_EQ(args.count("overflow"), 1u);
      (args["overflow"] ? overflows : fits).push_back(args["states"]);
    }
    // Module workers trace on their own threads, so compare as multisets.
    std::sort(fits.begin(), fits.end());
    std::sort(composed.begin(), composed.end());
    EXPECT_EQ(fits, composed);
    if (cap == 0) {
      EXPECT_TRUE(overflows.empty());
    } else {
      ASSERT_EQ(overflows.size(), 1u);
      EXPECT_GT(overflows.front(), cap);
      EXPECT_LT(overflows.front(), 9925u);
    }
  }
}

TEST(TraceObs, AggregationSpansCarryRefinementWork) {
  // classic.aggregate (every step of an uncapped request) and otf.finish
  // (every step of the FusedChain reference) report what their
  // aggregateFixpoint did: refinement passes, signatures encoded and
  // quotients built.
  for (const auto& [reference, span] :
       {std::pair{Reference::Production, "classic.aggregate"},
        std::pair{Reference::FusedChain, "otf.finish"}}) {
    SCOPED_TRACE(span);
    TraceGuard guard;
    AnalysisRequest request = AnalysisRequest::forDft(dft::corpus::cps())
                                  .measure(MeasureSpec::unreliability({1.0}));
    request.options.engine.staticCombine = false;
    request.options.engine.reference = reference;
    Analyzer().analyze(request);
    std::size_t spans = 0;
    std::uint64_t encoded = 0;
    for (const obs::TraceRecord& rec : obs::snapshotTrace().records) {
      if (std::strcmp(rec.name, span) != 0) continue;
      ++spans;
      std::map<std::string, std::uint64_t> args;
      for (const obs::TraceArg& arg : rec.args) args[arg.key] = arg.value;
      ASSERT_EQ(args.count("encoded"), 1u);
      EXPECT_GE(args["refine_rounds"], 1u);
      EXPECT_GE(args["fixpoint_passes"], 1u);
      encoded += args["encoded"];
    }
    EXPECT_GT(spans, 0u);
    EXPECT_GT(encoded, 0u);
  }
}

TEST(TraceObs, AggregationRoundsArePinnedAndEncodesBounded) {
  // The refiner re-signs only the states whose signature can have changed;
  // its partitions, and so its round counts, are those of re-signing every
  // state.  The rounds and quotient passes of every classic.aggregate span
  // are pinned at the values full re-encoding took.  Full re-encoding
  // signed 316,785 states over cps_8x10's spans, where the dirty-state
  // refiner must sign at most 40% of that, and 1,545 over hecs's, which it
  // must not exceed.
  struct Pinned {
    const char* name;
    dft::Dft tree;
    std::vector<std::uint64_t> rounds, passes;  ///< in span order
    std::uint64_t maxEncoded;
  };
  const std::vector<std::uint64_t> onePassEach(25, 1);
  std::vector<std::uint64_t> hecsPasses(24, 1);
  hecsPasses[20] = 2;  // the floating-point summation case
  const Pinned pins[] = {
      {"cps_8x10", dft::corpus::cascadedPands(8, 10),
       {11, 11, 11, 11, 11, 11, 11, 11, 11, 2, 4, 11, 4,
        11, 4, 11, 4, 11, 4, 11, 4, 11, 3, 3, 11},
       onePassEach, 316785 * 2 / 5},
      {"hecs", dft::corpus::hecs(),
       {2, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4, 3, 4, 3, 6, 2, 2,
        2},
       hecsPasses, 1545},
  };
  for (const Pinned& pin : pins) {
    SCOPED_TRACE(pin.name);
    TraceGuard guard;
    AnalysisRequest request = AnalysisRequest::forDft(pin.tree).measure(
        MeasureSpec::unreliability({1.0}));
    request.options.engine.numThreads = 1;  // one thread: one span order
    Analyzer().analyze(request);
    std::vector<std::uint64_t> rounds, passes;
    std::uint64_t encoded = 0;
    for (const obs::TraceRecord& rec : obs::snapshotTrace().records) {
      if (std::strcmp(rec.name, "classic.aggregate") != 0) continue;
      std::map<std::string, std::uint64_t> args;
      for (const obs::TraceArg& arg : rec.args) args[arg.key] = arg.value;
      rounds.push_back(args["refine_rounds"]);
      passes.push_back(args["fixpoint_passes"]);
      encoded += args["encoded"];
    }
    EXPECT_EQ(rounds, pin.rounds);
    EXPECT_EQ(passes, pin.passes);
    EXPECT_LE(encoded, pin.maxEncoded);
  }
}

TEST(TraceObs, CtmdpBoundsEmitSolveSpan) {
  // Generator seed 24 keeps real scheduler choices, so the bounds sweep
  // runs both value vectors.
  TraceGuard guard;
  const AnalysisReport report = Analyzer().analyze(
      AnalysisRequest::forDft(dft::generateDft(24))
          .measure(MeasureSpec::unreliabilityBounds({1.0})));
  ASSERT_TRUE(report.analysis->nondeterministic);
  ASSERT_EQ(report.measures.size(), 1u);
  EXPECT_TRUE(report.measures.front().ok) << report.measures.front().error;
  std::size_t solves = 0;
  for (const obs::TraceRecord& rec : obs::snapshotTrace().records) {
    if (std::strcmp(rec.name, "ctmdp.solve") != 0) continue;
    ++solves;
    std::map<std::string, std::uint64_t> args;
    for (const obs::TraceArg& arg : rec.args) args[arg.key] = arg.value;
    EXPECT_GT(args["states"], 0u);
    EXPECT_GT(args["iterations"], 0u);
    EXPECT_EQ(args["sides"], 2u);
  }
  EXPECT_EQ(solves, 1u);
}

TEST(ConcurrentTraceObs, WellFormedAfterConcurrentBatch) {
  TraceGuard guard;
  Analyzer session;
  const std::vector<std::string> models = {
      dft::corpus::galileoCas(), dft::corpus::galileoCps(),
      dft::corpus::galileoHecs(), dft::corpus::galileoCas()};

  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < models.size(); ++i)
    pool.emplace_back([&session, &models, i] {
      AnalysisRequest request =
          AnalysisRequest::forGalileo(models[i],
                                      "m" + std::to_string(i))
              .withRequestId(i + 1)
              .measure(MeasureSpec::unreliability({1.0}));
      const AnalysisReport report = session.analyze(request);
      EXPECT_EQ(report.requestId, i + 1);
    });
  for (std::thread& t : pool) t.join();

  const obs::TraceSnapshot snap = obs::snapshotTrace();
  EXPECT_FALSE(snap.records.empty());
  expectWellFormed(snap);

  // Every span lands in one of the four request groups (context 0 would
  // mean a worker lost its submitting request's context).
  std::size_t requestSpans = 0;
  for (const obs::TraceRecord& rec : snap.records) {
    EXPECT_GE(rec.ctx, 1u);
    EXPECT_LE(rec.ctx, models.size());
    if (std::strcmp(rec.name, "request") == 0) ++requestSpans;
  }
  EXPECT_EQ(requestSpans, models.size());

  // The exported JSON balances its begin/end events.
  std::ostringstream out;
  const obs::TraceWriteStats stats = obs::writeChromeTrace(out);
  EXPECT_GT(stats.spans, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  const std::string json = out.str();
  auto countOf = [&json](const char* needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(countOf("\"ph\":\"B\""), countOf("\"ph\":\"E\""));
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(ConcurrentTraceObs, RingOverflowStaysWellFormed) {
  obs::clearTrace();
  obs::setTraceCapacity(8);
  obs::setTraceEnabled(true);
  // A fresh thread gets the tiny ring; nested spans overflow it hard.
  std::thread t([] {
    for (int i = 0; i < 50; ++i) {
      obs::TraceSpan outer("outer");
      obs::TraceSpan inner("inner");
      obs::traceInstant("tick");
    }
  });
  t.join();
  obs::setTraceEnabled(false);
  const obs::TraceSnapshot snap = obs::snapshotTrace();
  obs::setTraceCapacity(8192);
  obs::clearTrace();
  EXPECT_GT(snap.dropped, 0u);
  EXPECT_FALSE(snap.records.empty());
  expectWellFormed(snap);
}

TEST(ConcurrentTraceObs, MeasuresBitwiseIdenticalOnVsOff) {
  const std::vector<std::string> models = {dft::corpus::galileoCas(),
                                           dft::corpus::galileoCps(),
                                           dft::corpus::galileoHecs()};
  const std::vector<double> times = {0.5, 1.0, 2.0};
  for (const std::string& text : models) {
    obs::setTraceEnabled(false);
    Analyzer coldSession;
    AnalysisRequest request = AnalysisRequest::forGalileo(text).measure(
        MeasureSpec::unreliability(times));
    const std::vector<double> off =
        unreliabilityValues(coldSession.analyze(request));

    std::vector<double> on;
    {
      TraceGuard guard;
      Analyzer tracedSession;
      on = unreliabilityValues(tracedSession.analyze(request));
    }
    ASSERT_EQ(off.size(), on.size());
    // Bitwise, not approximate: tracing must be a pure observer.
    EXPECT_EQ(std::memcmp(off.data(), on.data(),
                          off.size() * sizeof(double)),
              0);
  }
}

TEST(ConcurrentTraceObs, BudgetTripEmitsInstantEvent) {
  TraceGuard guard;
  Analyzer session;
  AnalysisRequest request =
      AnalysisRequest::forGalileo(dft::corpus::galileoCps(), "tiny-budget")
          .withRequestId(77)
          .measure(MeasureSpec::unreliability({1.0}));
  request.budget.maxLiveStates = 2;
  EXPECT_THROW(session.analyze(request), BudgetExceeded);

  const obs::TraceSnapshot snap = obs::snapshotTrace();
  bool sawTrip = false;
  for (const obs::TraceRecord& rec : snap.records)
    if (std::strcmp(rec.name, "budget-trip") == 0) {
      sawTrip = true;
      EXPECT_TRUE(rec.instant);
      EXPECT_EQ(rec.ctx, 77u);
      bool sawLiveStates = false;
      for (const obs::TraceArg& a : rec.args)
        if (std::strcmp(a.key, "live_states") == 0) sawLiveStates = true;
      EXPECT_TRUE(sawLiveStates);
    }
  EXPECT_TRUE(sawTrip);
  expectWellFormed(snap);
}

}  // namespace
}  // namespace imcdft
