// The repository benchmark: three closed-loop workloads over the public
// analysis API, end-to-end metrics with tracing off, and a traced run that
// splits the cost by layer.  See perfbench/NOTES.md for what each workload
// loads and how to read the output; perfbench/run.py builds and runs it.
//
//   repobench --workload corpus|fuzz|session --seed N --seconds S
//             --trace 0|1 --references FILE
//             [--quick] [--corrupt-reference]
//   repobench --workload W --seed N --fingerprints
//   repobench --workload W --write-references FILE
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}.  The line before it is the run's provenance.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/converter.hpp"
#include "analysis/engine.hpp"
#include "analysis/extract.hpp"
#include "analysis/static_combine.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/symbol_table.hpp"
#include "ctmc/mttf.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "dft/corpus.hpp"
#include "dft/galileo.hpp"
#include "dft/generate.hpp"
#include "dft/hash.hpp"
#include "dft/modules.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/ops.hpp"
#include "obs/trace.hpp"

namespace {

using namespace imcdft;
using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::MeasureKind;
using analysis::MeasureResult;
using analysis::MeasureSpec;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 0;
/// Live-state cap of every fuzz request: a deterministic budget, so the
/// set of tripped trees repeats exactly from run to run.
constexpr std::size_t kFuzzLiveStateCap = 30000;
/// The fuzz family: generator seeds [0, kFuzzTrees).
constexpr std::uint64_t kFuzzTrees = 75;
/// Distinct what-if variants per session slot; lap L uses variant L % K.
constexpr std::size_t kWhatIfVariants = 16;
/// Untraced runs serve at least this many requests, so at least ten
/// latency samples lie beyond the 90th percentile.
constexpr std::size_t kMinSamples = 100;
/// Throughput is the median over laps, so a run serves at least three.
constexpr std::size_t kMinLaps = 3;
/// Lap length cap of --quick (the self-test).
constexpr std::size_t kQuickLap = 24;
/// Each session lap holds this many copies of the request mix (and as
/// many what-if slots per tree), so one lap averages over several targets.
constexpr int kSessionRepeat = 2;
/// The repository's agreement band for values of one model.
constexpr double kRelTol = 1e-9;
constexpr double kAbsTol = 5e-10;
/// Slack for monotonicity / range checks at any seed (transient solves
/// truncate at 1e-10 absolute).
constexpr double kSlack = 1e-9;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic stream per (seed, purpose tag).
struct Rng {
  std::uint64_t state;
  Rng(std::uint64_t seed, std::uint64_t tag)
      : state(seed * 0x2545F4914F6CDD1Dull ^ (tag + 0x632BE59BD9B4E019ull)) {}
  std::uint64_t next() { return splitmix(state); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------ inputs

/// Copy of \p tree with every failure and repair rate multiplied by
/// \p factor.  Powers of two keep every rate sum and ratio exact, so the
/// aggregated models have the same shapes and sizes as the original.
dft::Dft scaleRates(const dft::Dft& tree, double factor,
                    std::optional<dft::ElementId> only = std::nullopt) {
  std::vector<dft::Element> elements;
  elements.reserve(tree.size());
  for (dft::ElementId id = 0; id < tree.size(); ++id) {
    dft::Element e = tree.element(id);
    if (e.isBasicEvent() && (!only || *only == id)) {
      e.be.lambda *= factor;
      if (e.be.repairRate) *e.be.repairRate *= factor;
    }
    elements.push_back(std::move(e));
  }
  return dft::Dft(std::move(elements), tree.top(), tree.inhibitions());
}

/// A power-of-two time scale in {1/2, 1, 2}; 1 at the default seed so the
/// paper's models are analyzed unchanged there.
double timeScale(std::uint64_t seed, Rng& rng) {
  if (seed == kDefaultSeed) return 1.0;
  static const double kScales[] = {0.5, 1.0, 2.0};
  return kScales[rng.below(3)];
}

std::vector<double> scaledGrid(std::vector<double> grid, double rateScale) {
  for (double& t : grid) t /= rateScale;
  return grid;
}

struct Request {
  std::string label;
  std::string galileo;
  std::uint64_t hash = 0;
  std::vector<MeasureSpec> measures;
  std::size_t maxLiveStates = 0;
  /// Reference key: label, input fingerprint and measure grid.
  std::string key;
};

std::string measureTag(const MeasureSpec& m) {
  std::string s;
  switch (m.kind) {
    case MeasureKind::Unreliability: s = "U"; break;
    case MeasureKind::UnreliabilityBounds: s = "B"; break;
    case MeasureKind::Unavailability: s = "A"; break;
    case MeasureKind::SteadyStateUnavailability: s = "S"; break;
    case MeasureKind::Mttf: s = "M"; break;
  }
  for (std::size_t i = 0; i < m.times.size(); ++i)
    s += (i ? "," : "@") + num(m.times[i]);
  return s;
}

Request makeRequest(std::string label, const dft::Dft& tree,
                    std::vector<MeasureSpec> measures,
                    std::size_t maxLiveStates = 0) {
  Request r;
  r.label = std::move(label);
  r.galileo = dft::printGalileo(tree);
  r.hash = dft::canonicalHash(tree);
  r.measures = std::move(measures);
  r.maxLiveStates = maxLiveStates;
  r.key = r.label + "#" + hex64(r.hash);
  for (const MeasureSpec& m : r.measures) r.key.append("|").append(measureTag(m));
  return r;
}

AnalysisRequest toAnalysisRequest(const Request& r) {
  AnalysisRequest req = AnalysisRequest::forGalileo(r.galileo, r.label);
  req.measures = r.measures;
  if (r.maxLiveStates > 0) {
    analysis::Budget budget;
    budget.maxLiveStates = r.maxLiveStates;
    req.withBudget(budget);
  }
  return req;
}

/// One workload instance: lap lists (lap L runs laps[L % laps.size()]),
/// the client count, and whether every request gets a fresh Analyzer.
struct Workload {
  std::string name;
  std::vector<std::vector<Request>> laps;
  unsigned clients = 1;
  bool freshAnalyzer = true;
  /// Laps per second of --seconds: a run serves a fixed amount of work,
  /// sized to take about --seconds on a 4-core machine, so two runs of one
  /// commit serve the same requests and cache the same entries.
  double lapsPerSecond = 1.0;
  /// Session only: the shared Analyzer, warmed during set-up.
  std::unique_ptr<analysis::Analyzer> session;
  /// Session only: the warm-up requests (one per base tree).
  std::vector<Request> warmup;
};

/// The paper models and parametric families, each analyzed on a small
/// unreliability grid; pand_6x2 dominates the lap's time.  The copy counts
/// centre the median on CAS and the 90th percentile on cps_6x14, so
/// neither percentile sits on the edge between two families.
void buildCorpus(std::uint64_t seed, Workload& w) {
  namespace corpus = dft::corpus;
  struct Family {
    const char* name;
    std::function<dft::Dft()> make;
    int copies;
  };
  const std::vector<Family> families = {
      {"cas", [] { return corpus::cas(); }, 4},
      {"cps", [] { return corpus::cps(); }, 1},
      {"hecs", [] { return corpus::hecs(); }, 2},
      {"fig6a", [] { return corpus::figure6a(); }, 1},
      {"fig6b", [] { return corpus::figure6b(); }, 1},
      {"fig10a", [] { return corpus::figure10a(); }, 1},
      {"fig10b", [] { return corpus::figure10b(); }, 1},
      {"fig10c", [] { return corpus::figure10c(); }, 1},
      {"cps_8x10", [] { return corpus::cascadedPands(8, 10); }, 2},
      {"cps_6x14", [] { return corpus::cascadedPands(6, 14); }, 3},
      {"pand_4x3", [] { return corpus::cascadedPand(4, 3); }, 2},
      {"pand_6x2", [] { return corpus::cascadedPand(6, 2); }, 1},
      {"sensors_4x2", [] { return corpus::sensorBanks(4, 2); }, 1},
      {"voter_4x2", [] { return corpus::voterFarm(4, 2); }, 1},
  };
  Rng rng(seed, 1);
  std::vector<Request> lap;
  for (const Family& f : families) {
    const double scale = timeScale(seed, rng);
    const dft::Dft tree = scaleRates(f.make(), scale);
    Request r = makeRequest(f.name, tree,
                            {MeasureSpec::unreliability(
                                scaledGrid({0.5, 1.0, 2.0}, scale))});
    for (int c = 0; c < f.copies; ++c) lap.push_back(r);
  }
  rng.shuffle(lap);
  w.laps = {std::move(lap)};
  w.lapsPerSecond = 0.3;  // a lap takes about 3.4 s
}

/// Generated trees over the full gate vocabulary under a live-state cap.
/// The family (generator seeds) is fixed; the workload seed sets the
/// order and one power-of-two time scale per tree.
void buildFuzz(std::uint64_t seed, Workload& w) {
  Rng rng(seed, 2);
  std::vector<Request> lap;
  for (std::uint64_t s = 0; s < kFuzzTrees; ++s) {
    const double scale = timeScale(seed, rng);
    const dft::Dft tree = scaleRates(dft::generateDft(s), scale);
    lap.push_back(makeRequest(
        "gen" + std::to_string(s), tree,
        {MeasureSpec::unreliability(scaledGrid({0.5, 1.0, 2.0}, scale))},
        kFuzzLiveStateCap));
  }
  rng.shuffle(lap);
  w.laps = {std::move(lap)};
  w.lapsPerSecond = 0.15;  // a lap takes about 6.4 s
}

/// A warm session over trees with large final models.  Most requests are
/// measure-only tree-cache hits; the what-if slots change one basic-event
/// rate, so every unchanged module is spliced from the module cache.  The
/// tree set and the per-lap request mix are fixed (they decide the cost);
/// the seed sets the order, the time scales and the what-if targets.
void buildSession(std::uint64_t seed, Workload& w) {
  namespace corpus = dft::corpus;
  using K = MeasureKind;
  struct Item {
    K kind;
    std::vector<double> grid;
    int perLap;
  };
  struct Tree {
    std::string name;
    dft::Dft tree;
    std::vector<Item> menu;
    int whatIfs;
  };
  const std::vector<double> g3 = {0.5, 1.0, 2.0};
  std::vector<Tree> trees;
  trees.push_back({"pand_4x3", corpus::cascadedPand(4, 3),
                   {{K::Unreliability, g3, 6},
                    {K::Unreliability, {0.25, 0.75, 1.5, 3.0}, 4},
                    {K::Unreliability, {1.0}, 3},
                    {K::UnreliabilityBounds, {1.0}, 3}},
                   2});
  trees.push_back({"pand_6x2", corpus::cascadedPand(6, 2),
                   {{K::Unreliability, g3, 2},
                    {K::Unreliability, {1.5}, 2},
                    {K::UnreliabilityBounds, {1.0}, 1}},
                   0});
  // Generated trees: two repairable ones (unavailability, steady state,
  // MTTF), two large deterministic ones, a nondeterministic one (CTMDP
  // bounds) and a mid-sized one.
  auto gen = [](std::uint64_t g) { return dft::generateDft(g); };
  trees.push_back({"gen126", gen(126),
                   {{K::Unavailability, {0.5, 1.0}, 2},
                    {K::SteadyStateUnavailability, {}, 2},
                    {K::Mttf, {}, 2},
                    {K::Unreliability, g3, 2}},
                   1});
  trees.push_back({"gen67", gen(67),
                   {{K::Unavailability, {0.5, 1.0}, 2},
                    {K::SteadyStateUnavailability, {}, 2},
                    {K::Mttf, {}, 1}},
                   1});
  trees.push_back({"gen34", gen(34),
                   {{K::UnreliabilityBounds, g3, 2}, {K::Unreliability, g3, 3}},
                   0});
  trees.push_back({"gen112", gen(112),
                   {{K::Unreliability, g3, 3}, {K::UnreliabilityBounds, g3, 1}},
                   0});
  trees.push_back({"gen24", gen(24),
                   {{K::UnreliabilityBounds, g3, 2}, {K::Unreliability, g3, 2}},
                   1});
  trees.push_back({"gen22", gen(22),
                   {{K::Unreliability, g3, 2}, {K::Mttf, {}, 1}},
                   1});

  Rng rng(seed, 3);
  std::vector<Request> common;  // slots that are the same in every lap
  struct WhatIf {
    std::string name;
    dft::Dft tree;
    dft::ElementId be;
    double scale;
  };
  std::vector<WhatIf> whatIfs;
  for (const Tree& t : trees) {
    const double scale = timeScale(seed, rng);
    const dft::Dft scaled = scaleRates(t.tree, scale);
    std::vector<MeasureSpec> all;
    for (const Item& item : t.menu) {
      const MeasureSpec spec{item.kind, scaledGrid(item.grid, scale)};
      const Request r = makeRequest(t.name, scaled, {spec});
      for (int c = 0; c < kSessionRepeat * item.perLap; ++c) common.push_back(r);
      all.push_back(spec);
    }
    w.warmup.push_back(makeRequest(t.name, scaled, all));
    std::vector<dft::ElementId> bes;
    for (dft::ElementId id = 0; id < scaled.size(); ++id)
      if (scaled.element(id).isBasicEvent()) bes.push_back(id);
    // Evenly spaced targets, the same at every seed: which module a what-if
    // recomposes decides its cost.
    const std::size_t count = static_cast<std::size_t>(kSessionRepeat * t.whatIfs);
    for (std::size_t k = 0; k < count; ++k)
      whatIfs.push_back({t.name + ".whatif", scaled,
                         bes[(2 * k + 1) * bes.size() / (2 * count)], scale});
  }
  std::vector<std::size_t> order(common.size() + whatIfs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  // Lap v gives each what-if slot its own seeded rate factor, so
  // consecutive laps compose fresh variants instead of hitting the tree
  // cache.
  w.laps.assign(kWhatIfVariants, {});
  for (std::size_t v = 0; v < kWhatIfVariants; ++v) {
    for (std::size_t slot : order) {
      if (slot < common.size()) {
        w.laps[v].push_back(common[slot]);
        continue;
      }
      const WhatIf& wi = whatIfs[slot - common.size()];
      const double factor = 1.0 + static_cast<double>(1 + rng.below(63)) / 64.0;
      w.laps[v].push_back(makeRequest(
          wi.name, scaleRates(wi.tree, factor, wi.be),
          {MeasureSpec::unreliability(scaledGrid(g3, wi.scale))}));
    }
  }
  w.clients = std::max(1u, std::thread::hardware_concurrency());
  w.freshAnalyzer = false;
  w.lapsPerSecond = 0.45;  // a lap takes about 2.2 s
}

Workload buildWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "corpus")
    buildCorpus(seed, w);
  else if (name == "fuzz")
    buildFuzz(seed, w);
  else if (name == "session")
    buildSession(seed, w);
  else
    throw Error("unknown workload '" + name + "' (corpus, fuzz, session)");
  return w;
}

/// Set-up: builds the inputs and, for the session, a fresh Analyzer warmed
/// with every base tree (so measure-only requests are tree-cache hits).
Workload setUp(const std::string& name, std::uint64_t seed) {
  Workload w = buildWorkload(name, seed);
  if (!w.freshAnalyzer) {
    w.session = std::make_unique<analysis::Analyzer>();
    for (const Request& r : w.warmup) {
      AnalysisReport rep = w.session->analyze(toAnalysisRequest(r));
      if (!rep.allMeasuresOk())
        throw Error("session warm-up failed on '" + r.label + "'");
    }
  }
  return w;
}

// ------------------------------------------------------------- correctness

/// What one request produced: flattened values (bounds as lower, upper
/// pairs), or a budget trip, or an error.
struct Outcome {
  enum Kind { Values, Trip, Error } kind = Values;
  std::vector<double> values;
  std::string error;
};

Outcome flatten(const AnalysisReport& rep) {
  Outcome o;
  for (const MeasureResult& m : rep.measures) {
    if (!m.ok) return {Outcome::Error, {}, m.error};
    if (!m.bounds.empty())
      for (const auto& b : m.bounds) {
        o.values.push_back(b.lower);
        o.values.push_back(b.upper);
      }
    else
      o.values.insert(o.values.end(), m.values.begin(), m.values.end());
  }
  return o;
}

/// Reference values at the default seed: key -> values, or "trip".
struct References {
  std::unordered_map<std::string, Outcome> byKey;
  bool loaded = false;
};

bool close(double got, double want) {
  if (std::isinf(got) || std::isinf(want)) return got == want;
  return std::fabs(got - want) <= std::max(kRelTol * std::fabs(want), kAbsTol);
}

/// Checks that hold at any seed: finite values in [0, 1], unreliability
/// non-decreasing over the grid, lower bound <= upper bound.  Returns an
/// empty string when the outcome passes.
std::string checkInvariants(const AnalysisReport& rep) {
  for (const MeasureResult& m : rep.measures) {
    if (!m.ok) return std::string("measure failed: ") + m.error;
    const bool isBounds = !m.bounds.empty();
    const std::size_t n = isBounds ? m.bounds.size() : m.values.size();
    const std::size_t expected = m.spec.times.empty() ? 1 : m.spec.times.size();
    if (n != expected) return "wrong number of values";
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> vs;
      if (isBounds) {
        vs = {m.bounds[i].lower, m.bounds[i].upper};
        if (m.bounds[i].lower > m.bounds[i].upper + kSlack)
          return "lower bound above upper bound";
      } else {
        vs = {m.values[i]};
      }
      for (double v : vs) {
        if (!std::isfinite(v)) return "non-finite value";
        if (m.spec.kind == MeasureKind::Mttf) {
          if (v <= 0.0) return "non-positive MTTF";
        } else if (v < -kSlack || v > 1.0 + kSlack) {
          return "probability outside [0,1]";
        }
      }
      const bool monotone = m.spec.kind == MeasureKind::Unreliability ||
                            m.spec.kind == MeasureKind::UnreliabilityBounds;
      if (monotone && i > 0) {
        if (isBounds ? (m.bounds[i].lower < m.bounds[i - 1].lower - kSlack ||
                        m.bounds[i].upper < m.bounds[i - 1].upper - kSlack)
                     : m.values[i] < m.values[i - 1] - kSlack)
          return "unreliability decreases over the grid";
      }
    }
  }
  return {};
}

std::string compareToReference(const Outcome& got, const Outcome& want) {
  if (got.kind != want.kind)
    return want.kind == Outcome::Trip ? "expected a budget trip"
                                      : "unexpected budget trip";
  if (got.kind == Outcome::Trip) return {};
  if (got.values.size() != want.values.size()) return "value count differs";
  for (std::size_t i = 0; i < got.values.size(); ++i)
    if (!close(got.values[i], want.values[i]))
      return "value " + num(got.values[i]) + " differs from reference " +
             num(want.values[i]);
  return {};
}

// --------------------------------------------------------------- serving

struct Sample {
  const Request* request = nullptr;
  std::size_t lap = 0;
  Clock::time_point start, end;
  double seconds = 0.0;
  bool tripped = false;
  bool failed = false;  ///< wrong value or unexpected error
};

/// One served request: the report (when the pipeline completed) and the
/// outcome classification.
struct Served {
  std::optional<AnalysisReport> report;
  Outcome outcome;
  Sample sample;
};

Served serve(Workload& w, const Request& r, const References& refs) {
  Served s;
  s.sample.request = &r;
  const Clock::time_point t0 = Clock::now();
  try {
    obs::TraceSpan span("bench.request", r.label);
    if (w.freshAnalyzer) {
      analysis::Analyzer fresh;
      s.report = fresh.analyze(toAnalysisRequest(r));
    } else {
      s.report = w.session->analyze(toAnalysisRequest(r));
    }
  } catch (const BudgetExceeded&) {
    s.outcome.kind = Outcome::Trip;
  } catch (const std::exception& e) {
    s.outcome = {Outcome::Error, {}, e.what()};
  }
  s.sample.start = t0;
  s.sample.end = Clock::now();
  s.sample.seconds = std::chrono::duration<double>(s.sample.end - t0).count();
  std::string problem;
  if (s.report) {
    problem = checkInvariants(*s.report);
    if (problem.empty()) s.outcome = flatten(*s.report);
  } else if (s.outcome.kind == Outcome::Error) {
    problem = s.outcome.error;
  }
  if (problem.empty() && refs.loaded) {
    auto it = refs.byKey.find(r.key);
    problem = it == refs.byKey.end() ? "no reference value"
                                     : compareToReference(s.outcome, it->second);
  }
  s.sample.tripped = problem.empty() && s.outcome.kind == Outcome::Trip;
  if (!problem.empty()) {
    s.sample.failed = true;
    std::fprintf(stderr, "repobench: %s (%s): %s\n", r.label.c_str(),
                 hex64(r.hash).c_str(), problem.c_str());
  }
  return s;
}

/// Hands freed heap memory back to the system.  The one-shot workloads
/// call it between requests, as a fresh process per request would start
/// clean: one request's fragmentation must not inflate the next one's
/// resident set.
void releaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

struct CpuTime {
  double seconds = 0.0;
  static CpuTime now() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return {tv(u.ru_utime) + tv(u.ru_stime)};
  }
};

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Pass {
  std::vector<Sample> samples;
  /// Per served request, in lap-slot order of the *first* lap served
  /// (what the traced run replays and counts).
  std::vector<Served> firstLap;
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  std::size_t laps = 0;

  /// Requests per second of each lap: lap length over the time from the
  /// lap's first request start to its last request end (laps of several
  /// clients overlap by at most one request each).
  std::vector<double> lapThroughputs() const {
    std::map<std::size_t, std::pair<Clock::time_point, Clock::time_point>> span;
    std::map<std::size_t, std::size_t> count;
    for (const Sample& s : samples) {
      auto [it, fresh] = span.try_emplace(s.lap, s.start, s.end);
      if (!fresh) {
        it->second.first = std::min(it->second.first, s.start);
        it->second.second = std::max(it->second.second, s.end);
      }
      ++count[s.lap];
    }
    std::vector<double> out;
    for (const auto& [lap, se] : span)
      out.push_back(count[lap] / std::chrono::duration<double>(se.second - se.first).count());
    return out;
  }
};

/// Trace ring sizes in events: large for the threads that serve requests,
/// small for every thread created later (the engine starts fresh module
/// and verification threads per request, and each keeps its ring).
constexpr std::size_t kClientRing = 1u << 16;
constexpr std::size_t kWorkerRing = 1u << 9;

struct LoopOptions {
  /// Whole laps only, so every run serves the same request mix.
  std::size_t laps = 1;
  std::size_t firstLap = 0;
  /// Keep the reports of the first lap (traced runs count and replay it).
  bool keepLap = false;
  /// Called after each request of a single-client loop.
  std::function<void()> afterRequest;
};

/// Closed loop: w.clients threads take the next lap slot, serve it, and
/// take the next.
Pass runLoop(Workload& w, const References& refs, const LoopOptions& opts) {
  Pass pass;
  const std::size_t lapLen = w.laps.front().size();
  std::mutex mu;
  std::size_t next = 0;  // global slot index, guarded by mu
  if (opts.keepLap) pass.firstLap.resize(lapLen);
  const Clock::time_point t0 = Clock::now();
  const CpuTime c0 = CpuTime::now();

  auto take = [&]() -> std::optional<std::size_t> {
    std::lock_guard<std::mutex> lock(mu);
    if (next >= opts.laps * lapLen) return std::nullopt;
    return next++;
  };
  // Traced multi-client passes: every client allocates its large ring
  // before the capacity drops for the engine's threads.
  std::barrier ready(static_cast<std::ptrdiff_t>(w.clients), []() noexcept {
    if (obs::traceEnabled()) obs::setTraceCapacity(kWorkerRing);
  });
  auto client = [&] {
    if (w.clients > 1) {
      if (obs::traceEnabled()) obs::traceInstant("bench.client");
      ready.arrive_and_wait();
    }
    while (std::optional<std::size_t> slot = take()) {
      const std::size_t lap = opts.firstLap + *slot / lapLen;
      const Request& r = w.laps[lap % w.laps.size()][*slot % lapLen];
      Served s = serve(w, r, refs);
      s.sample.lap = lap;
      if (w.freshAnalyzer) releaseFreedMemory();
      if (opts.afterRequest) opts.afterRequest();
      std::lock_guard<std::mutex> lock(mu);
      pass.samples.push_back(s.sample);
      if (opts.keepLap && *slot < lapLen) pass.firstLap[*slot] = std::move(s);
    }
  };
  if (w.clients <= 1) {
    client();
  } else {
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < w.clients; ++i) threads.emplace_back(client);
    for (std::thread& t : threads) t.join();
  }
  pass.wallSeconds = secondsSince(t0);
  pass.cpuSeconds = CpuTime::now().seconds - c0.seconds;
  pass.laps = (next + lapLen - 1) / lapLen;
  return pass;
}

double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// ----------------------------------------------------------------- tracing

/// Layer metric of each span name: the bench's own spans and the
/// program's obs spans.
const std::unordered_map<std::string, const char*> kLayers = {
    {"dft.parse", "dft.parse_ms"},
    {"parse", "dft.parse_ms"},
    {"dft.modularize", "dft.modularize_ms"},
    {"modularize", "dft.modularize_ms"},
    {"converter.convert", "converter.convert_ms"},
    {"convert", "converter.convert_ms"},
    {"engine.compose", "engine.compose_ms"},
    {"compose", "engine.compose_ms"},
    {"module", "engine.compose_ms"},
    {"compose.step", "ioimc.compose_step_ms"},
    {"otf.explore", "ioimc.otf_explore_ms"},
    {"otf.refine", "ioimc.otf_refine_ms"},
    {"otf.collapse", "ioimc.otf_collapse_ms"},
    {"otf.finish", "ioimc.otf_finish_ms"},
    {"otf.verify", "ioimc.otf_verify_ms"},
    {"finalize", "engine.finalize_ms"},
    {"static_combine", "static_combine.ms"},
    {"numeric-combine", "static_combine.ms"},
    {"extract", "extract.ms"},
    {"ctmc.transient", "ctmc.transient_ms"},
    {"ctmc.solve", "ctmc.transient_ms"},
    {"ctmc.mttf", "ctmc.mttf_ms"},
    {"ctmc.steady", "ctmc.steady_ms"},
    {"ctmdp.bounds", "ctmdp.bounds_ms"},
};

/// Layer metric of a span, or null when it only inherits its parent's.
const char* layerOf(const obs::TraceRecord& rec) {
  auto it = kLayers.find(rec.name);
  if (it != kLayers.end()) return it->second;
  if (std::strcmp(rec.name, "measure") == 0) {
    // The Analyzer's measure span names its kind in the detail.
    auto is = [&](MeasureKind k) { return rec.detail == analysis::measureKindName(k); };
    if (is(MeasureKind::UnreliabilityBounds)) return "ctmdp.bounds_ms";
    if (is(MeasureKind::Mttf)) return "ctmc.mttf_ms";
    if (is(MeasureKind::SteadyStateUnavailability)) return "ctmc.steady_ms";
    return "ctmc.transient_ms";
  }
  return nullptr;
}

/// Per-name self time of a span forest: a span's duration minus what its
/// direct children cover.  Self time goes to the span's own layer, else to
/// the nearest ancestor's; spans with no layer on their path to a root are
/// unattributed.  Roots named \p rootName give the traced wall time.
struct SelfTimes {
  std::map<std::string, double> byName;   ///< per span name, ns
  std::map<std::string, double> byLayer;  ///< per layer metric, ns
  double rootNs = 0.0;
  double unattributedNs = 0.0;
  std::size_t dropped = 0;

  void add(const obs::TraceSnapshot& snap, const char* rootName) {
    dropped += snap.dropped;
    // Records are sorted by (tid, endSeq); rebuild nesting per thread from
    // begin order with a stack of open spans.
    std::vector<const obs::TraceRecord*> spans;
    for (const obs::TraceRecord& r : snap.records)
      if (!r.instant) spans.push_back(&r);
    std::stable_sort(spans.begin(), spans.end(),
                     [](const obs::TraceRecord* a, const obs::TraceRecord* b) {
                       if (a->tid != b->tid) return a->tid < b->tid;
                       return a->beginSeq < b->beginSeq;
                     });
    struct Open {
      const obs::TraceRecord* rec;
      const char* layer;   ///< own or inherited
      bool underRoot;
      double childNs;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      const double self = std::max(0.0, static_cast<double>(o.rec->durNanos) - o.childNs);
      byName[o.rec->name] += self;
      if (o.layer) byLayer[o.layer] += self;
      else if (o.underRoot) unattributedNs += self;
      if (std::strcmp(o.rec->name, rootName) == 0) rootNs += o.rec->durNanos;
    };
    std::uint32_t tid = 0;
    for (const obs::TraceRecord* r : spans) {
      if (r->tid != tid) {
        while (!stack.empty()) { close(stack.back()); stack.pop_back(); }
        tid = r->tid;
      }
      while (!stack.empty() && stack.back().rec->endSeq < r->beginSeq) {
        close(stack.back());
        stack.pop_back();
      }
      const char* own = layerOf(*r);
      const Open* parent = stack.empty() ? nullptr : &stack.back();
      if (parent) stack.back().childNs += static_cast<double>(r->durNanos);
      stack.push_back({r, own ? own : (parent ? parent->layer : nullptr),
                       std::strcmp(r->name, rootName) == 0 ||
                           (parent && parent->underRoot),
                       0.0});
    }
    while (!stack.empty()) { close(stack.back()); stack.pop_back(); }
  }

  void print(const char* title, std::size_t requests) const {
    std::fprintf(stderr, "# %s: self time per span name (ms per request)\n", title);
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, ns] : byName) rows.push_back({ns, name});
    std::sort(rows.rbegin(), rows.rend());
    for (const auto& [ns, name] : rows)
      std::fprintf(stderr, "#   %-22s %12.4f\n", name.c_str(),
                   ns / 1e6 / static_cast<double>(std::max<std::size_t>(requests, 1)));
    std::fprintf(stderr, "#   traced wall %.1f ms, unattributed %.4f, dropped %zu\n",
                 rootNs / 1e6, rootNs > 0 ? unattributedNs / rootNs : 0.0, dropped);
  }
};

/// Enables tracing from a clean slate with a large ring for the calling
/// thread.  When \p clientsFollow, runLoop's client threads allocate their
/// large rings next and then drop the capacity for engine threads.
void startTracing(bool clientsFollow) {
  obs::setTraceCapacity(kClientRing);
  obs::clearTrace();
  obs::setTraceEnabled(true);
  obs::traceInstant("bench.client");
  if (!clientsFollow) obs::setTraceCapacity(kWorkerRing);
}

void stopTracing() { obs::setTraceEnabled(false); }

// ------------------------------------------------------------------ replay

/// The replay's stand-in for the Analyzer's module cache: aggregated
/// models of always-active modules keyed by their exact canonical key, so
/// a what-if variant splices every unchanged module.
class ReplayModuleCache : public analysis::ModuleCache {
 public:
  void bind(const std::vector<analysis::ActivationContext>* contexts) {
    contexts_ = contexts;
  }

  std::optional<analysis::CachedModule> lookup(const dft::Dft& tree,
                                               dft::ElementId root) override {
    if (!cacheable(root)) return std::nullopt;
    const std::string key = dft::moduleKey(tree, root);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(key);
    if (it == models_.end()) return std::nullopt;
    return it->second;
  }

  void store(const dft::Dft& tree, dft::ElementId root,
             const ioimc::IOIMC& model, std::size_t steps) override {
    if (!cacheable(root)) return;
    std::string key = dft::moduleKey(tree, root);
    std::lock_guard<std::mutex> lock(mu_);
    models_.emplace(std::move(key), analysis::CachedModule{model, steps});
  }

 private:
  bool cacheable(dft::ElementId root) const {
    return contexts_ && root < contexts_->size() && (*contexts_)[root].alwaysActive;
  }

  const std::vector<analysis::ActivationContext>* contexts_ = nullptr;
  std::mutex mu_;  ///< store() runs on the engine's worker threads
  std::unordered_map<std::string, analysis::CachedModule> models_;
};

/// The traced replay: serves each request again through the public layer
/// functions (parse, static-layer detection, conversion, composition,
/// extraction, solvers), each call inside a span named for its layer, and
/// returns the flattened values for comparison with the Analyzer's.
/// Session replays keep their own tree memo and module cache, mirroring
/// the Analyzer's session caches.
class Replayer {
 public:
  explicit Replayer(bool memoize) : memoize_(memoize) {}

  std::vector<double> run(const Request& r) {
    obs::TraceSpan root("bench.replay", r.label);
    // Like a fresh Analyzer, a one-shot replay interns into a fresh table.
    if (!memoize_) symbols_ = makeSymbolTable();
    std::optional<dft::Dft> tree;
    std::uint64_t hash = 0;
    {
      obs::TraceSpan span("dft.parse");
      tree.emplace(dft::parseGalileo(r.galileo));
      hash = dft::canonicalHash(*tree);
    }
    const bool wantNumeric =
        !r.measures.empty() &&
        std::all_of(r.measures.begin(), r.measures.end(), [](const MeasureSpec& m) {
          return m.kind == MeasureKind::Unreliability ||
                 m.kind == MeasureKind::UnreliabilityBounds;
        });
    std::shared_ptr<Entry> entry = lookup(hash, wantNumeric);
    if (!entry) {
      entry = std::make_shared<Entry>();
      if (wantNumeric) entry->combo = numericPipeline(*tree);
      if (!entry->combo) entry->analysis = pipeline(*tree);
      if (memoize_) memo_[key(hash, entry->combo != nullptr)] = entry;
    }
    std::vector<double> out;
    for (const MeasureSpec& m : r.measures) solve(*entry, m, out);
    return out;
  }

  std::size_t extractedStates() const { return extractedStates_; }
  void resetCounts() { extractedStates_ = 0; }

 private:
  struct Entry {
    std::shared_ptr<const analysis::DftAnalysis> analysis;
    std::shared_ptr<const analysis::StaticCombination> combo;
    std::optional<analysis::Extraction> full;
  };

  static std::string key(std::uint64_t hash, bool numeric) {
    return hex64(hash) + (numeric ? ";nc=1" : ";nc=0");
  }

  std::shared_ptr<Entry> lookup(std::uint64_t hash, bool wantNumeric) {
    if (!memoize_) return nullptr;
    if (wantNumeric) {
      auto it = memo_.find(key(hash, true));
      if (it != memo_.end()) return it->second;
    }
    auto it = memo_.find(key(hash, false));
    return it == memo_.end() ? nullptr : it->second;
  }

  std::shared_ptr<const analysis::DftAnalysis> pipeline(const dft::Dft& tree) {
    analysis::ConversionOptions conversion;
    conversion.symbols = symbols_;
    std::optional<analysis::Community> community;
    {
      obs::TraceSpan span("converter.convert");
      community.emplace(analysis::convertDft(tree, conversion));
    }
    const bool repairable = community->repairable;
    const std::vector<analysis::ActivationContext> contexts = community->contexts;
    const analysis::EngineOptions engine;
    std::optional<analysis::EngineResult> composed;
    {
      obs::TraceSpan span("engine.compose");
      modules_.bind(&contexts);
      composed.emplace(analysis::composeCommunity(std::move(*community), tree, engine,
                                                  memoize_ ? &modules_ : nullptr));
      modules_.bind(nullptr);
    }
    std::optional<analysis::Extraction> absorbed;
    {
      obs::TraceSpan span("extract");
      ioimc::IOIMC m = ioimc::makeLabelAbsorbing(composed->model, analysis::kDownLabel);
      m = ioimc::aggregate(m, engine.weak);
      absorbed.emplace(analysis::extract(m, analysis::kDownLabel));
    }
    extractedStates_ += absorbed->mdp.numStates();
    analysis::DftAnalysis result{std::move(composed->model),
                                 std::move(composed->stats),
                                 std::move(*absorbed),
                                 false,
                                 repairable,
                                 nullptr,
                                 nullptr};
    result.nondeterministic = !result.absorbed.deterministic;
    return std::make_shared<const analysis::DftAnalysis>(std::move(result));
  }

  /// The static-layer numeric path: one pipeline per distinct frontier
  /// module shape, then the layer's structure function.  Null when the
  /// layer is ineligible or a module is nondeterministic.
  std::shared_ptr<const analysis::StaticCombination> numericPipeline(
      const dft::Dft& tree) {
    dft::StaticLayer layer;
    std::vector<analysis::ActivationContext> contexts;
    {
      obs::TraceSpan span("dft.modularize");
      layer = dft::detectStaticLayer(tree);
      if (!layer.eligible) return nullptr;
      contexts = analysis::activationContexts(tree);
    }
    for (dft::ElementId root : layer.moduleRoots)
      if (root >= contexts.size() || !contexts[root].alwaysActive) return nullptr;
    std::vector<analysis::StaticCombination::SolvedChain> chains;
    std::vector<analysis::NumericModule> modules;
    std::unordered_map<std::string, std::size_t> byShape;
    for (dft::ElementId root : layer.moduleRoots) {
      std::string shape;
      std::optional<dft::Dft> sub;
      {
        obs::TraceSpan span("dft.modularize");
        shape = dft::moduleShape(tree, root).key;
        if (!byShape.count(shape)) sub.emplace(dft::extractModule(tree, root));
      }
      if (sub) {
        std::shared_ptr<const analysis::DftAnalysis> a = pipeline(*sub);
        if (a->nondeterministic) return nullptr;
        byShape[shape] = chains.size();
        chains.push_back({shape, std::move(a)});
      }
      const std::size_t index = byShape[shape];
      const ioimc::IOIMC& model = chains[index].analysis->closedModel;
      modules.push_back({tree.element(root).name, index, model.numStates(),
                         model.numTransitions()});
    }
    obs::TraceSpan span("static_combine");
    return std::make_shared<const analysis::StaticCombination>(
        tree, layer, std::move(chains), std::move(modules));
  }

  const analysis::Extraction& fullExtraction(Entry& e) {
    if (!e.full) {
      obs::TraceSpan span("extract");
      e.full.emplace(analysis::extract(e.analysis->closedModel, analysis::kDownLabel));
      extractedStates_ += e.full->mdp.numStates();
    }
    return *e.full;
  }

  void solve(Entry& e, const MeasureSpec& m, std::vector<double>& out) {
    const std::string down = analysis::kDownLabel;
    auto bounds = [&](double t) {
      obs::TraceSpan span("ctmdp.bounds");
      const ctmdp::ReachabilityBounds b =
          ctmdp::reachabilityBounds(e.analysis->absorbed.mdp, t);
      out.push_back(b.lower);
      out.push_back(b.upper);
    };
    switch (m.kind) {
      case MeasureKind::Unreliability:
      case MeasureKind::UnreliabilityBounds: {
        const bool asBounds = m.kind == MeasureKind::UnreliabilityBounds;
        if (e.combo) {
          std::vector<std::vector<double>> curves(e.combo->chains().size());
          {
            obs::TraceSpan span("ctmc.transient");
            for (std::size_t i = 0; i < curves.size(); ++i)
              curves[i] = e.combo->solveCurve(i, m.times);
          }
          std::vector<double> values;
          {
            obs::TraceSpan span("static_combine");
            values = e.combo->evaluate(
                m.times, [&](std::size_t i, const std::vector<double>&) { return curves[i]; });
          }
          for (double v : values) {
            out.push_back(v);
            if (asBounds) out.push_back(v);
          }
        } else if (asBounds || e.analysis->nondeterministic) {
          for (double t : m.times) bounds(t);
        } else {
          obs::TraceSpan span("ctmc.transient");
          const std::vector<double> v =
              ctmc::labelCurve(e.analysis->absorbed.chain, down, m.times);
          out.insert(out.end(), v.begin(), v.end());
        }
        break;
      }
      case MeasureKind::Unavailability: {
        const analysis::Extraction& full = fullExtraction(e);
        obs::TraceSpan span("ctmc.transient");
        for (double t : m.times)
          out.push_back(ctmc::probabilityOfLabelAt(full.chain, down, t));
        break;
      }
      case MeasureKind::SteadyStateUnavailability: {
        const analysis::Extraction& full = fullExtraction(e);
        obs::TraceSpan span("ctmc.steady");
        out.push_back(ctmc::steadyStateLabelProbability(full.chain, down));
        break;
      }
      case MeasureKind::Mttf: {
        obs::TraceSpan span("ctmc.mttf");
        const ctmc::MttfResult r =
            ctmc::expectedTimeToLabel(e.analysis->absorbed.chain, down);
        out.push_back(r.finite ? r.value : HUGE_VAL);
        break;
      }
    }
  }

  bool memoize_;
  SymbolTablePtr symbols_ = makeSymbolTable();
  std::unordered_map<std::string, std::shared_ptr<Entry>> memo_;
  ReplayModuleCache modules_;
  std::size_t extractedStates_ = 0;
};

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + num(v) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string references;
  std::string writeReferences;
  bool corruptReference = false;
  bool fingerprints = false;
  /// Self-test mode: one set-up, laps cut to kQuickLap requests, and the
  /// untraced run serves a single lap.
  bool quick = false;
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
};

std::vector<const Request*> distinctRequests(const Workload& w) {
  std::vector<const Request*> out;
  std::set<std::string> seen;
  for (const auto& lap : w.laps)
    for (const Request& r : lap)
      if (seen.insert(r.key).second) out.push_back(&r);
  return out;
}

void printProvenance(const Options& o, const Workload& w,
                     std::size_t attempted) {
  std::string out = "{\"provenance\": {";
  out += "\"workload\": \"" + w.name + "\"";
  out += ", \"seed\": " + std::to_string(o.seed);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"clients\": " + std::to_string(w.clients);
  out += ", \"commit\": \"" + o.commit + "\"";
  out += ", \"source_digest\": \"" + o.sourceDigest + "\"";
  out += ", \"compiler\": \"" REPOBENCH_COMPILER "\"";
  out += ", \"build_type\": \"" REPOBENCH_BUILD_TYPE "\"";
  out += ", \"trace\": " + std::to_string(o.trace);
  out += ", \"lap_requests\": " + std::to_string(w.laps.front().size());
  out += ", \"requests\": " + std::to_string(attempted);
  // Canonical fingerprint of every distinct input the run can serve.
  out += ", \"inputs\": [";
  bool first = true;
  std::set<std::uint64_t> seen;
  for (const Request* r : distinctRequests(w)) {
    if (!seen.insert(r->hash).second) continue;
    out += (first ? "\"" : ", \"") + r->label + "#" + hex64(r->hash) + "\"";
    first = false;
  }
  out += "]}}";
  std::printf("%s\n", out.c_str());
}

References loadReferences(const std::string& path) {
  References refs;
  std::ifstream in(path);
  if (!in) throw Error("cannot read reference file '" + path + "'");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) throw Error("malformed reference line: " + line);
    Outcome o;
    const std::string rest = line.substr(tab + 1);
    if (rest == "trip") {
      o.kind = Outcome::Trip;
    } else {
      std::istringstream vs(rest);
      std::string tok;
      while (vs >> tok) o.values.push_back(tok == "inf" ? HUGE_VAL : std::strtod(tok.c_str(), nullptr));
    }
    refs.byKey[line.substr(0, tab)] = std::move(o);
  }
  refs.loaded = true;
  return refs;
}

/// Self-test hook: moves the reference of \p key far outside the band.
void corruptReference(References& refs, const std::string& key) {
  auto it = refs.byKey.find(key);
  if (it == refs.byKey.end()) throw Error("no reference to corrupt for " + key);
  Outcome& o = it->second;
  if (o.kind == Outcome::Trip)
    o = {Outcome::Values, {0.5}, {}};
  else
    o.values.front() = o.values.front() * 1.001 + 1e-6;
}

/// The paper's anchors: CAS unreliability 0.6579 and CPS 0.00135 at t=1.
/// The paper prints truncated digits, so a value passes when it lies in
/// [printed, printed + one unit of the last printed digit).
std::string checkAnchors(const References& refs) {
  struct Anchor {
    const char* label;
    double value;
    double tol;
  };
  const Anchor anchors[] = {{"cas", 0.6579, 1e-4}, {"cps", 0.00135, 1e-5}};
  for (const Anchor& a : anchors) {
    bool found = false;
    for (const auto& [key, o] : refs.byKey) {
      if (key.rfind(std::string(a.label) + "#", 0) != 0) continue;
      // Grid {0.5, 1, 2}: t=1 is the second value.
      if (o.values.size() != 3) continue;
      found = true;
      if (o.values[1] < a.value || o.values[1] >= a.value + a.tol)
        return std::string(a.label) + " U(1)=" + num(o.values[1]) +
               " misses the paper's " + num(a.value);
    }
    if (!found) return std::string("no reference for ") + a.label;
  }
  return {};
}

int writeReferences(const Options& o) {
  Workload w = setUp(o.workload, kDefaultSeed);
  std::ofstream out(o.writeReferences);
  out << "# repobench reference values: workload " << w.name
      << ", seed " << kDefaultSeed << "\n"
      << "# key<TAB>values (%.17g; bounds as lower upper pairs) or trip\n";
  References none;
  for (const Request* r : distinctRequests(w)) {
    Served s = serve(w, *r, none);
    if (s.sample.failed) throw Error("reference run failed on " + r->label);
    out << r->key << '\t';
    if (s.outcome.kind == Outcome::Trip) {
      out << "trip";
    } else {
      for (std::size_t i = 0; i < s.outcome.values.size(); ++i)
        out << (i ? " " : "") << (std::isinf(s.outcome.values[i]) ? std::string("inf")
                                                                  : num(s.outcome.values[i]));
    }
    out << '\n';
  }
  return 0;
}

// -------------------------------------------------------------- the runs

Workload setUp(const Options& o) {
  Workload w = setUp(o.workload, o.seed);
  if (o.quick)
    for (std::vector<Request>& lap : w.laps)
      lap.resize(std::min(lap.size(), kQuickLap));
  return w;
}

int runUntraced(const Options& o, const References& refs, bool anchorsOk) {
  // The median of several set-ups; the session's is the Analyzer warm-up.
  // A one-shot set-up takes milliseconds: an untimed first one pages in
  // code and heap, and many timed ones give a steady median.
  std::vector<double> setups;
  Workload w;
  const bool oneShot = o.workload != "session";
  const int untimed = oneShot && !o.quick ? 1 : 0;
  const int setupRepeats = o.quick ? 1 : oneShot ? untimed + 31 : 3;
  for (int i = 0; i < setupRepeats; ++i) {
    w = Workload{};  // release the previous session before the next set-up
    releaseFreedMemory();
    const Clock::time_point t0 = Clock::now();
    w = setUp(o);
    if (i >= untimed) setups.push_back(secondsSince(t0));
  }
  LoopOptions loop;
  const std::size_t lapLen = w.laps.front().size();
  loop.laps = o.quick ? 1
                      : std::max({kMinLaps, (kMinSamples + lapLen - 1) / lapLen,
                                  static_cast<std::size_t>(
                                      std::llround(o.seconds * w.lapsPerSecond))});
  const Pass pass = runLoop(w, refs, loop);
  std::vector<double> latencies;
  std::size_t failed = 0, tripped = 0;
  for (const Sample& s : pass.samples) {
    latencies.push_back(s.seconds * 1e3);
    failed += s.failed;
    tripped += s.tripped;
  }
  const std::size_t n = pass.samples.size();
  // Median latency per input family, for telling which rows moved.
  std::map<std::string, std::vector<double>> byLabel;
  for (const Sample& s : pass.samples)
    byLabel[s.request->label].push_back(s.seconds * 1e3);
  for (const auto& [label, ms] : byLabel)
    std::fprintf(stderr, "#   %-20s %4zu requests, median %10.3f ms\n",
                 label.c_str(), ms.size(), median(ms));
  printProvenance(o, w, n);
  std::fprintf(stderr,
               "repobench: %s seed %llu: %zu requests in %zu laps, %.3f s, "
               "%zu tripped, %zu failed, latency samples %zu (%zu beyond p90)\n",
               w.name.c_str(), static_cast<unsigned long long>(o.seed), n,
               pass.laps, pass.wallSeconds, tripped, failed, n,
               n - static_cast<std::size_t>(std::ceil(0.9 * n)));
  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"throughput_rps", median(pass.lapThroughputs()), "1/s"},
      {"latency_p50_ms", quantile(latencies, 0.5), "ms"},
      {"latency_p90_ms", quantile(latencies, 0.9), "ms"},
      {"ok_frac", static_cast<double>(n - failed - tripped) / n, "fraction"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
      {"cpu_per_req_ms", pass.cpuSeconds * 1e3 / n, "ms"},
  };
  printResult(failed == 0 && anchorsOk, n, failed, metrics);
  return 0;
}

int runTraced(const Options& o, const References& refs, bool anchorsOk) {
  Workload w = setUp(o);
  // One lap each: a warm-up, then untraced, traced, untraced.  The traced
  // lap's wall time against the mean of its neighbours is the tracing
  // overhead.  Session laps differ only in their what-if variants, so no
  // pass reads another pass's cache inserts.
  SelfTimes program;
  const bool single = w.clients <= 1;
  auto drain = [&] {
    program.add(obs::snapshotTrace(), "bench.request");
    obs::clearTrace();
  };
  LoopOptions loop;
  const Pass warmup = runLoop(w, refs, loop);
  loop.firstLap = 1;
  const Pass before = runLoop(w, refs, loop);
  loop.firstLap = 2;
  loop.keepLap = true;
  if (single) loop.afterRequest = drain;
  startTracing(!single);
  const Pass traced = runLoop(w, refs, loop);
  stopTracing();
  if (!single) drain();
  loop = LoopOptions{};
  loop.firstLap = 3;
  const Pass after = runLoop(w, refs, loop);

  // Replay the traced lap through the layer functions (single-threaded,
  // so the trace drains after every request).
  Replayer replayer(/*memoize=*/!w.freshAnalyzer);
  for (const Request& r : w.warmup) replayer.run(r);
  replayer.resetCounts();
  const std::vector<Request>& lap = w.laps[2 % w.laps.size()];
  startTracing(false);
  SelfTimes layers;
  std::size_t failed = 0, replayed = 0;
  for (const Pass* p : {&warmup, &before, &traced, &after})
    for (const Sample& s : p->samples) failed += s.failed;
  for (std::size_t i = 0; i < lap.size(); ++i) {
    const Served& served = traced.firstLap[i];
    if (served.outcome.kind != Outcome::Values || served.sample.failed) continue;
    std::vector<double> values;
    std::string problem;
    try {
      values = replayer.run(lap[i]);
    } catch (const std::exception& e) {
      problem = e.what();
    }
    if (problem.empty())
      problem = compareToReference({Outcome::Values, values, {}}, served.outcome);
    if (!problem.empty()) {
      ++failed;
      std::fprintf(stderr, "repobench: replay of %s disagrees: %s\n",
                   lap[i].label.c_str(), problem.c_str());
    }
    ++replayed;
    layers.add(obs::snapshotTrace(), "bench.replay");
    obs::clearTrace();
  }
  stopTracing();

  // Counts from the traced Analyzer pass.
  std::size_t steps = 0, fallbacks = 0, reused = 0, applied = 0, trips = 0;
  std::size_t peak = 0, treeHits = 0, treeProbes = 0, moduleHits = 0,
              moduleProbes = 0, saved = 0, joins = 0;
  for (const Served& s : traced.firstLap) {
    if (s.outcome.kind == Outcome::Trip) ++trips;
    if (!s.report) continue;
    const analysis::CacheStats& c = s.report->cache;
    steps += c.stepsRun;
    treeHits += c.treeHits;
    treeProbes += c.treeHits + c.treeMisses;
    moduleHits += c.moduleHits;
    moduleProbes += c.moduleHits + c.moduleMisses;
    saved += c.stepsSaved;
    joins += c.inflightJoins;
    if (s.report->fromCache) continue;
    const analysis::CompositionStats& st = s.report->stats();
    peak = std::max(peak, st.peakComposedStates);
    fallbacks += st.onTheFlyFallbacks;
    reused += st.symmetricModulesReused;
    applied += s.report->analysis->staticCombo != nullptr;
  }
  auto ratio = [](std::size_t a, std::size_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };

  const std::size_t n = lap.size();
  program.print("traced Analyzer lap", n);
  layers.print("replay through the layer functions", replayed);
  std::vector<Metric> metrics;
  std::set<std::string> layerMetrics;
  for (const auto& [span, metric] : kLayers) layerMetrics.insert(metric);
  for (const std::string& name : layerMetrics) {
    auto it = layers.byLayer.find(name);
    const double ns = it == layers.byLayer.end() ? 0.0 : it->second;
    metrics.push_back({name, ns / 1e6 / std::max<std::size_t>(replayed, 1), "ms"});
  }
  metrics.push_back({"engine.steps", static_cast<double>(steps), "count"});
  metrics.push_back({"engine.peak_live_states", static_cast<double>(peak), "count"});
  metrics.push_back({"engine.otf_fallbacks", static_cast<double>(fallbacks), "count"});
  metrics.push_back({"engine.symmetry_reused", static_cast<double>(reused), "count"});
  metrics.push_back({"static_combine.applied", static_cast<double>(applied), "count"});
  metrics.push_back({"extract.states", static_cast<double>(replayer.extractedStates()), "count"});
  metrics.push_back({"analyzer.tree_hit_ratio", ratio(treeHits, treeProbes), "fraction"});
  metrics.push_back({"analyzer.module_hit_ratio", ratio(moduleHits, moduleProbes), "fraction"});
  metrics.push_back({"analyzer.steps_saved", static_cast<double>(saved), "count"});
  metrics.push_back({"analyzer.inflight_joins", static_cast<double>(joins), "count"});
  metrics.push_back({"budget.trips", static_cast<double>(trips), "count"});
  metrics.push_back({"trace.unattributed_frac",
                     program.rootNs > 0 ? program.unattributedNs / program.rootNs : 0.0,
                     "fraction"});
  metrics.push_back(
      {"trace.overhead_frac",
       traced.wallSeconds / (0.5 * (before.wallSeconds + after.wallSeconds)) - 1.0,
       "fraction"});
  const std::size_t served = warmup.samples.size() + before.samples.size() +
                             traced.samples.size() + after.samples.size();
  printProvenance(o, w, served);
  printResult(failed == 0 && anchorsOk, served + replayed, failed, metrics);
  return 0;
}

int runFingerprints(const Options& o) {
  Workload w = buildWorkload(o.workload, o.seed);
  std::string out = "{\"fingerprints\": [";
  bool first = true;
  for (const Request* r : distinctRequests(w)) {
    out += (first ? "\"" : ", \"") + r->key + "\"";
    first = false;
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = std::stoi(value());
    else if (a == "--references") o.references = value();
    else if (a == "--write-references") o.writeReferences = value();
    else if (a == "--corrupt-reference") o.corruptReference = true;
    else if (a == "--fingerprints") o.fingerprints = true;
    else if (a == "--quick") o.quick = true;
    else if (a == "--commit") o.commit = value();
    else if (a == "--source-digest") o.sourceDigest = value();
    else throw Error("unknown argument " + a);
  }
  if (o.workload.empty()) throw Error("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parseArgs(argc, argv);
    if (o.fingerprints) return runFingerprints(o);
    if (!o.writeReferences.empty()) return writeReferences(o);
    References refs;
    bool anchorsOk = true;
    if (o.seed == kDefaultSeed) {
      if (o.references.empty()) throw Error("--references is required at the default seed");
      refs = loadReferences(o.references);
      if (o.corruptReference)
        corruptReference(refs, buildWorkload(o.workload, o.seed).laps[0][0].key);
      if (o.workload == "corpus") {
        const std::string problem = checkAnchors(refs);
        if (!problem.empty()) {
          std::fprintf(stderr, "repobench: reference anchor: %s\n", problem.c_str());
          anchorsOk = false;
        }
      }
    }
    return o.trace ? runTraced(o, refs, anchorsOk) : runUntraced(o, refs, anchorsOk);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench: %s\n", e.what());
    return 2;
  }
}
