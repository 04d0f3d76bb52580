/// \file dftimc.cpp
/// Command-line front end: Galileo DFT in, reliability measures out.
/// A thin shell over the Analyzer session API (analysis/analyzer.hpp).
///
///   dftimc [options] <model.dft>
///     --time T          mission time (default 1.0; repeatable)
///     --bounds          print CTMDP min/max bounds instead of failing on
///                       nondeterministic models
///     --unavailability  also print unavailability (repairable trees)
///     --steady-state    also print steady-state unavailability
///     --mttf            also print the mean time to failure
///     --modular         also run the DIFTree-style modular baseline
///     --monolithic      also run the DIFTree-style whole-tree baseline
///     --simulate [N]    also run a Monte-Carlo simulation (N or --runs
///                       trajectories, default 10000); prints a Wilson 95%
///                       interval per time point and the seed in the
///                       report header (per-run RNG streams, so the
///                       printed seed replays the estimates exactly)
///     --runs N          Monte-Carlo trajectory count (implies --simulate)
///     --seed S          Monte-Carlo master seed (default 42)
///     --jobs N          worker threads for module aggregation; each merge
///                       step runs on one thread (default: one per
///                       hardware thread; 1 = fully sequential;
///                       measures are bit-identical for every N)
///     --symmetry on|off symmetry reduction: aggregate one representative
///                       per module shape and instantiate isomorphic
///                       siblings by action renaming (default: on;
///                       measures are bit-identical either way)
///     --static-combine on|off
///                       numeric combination of the top static layer:
///                       solve independent modules as CTMCs and fold their
///                       unreliability curves through a BDD instead of
///                       composing the joint product (default: on; applies
///                       to unreliability measures on eligible trees, falls
///                       back to composition otherwise; forced off when
///                       --dot/--aut need the composed model)
///     --stats           print composition statistics; traces the request
///                       to print its phase times (the inclusive seconds
///                       of the parse/convert/compose/extract/measure
///                       spans) and each engine's stage self times: the
///                       classic chain's classic.compose/collapse/
///                       aggregate spans and the fused engine's
///                       otf.explore/refine/collapse/finish spans
///     --deadline SEC    resource budget: give up on a request after SEC
///                       seconds of wall clock, checked cooperatively at
///                       every hot-loop checkpoint (compose expansion,
///                       refinement passes, the fused engine's frontier,
///                       uniformization sweeps); an over-budget request
///                       unwinds cleanly with a typed error and leaves
///                       every cache consistent
///     --max-live-states N
///                       resource budget: abort a request whose live state
///                       count at any checkpoint exceeds N; a merge whose
///                       classic product outgrows N runs the fused
///                       engine, whose live region can stay under N
///     --store DIR       persistent quotient store: read aggregated
///                       whole-tree and module quotients from DIR before
///                       composing, publish fresh ones back (created when
///                       the session starts; a fleet of processes may share
///                       one directory; all failures degrade to cold
///                       analysis; an empty DIR is a usage error)
///     --dot FILE        write the final aggregated I/O-IMC as Graphviz
///     --aut FILE        write it in Aldebaran format
///     --trace FILE      export a Chrome trace-event JSON file (loadable in
///                       Perfetto / chrome://tracing) with one span per
///                       pipeline stage — parse, modularize, per-module
///                       aggregation, every compose step's fused stages,
///                       CTMC solve, each measure — grouped per request;
///                       budget trips and cache probes appear as instants
///     --metrics-json FILE
///                       dump the process-wide metrics registry (counters,
///                       gauges, latency histograms) as JSON at exit
///     --slow-threshold SEC
///                       serve mode: log any request slower than SEC
///                       seconds to stderr with its stable request id
///                       (default 1.0; 0 disables the slow log)
///
/// Wherever a model path is expected (the positional argument or a serve
/// request line), `corpus:NAME` refers to the built-in paper corpus
/// instead of a file: `corpus:cas`, `corpus:cps`, `corpus:hecs`, or a
/// parametric family instance such as `corpus:cps_8x10` (cascaded PANDs
/// over 8 modules of 10 basic events), `corpus:pand_4x3`,
/// `corpus:sensors_4x2`, `corpus:voter_4x2`.
///
/// Every requested measure — including the baselines and the simulator —
/// is evaluated at every --time point.  Numeric flags must be whole
/// numbers (or, for times and seconds, whole decimal values); --time must
/// be finite and non-negative.  Anything else is a usage error (exit 2).
///
/// Service mode:
///
///   dftimc --serve [--workers N] [measure/engine options] [--store DIR]
///
/// reads newline-delimited requests from stdin — one request per line,
/// `<model.dft> [time]...` (bare numbers override the --time grid; blank
/// lines and `#` comments are skipped) — serves them concurrently over one
/// shared Analyzer session on N worker threads (default: one per hardware
/// thread), prints the results in input order, and ends with a summary of
/// the session's cache and store counters.  A request that misses the tree
/// cache computes its analysis, even when a concurrent identical request
/// is computing the same one; both print the same values.  With --store, a
/// warm store turns repeated sweeps into pure record reads.
///
/// Serve mode is fault-isolated: every request runs inside its own error
/// boundary, so a malformed line, an unreadable model, an over-budget
/// analysis (--deadline / --max-live-states apply per request) or any
/// other per-request failure claims only its own slot — every healthy
/// request is still served, and the summary counts completed, over-budget
/// and failed requests.  The exit status is nonzero iff any slot failed.
///
/// Every serve slot carries a stable request id ([rN] in the slot header,
/// in error slots, in slow-request log lines, and as the "pid" of the
/// request's spans in a --trace export), and the summary reports exact
/// p50/p95/p99 request latencies (per-phase and per-stage times come from
/// --trace).

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/static_combine.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/text.hpp"
#include "ctmc/transient.hpp"
#include "dft/corpus.hpp"
#include "dft/galileo.hpp"
#include "diftree/modular.hpp"
#include "diftree/monolithic.hpp"
#include "ioimc/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simulation/simulator.hpp"

namespace {

struct CliOptions {
  std::string modelPath;
  std::vector<double> times;
  bool bounds = false;
  bool unavailability = false;
  bool steadyState = false;
  bool mttf = false;
  bool modular = false;
  bool monolithic = false;
  bool stats = false;
  bool symmetry = true;
  bool staticCombine = true;
  bool serve = false;
  unsigned jobs = 0;     ///< 0 = hardware_concurrency
  unsigned workers = 0;  ///< serve mode session threads; 0 = hardware
  double deadline = 0.0;          ///< per-request wall-clock budget; 0 = off
  std::size_t maxLiveStates = 0;  ///< per-request live-state cap; 0 = off
  bool simulate = false;
  std::uint64_t simulateRuns = 10'000;
  std::uint64_t simulateSeed = 42;
  std::string storeDir;
  std::string dotPath;
  std::string autPath;
  std::string tracePath;        ///< Chrome trace-event JSON export; "" = off
  std::string metricsJsonPath;  ///< metrics registry JSON dump; "" = off
  double slowThreshold = 1.0;   ///< serve slow-request log floor; 0 = off
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--time T]... [--bounds] [--unavailability] "
               "[--steady-state] [--mttf]\n"
               "          [--modular] [--monolithic] [--simulate [N]] "
               "[--runs N] [--seed S]\n"
               "          [--jobs N] [--symmetry on|off]\n"
               "          [--static-combine on|off] [--stats]\n"
               "          [--deadline SEC] [--max-live-states N]\n"
               "          [--store DIR] [--dot FILE] [--aut FILE]\n"
               "          [--trace FILE] [--metrics-json FILE] "
               "<model.dft | corpus:NAME>\n"
               "       %s --serve [--workers N] [--slow-threshold SEC] "
               "[options]\n"
               "          (requests on stdin: "
               "'<model.dft | corpus:NAME> [time]...')\n",
               argv0, argv0);
  std::exit(2);
}

/// Parses the whole of \p text as a T; an empty token, trailing characters
/// or an out-of-range value is a usage error.
template <typename T>
T parseNumber(const std::string& text, const char* argv0) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) usage(argv0);
  return value;
}

CliOptions parseArgs(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto number = [&]<typename T>(T& out) {
      out = parseNumber<T>(next(), argv[0]);
    };
    if (arg == "--time") {
      const double t = parseNumber<double>(next(), argv[0]);
      if (!std::isfinite(t) || t < 0.0) usage(argv[0]);
      opts.times.push_back(t);
    } else if (arg == "--bounds") {
      opts.bounds = true;
    } else if (arg == "--unavailability") {
      opts.unavailability = true;
    } else if (arg == "--steady-state") {
      opts.steadyState = true;
    } else if (arg == "--mttf") {
      opts.mttf = true;
    } else if (arg == "--modular") {
      opts.modular = true;
    } else if (arg == "--monolithic") {
      opts.monolithic = true;
    } else if (arg == "--stats") {
      opts.stats = true;
    } else if (arg == "--simulate") {
      opts.simulate = true;
      // Back-compat: a bare run count may still follow (`--simulate 5000`);
      // the flag form composes with --runs / --seed instead.
      if (i + 1 < argc && argv[i + 1][0] != '\0' &&
          std::string(argv[i + 1]).find_first_not_of("0123456789") ==
              std::string::npos) {
        number(opts.simulateRuns);
        if (opts.simulateRuns == 0) usage(argv[0]);
      }
    } else if (arg == "--runs") {
      opts.simulate = true;
      number(opts.simulateRuns);
      if (opts.simulateRuns == 0) usage(argv[0]);
    } else if (arg == "--seed") {
      number(opts.simulateSeed);
    } else if (arg == "--jobs") {
      number(opts.jobs);
      if (opts.jobs == 0) usage(argv[0]);
    } else if (arg == "--serve") {
      opts.serve = true;
    } else if (arg == "--workers") {
      number(opts.workers);
      if (opts.workers == 0) usage(argv[0]);
    } else if (arg == "--deadline") {
      number(opts.deadline);
      if (!(opts.deadline > 0.0)) usage(argv[0]);
    } else if (arg == "--max-live-states") {
      number(opts.maxLiveStates);
      if (opts.maxLiveStates == 0) usage(argv[0]);
    } else if (arg == "--store") {
      opts.storeDir = next();
      if (opts.storeDir.empty()) usage(argv[0]);
    } else if (arg == "--symmetry") {
      std::string v = next();
      if (v == "on")
        opts.symmetry = true;
      else if (v == "off")
        opts.symmetry = false;
      else
        usage(argv[0]);
    } else if (arg == "--static-combine") {
      std::string v = next();
      if (v == "on")
        opts.staticCombine = true;
      else if (v == "off")
        opts.staticCombine = false;
      else
        usage(argv[0]);
    } else if (arg == "--dot") {
      opts.dotPath = next();
    } else if (arg == "--aut") {
      opts.autPath = next();
    } else if (arg == "--trace") {
      opts.tracePath = next();
      if (opts.tracePath.empty()) usage(argv[0]);
    } else if (arg == "--metrics-json") {
      opts.metricsJsonPath = next();
      if (opts.metricsJsonPath.empty()) usage(argv[0]);
    } else if (arg == "--slow-threshold") {
      number(opts.slowThreshold);
      if (!(opts.slowThreshold >= 0.0)) usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else if (opts.modelPath.empty()) {
      opts.modelPath = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (opts.serve) {
    // Service mode takes its models from stdin; the one-shot extras that
    // need a positional model (baselines, simulation, exports) don't mix.
    if (!opts.modelPath.empty() || opts.modular || opts.monolithic ||
        opts.simulate || !opts.dotPath.empty() || !opts.autPath.empty())
      usage(argv[0]);
  } else if (opts.modelPath.empty()) {
    usage(argv[0]);
  }
  if (opts.times.empty()) opts.times.push_back(1.0);
  return opts;
}

/// Resolves a model reference to Galileo text.  `corpus:NAME` names a
/// built-in model (paper examples or an AxB instance of a parametric
/// family, printed through the faithful Galileo round-trip); anything else
/// is a file path.
std::string resolveModelText(const std::string& ref) {
  namespace corpus = imcdft::dft::corpus;
  if (ref.rfind("corpus:", 0) != 0) return imcdft::readFile(ref);
  const std::string name = ref.substr(7);
  if (name == "cas") return corpus::galileoCas();
  if (name == "cps") return corpus::galileoCps();
  if (name == "hecs") return corpus::galileoHecs();
  // Family instances: `<family>_<A>x<B>`, both dimensions in [1, INT_MAX].
  auto dims = [&name](const char* prefix, int& a, int& b) {
    if (name.rfind(prefix, 0) != 0) return false;
    const char* s = name.c_str() + std::strlen(prefix);
    char* end = nullptr;
    const long x = std::strtol(s, &end, 10);
    if (end == s || *end != 'x' || x <= 0 || x > INT_MAX) return false;
    s = end + 1;
    const long y = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || y <= 0 || y > INT_MAX) return false;
    a = static_cast<int>(x);
    b = static_cast<int>(y);
    return true;
  };
  int a = 0, b = 0;
  if (dims("cps_", a, b))
    return imcdft::dft::printGalileo(corpus::cascadedPands(a, b));
  if (dims("pand_", a, b))
    return imcdft::dft::printGalileo(corpus::cascadedPand(a, b));
  if (dims("sensors_", a, b))
    return imcdft::dft::printGalileo(corpus::sensorBanks(a, b));
  if (dims("voter_", a, b))
    return imcdft::dft::printGalileo(corpus::voterFarm(a, b));
  throw imcdft::Error("unknown corpus model '" + name +
                      "' (try cas, cps, hecs, or a family instance such as "
                      "cps_8x10, pand_4x3, sensors_4x2, voter_4x2)");
}

/// End-of-run exports: the Chrome trace (--trace) and the metrics registry
/// dump (--metrics-json).  Called after all worker threads have joined, as
/// the trace snapshot requires.  Best-effort: an unwritable path warns on
/// stderr without changing the exit status.
void writeObservabilityOutputs(const CliOptions& opts) {
  if (!opts.tracePath.empty()) {
    std::ofstream out(opts.tracePath);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write trace file '%s'\n",
                   opts.tracePath.c_str());
    } else {
      const imcdft::obs::TraceWriteStats w = imcdft::obs::writeChromeTrace(out);
      std::fprintf(stderr,
                   "trace: %zu event(s) from %zu span(s), %zu dropped -> %s\n",
                   w.events, w.spans, w.dropped, opts.tracePath.c_str());
    }
  }
  if (!opts.metricsJsonPath.empty()) {
    std::ofstream out(opts.metricsJsonPath);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write metrics file '%s'\n",
                   opts.metricsJsonPath.c_str());
    } else {
      imcdft::obs::MetricsRegistry::global().writeJson(out);
      out << '\n';
    }
  }
}

const char* severityTag(imcdft::analysis::Severity s) {
  switch (s) {
    case imcdft::analysis::Severity::Info: return "note";
    case imcdft::analysis::Severity::Warning: return "warning";
    case imcdft::analysis::Severity::Error: return "error";
  }
  return "?";
}

/// The engine/measure knobs shared by the one-shot and serve paths.
void configureRequest(imcdft::analysis::AnalysisRequest& request,
                      const CliOptions& opts,
                      const std::vector<double>& times) {
  namespace analysis = imcdft::analysis;
  request.options.engine.numThreads = opts.jobs;
  request.options.engine.symmetry = opts.symmetry;
  request.options.engine.staticCombine = opts.staticCombine;
  request.budget.deadlineSeconds = opts.deadline;
  request.budget.maxLiveStates = opts.maxLiveStates;
  if (opts.bounds)
    request.measure(analysis::MeasureSpec::unreliabilityBounds(times));
  else
    request.measure(analysis::MeasureSpec::unreliability(times));
  if (opts.unavailability)
    request.measure(analysis::MeasureSpec::unavailability(times));
  if (opts.steadyState)
    request.measure(analysis::MeasureSpec::steadyStateUnavailability());
  if (opts.mttf) request.measure(analysis::MeasureSpec::mttf());
}

/// Prints every measure of \p report; returns false when any failed.
bool printMeasureResults(const imcdft::analysis::AnalysisReport& report) {
  namespace analysis = imcdft::analysis;
  bool allOk = true;
  for (const analysis::MeasureResult& m : report.measures) {
    if (!m.ok) {
      allOk = false;
      std::fprintf(stderr, "error: %s: %s\n",
                   analysis::measureKindName(m.spec.kind), m.error.c_str());
      continue;
    }
    switch (m.spec.kind) {
      case analysis::MeasureKind::Unreliability:
      case analysis::MeasureKind::UnreliabilityBounds:
        for (std::size_t i = 0; i < m.spec.times.size(); ++i) {
          if (!m.bounds.empty())
            std::printf("unreliability in [%.17g, %.17g] at t=%g\n",
                        m.bounds[i].lower, m.bounds[i].upper,
                        m.spec.times[i]);
          else
            std::printf("unreliability      %.17g at t=%g\n", m.values[i],
                        m.spec.times[i]);
        }
        break;
      case analysis::MeasureKind::Unavailability:
        for (std::size_t i = 0; i < m.spec.times.size(); ++i)
          std::printf("unavailability     %.17g at t=%g\n", m.values[i],
                      m.spec.times[i]);
        break;
      case analysis::MeasureKind::SteadyStateUnavailability:
        std::printf("steady-state unavailability %.17g\n", m.values[0]);
        break;
      case analysis::MeasureKind::Mttf:
        std::printf("mean time to failure %.17g\n", m.values[0]);
        break;
    }
  }
  return allOk;
}

/// Service mode: newline-delimited requests on stdin, served concurrently
/// over one shared Analyzer session, results in input order, then a
/// session summary (cache and store counters).
int runServe(const CliOptions& opts) {
  namespace analysis = imcdft::analysis;
  namespace obs = imcdft::obs;
  using imcdft::Error;

  // One slot per meaningful input line, in order; lines that fail to read
  // or parse become error slots instead of aborting the batch.  Every slot
  // gets a stable request id — [rN] in its header, in slow-request log
  // lines, and as the "pid" of the request's spans in a --trace export.
  struct Slot {
    std::string label;
    std::uint64_t id = 0;
    std::size_t request = static_cast<std::size_t>(-1);
    std::string error;
  };
  std::vector<Slot> slots;
  std::vector<analysis::AnalysisRequest> requests;

  std::string raw;
  std::size_t lineNo = 0;
  while (std::getline(std::cin, raw)) {
    ++lineNo;
    std::istringstream ss(raw);
    std::string path;
    ss >> path;
    if (path.empty() || path[0] == '#') continue;
    Slot slot;
    slot.label = path;
    slot.id = slots.size() + 1;
    std::vector<double> times;
    std::string tok;
    bool malformed = false;
    while (ss >> tok) {
      char* end = nullptr;
      const double t = std::strtod(tok.c_str(), &end);
      if (end == tok.c_str() || *end != '\0' || !std::isfinite(t) ||
          t < 0.0) {
        malformed = true;
        break;
      }
      times.push_back(t);
    }
    if (malformed) {
      slot.error = "line " + std::to_string(lineNo) +
                   ": expected '<model.dft> [time]...', got '" + tok + "'";
    } else {
      if (times.empty()) times = opts.times;
      try {
        // Resolve the model text up front so a bad path or corpus name
        // errors on its own line; the text form also keys the caches
        // purely on content, not path identity.
        analysis::AnalysisRequest request =
            analysis::AnalysisRequest::forGalileo(resolveModelText(path),
                                                  path);
        configureRequest(request, opts, times);
        request.withRequestId(slot.id);
        slot.request = requests.size();
        requests.push_back(std::move(request));
      } catch (const Error& e) {
        slot.error = e.what();
      }
    }
    slots.push_back(std::move(slot));
  }

  unsigned workers = opts.workers;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  // Per-request fault isolation: each request runs inside its own error
  // boundary on a worker pool over session.analyze() — NOT analyzeBatch,
  // which rethrows the first exception and would let one poisoned request
  // fail the whole batch.  Every exception type lands in its own slot:
  // BudgetExceeded (over budget, counted separately), Error (bad input,
  // unsupported trees), bad_alloc (a request that outgrew memory anyway),
  // and any other std::exception.  Workers keep draining the queue after
  // a failure, so every healthy request is still served.
  analysis::Analyzer session({.storeDir = opts.storeDir});
  std::vector<analysis::AnalysisReport> reports(requests.size());
  std::vector<std::string> errors(requests.size());
  std::vector<char> overBudget(requests.size(), 0);
  std::vector<double> walls(requests.size(), 0.0);
  const auto start = std::chrono::steady_clock::now();
  {
    std::atomic<std::size_t> nextRequest{0};
    auto work = [&]() {
      obs::Histogram& latency =
          obs::MetricsRegistry::global().histogram("serve.request_nanos");
      for (;;) {
        const std::size_t i = nextRequest.fetch_add(1);
        if (i >= requests.size()) return;
        const auto t0 = std::chrono::steady_clock::now();
        try {
          reports[i] = session.analyze(requests[i]);
        } catch (const imcdft::BudgetExceeded& e) {
          overBudget[i] = 1;
          errors[i] = e.what();
        } catch (const Error& e) {
          errors[i] = e.what();
        } catch (const std::bad_alloc&) {
          errors[i] = "out of memory";
        } catch (const std::exception& e) {
          errors[i] = std::string("unexpected error: ") + e.what();
        }
        const double w = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        walls[i] = w;
        latency.record(static_cast<std::uint64_t>(w * 1e9));
        // The slow-request log goes to stderr as the request finishes (one
        // fprintf per line keeps concurrent writers whole), carrying the
        // same id the slot header and the trace export use.
        if (opts.slowThreshold > 0.0 && w >= opts.slowThreshold)
          std::fprintf(stderr,
                       "slow request [r%llu] %s: %.3fs (threshold %.3fs)%s\n",
                       static_cast<unsigned long long>(
                           requests[i].requestId),
                       requests[i].label.c_str(), w, opts.slowThreshold,
                       errors[i].empty() ? "" : " [failed]");
      }
    };
    std::vector<std::thread> pool;
    const unsigned spawned = static_cast<unsigned>(
        std::min<std::size_t>(workers, requests.size()));
    pool.reserve(spawned);
    for (unsigned w = 0; w < spawned; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  bool anyFailed = false;
  std::size_t completed = 0, overBudgetCount = 0, failedCount = 0;
  for (const Slot& slot : slots) {
    std::printf("--- [r%llu] %s\n",
                static_cast<unsigned long long>(slot.id),
                slot.label.c_str());
    if (slot.request == static_cast<std::size_t>(-1)) {
      anyFailed = true;
      ++failedCount;
      std::printf("error: %s\n", slot.error.c_str());
      continue;
    }
    if (!errors[slot.request].empty()) {
      anyFailed = true;
      if (overBudget[slot.request]) {
        ++overBudgetCount;
        std::printf("error: over budget: %s\n", errors[slot.request].c_str());
      } else {
        ++failedCount;
        std::printf("error: %s\n", errors[slot.request].c_str());
      }
      continue;
    }
    ++completed;
    const analysis::AnalysisReport& report = reports[slot.request];
    for (const analysis::Diagnostic& d : report.diagnostics)
      if (d.severity == analysis::Severity::Warning ||
          (d.severity == analysis::Severity::Info && opts.stats))
        std::printf("%s: %s\n", severityTag(d.severity), d.message.c_str());
    if (!printMeasureResults(report)) anyFailed = true;
  }

  const analysis::CacheStats s = session.cacheStats();
  std::printf("\nserve summary: %zu request(s) on %u worker(s) in %.3fs",
              slots.size(), workers, wall);
  if (wall > 0.0)
    std::printf(" (%.1f req/s)", static_cast<double>(slots.size()) / wall);
  std::printf("\n");
  std::printf("  requests:        %zu completed, %zu over budget, "
              "%zu failed\n",
              completed, overBudgetCount, failedCount);
  if (!walls.empty()) {
    // Exact nearest-rank percentiles over every executed request (the
    // error slots never ran, so they carry no latency).
    std::vector<double> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    auto pct = [&sorted](double p) {
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(p * static_cast<double>(sorted.size())));
      return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
    };
    std::printf("  latency [s]:     p50 %.3f, p95 %.3f, p99 %.3f, "
                "max %.3f\n",
                pct(0.50), pct(0.95), pct(0.99), sorted.back());
  }
  std::printf("  tree cache:      %zu hit(s), %zu miss(es)\n", s.treeHits,
              s.treeMisses);
  std::printf("  module cache:    %zu hit(s), %zu miss(es), %zu step(s) "
              "saved\n",
              s.moduleHits, s.moduleMisses, s.stepsSaved);
  if (!opts.storeDir.empty())
    std::printf("  store:           %zu hit(s), %zu miss(es), %zu write(s), "
                "%zu error(s)\n",
                s.storeHits, s.storeMisses, s.storeWrites, s.storeErrors);
  if (s.treeEvictions + s.moduleEvictions > 0)
    std::printf("  evictions:       %zu tree, %zu module\n", s.treeEvictions,
                s.moduleEvictions);
  return anyFailed ? 1 : 0;
}

/// One-shot mode: a single model, measures on stdout, optional baselines,
/// simulation and exports.  Mutates \p opts (the exports force the
/// composition pipeline).
int runOneShot(CliOptions& opts) {
  using namespace imcdft;
  {
    dft::Dft tree = dft::parseGalileo(resolveModelText(opts.modelPath));
    std::printf("model: %s (%zu elements, %s%s)\n", opts.modelPath.c_str(),
                tree.size(), tree.isDynamic() ? "dynamic" : "static",
                tree.isRepairable() ? ", repairable" : "");

    analysis::AnalysisRequest request =
        analysis::AnalysisRequest::forDft(tree, opts.modelPath);
    // The exports need the composed model, which the numeric path never
    // builds; force the composition pipeline then.
    if (!opts.dotPath.empty() || !opts.autPath.empty())
      opts.staticCombine = false;
    configureRequest(request, opts, opts.times);

    // --stats reads the engines' stage times from the request's spans, so
    // it traces the request even without --trace.
    const bool traceForStats = opts.stats && !obs::traceEnabled();
    if (traceForStats) obs::setTraceEnabled(true);
    analysis::Analyzer session({.storeDir = opts.storeDir});
    analysis::AnalysisReport report = session.analyze(request);
    if (traceForStats) obs::setTraceEnabled(false);

    if (opts.stats) {
      // Span times: the same numbers a --trace export shows.
      const obs::SelfTimes spans = obs::selfTimes(obs::snapshotTrace());
      std::printf("\ncomposition statistics:\n");
      for (const analysis::ModuleResult& m : report.stats().modules)
        std::printf("  module %-16s -> %zu states, %zu transitions\n",
                    m.name.c_str(), m.states, m.transitions);
      if (report.stats().symmetricBuckets > 0)
        std::printf("  symmetry:        %zu shape bucket(s), %zu "
                    "aggregation(s) skipped, %zu step(s) saved\n",
                    report.stats().symmetricBuckets,
                    report.stats().symmetricModulesReused,
                    report.stats().symmetrySavedSteps);
      if (report.analysis->staticCombo) {
        const analysis::StaticCombination& sc = *report.analysis->staticCombo;
        std::printf("  numeric path:    %zu layer gate(s) over %zu "
                    "module(s), %zu distinct curve(s), %zu BDD node(s)\n",
                    sc.layerGateCount(), sc.modules().size(),
                    sc.chains().size(), sc.bddNodes());
      }
      const std::vector<analysis::CompositionStep>& steps =
          report.stats().steps;
      const std::size_t fusedSteps = static_cast<std::size_t>(
          std::count_if(steps.begin(), steps.end(),
                        [](const analysis::CompositionStep& s) {
                          return s.onTheFly;
                        }));
      auto endStageLine = [&spans] {
        if (spans.dropped > 0)
          std::printf("  (%zu trace event(s) dropped)", spans.dropped);
        std::printf("\n");
      };
      if (fusedSteps > 0) {
        std::size_t refinePasses = 0;
        for (const analysis::CompositionStep& s : steps)
          refinePasses += s.otfRefinePassesRun;
        std::printf("  otf refinement:  %zu pass(es) run\n", refinePasses);
        std::printf("  otf stages [s]:  explore %.4f, refine %.4f, "
                    "collapse %.4f, finish %.4f",
                    spans.of("otf.explore"), spans.of("otf.refine"),
                    spans.of("otf.collapse"), spans.of("otf.finish"));
        endStageLine();
      }
      if (fusedSteps < steps.size()) {
        std::printf("  classic stages [s]: compose %.4f, collapse %.4f, "
                    "aggregate %.4f",
                    spans.of("classic.compose"), spans.of("classic.collapse"),
                    spans.of("classic.aggregate"));
        endStageLine();
      }
      if (spans.of("weak.context") > 0.0) {
        std::printf("  weak context [s]: %.4f (tau closures and weak moves, "
                    "outside the stages' self times)",
                    spans.of("weak.context"));
        endStageLine();
      }
      std::printf("  peak composed:   %zu states, %zu transitions\n",
                  report.stats().peakComposedStates,
                  report.stats().peakComposedTransitions);
      std::printf("  peak aggregated: %zu states, %zu transitions\n",
                  report.stats().peakAggregatedStates,
                  report.stats().peakAggregatedTransitions);
      if (report.analysis->staticCombo)
        std::printf("  final model:     numerically combined (the joint "
                    "product was never built)\n");
      else
        std::printf("  final model:     %zu states, %zu transitions\n",
                    report.analysis->closedModel.numStates(),
                    report.analysis->closedModel.numTransitions());
      const double phases[] = {
          spans.inclusiveOf("parse"), spans.inclusiveOf("convert"),
          spans.inclusiveOf("compose"), spans.inclusiveOf("extract"),
          spans.inclusiveOf("measure")};
      std::printf("  phases [s]:      parse %.4f, convert %.4f, "
                  "compose %.4f, extract %.4f, measure %.4f  (total %.4f)\n",
                  phases[0], phases[1], phases[2], phases[3], phases[4],
                  phases[0] + phases[1] + phases[2] + phases[3] + phases[4]);
      if (opts.jobs != 0)
        std::printf("  worker threads:  %u\n", opts.jobs);
      if (!opts.storeDir.empty())
        std::printf("  store:           %zu hit(s), %zu miss(es), "
                    "%zu write(s), %zu error(s)\n",
                    report.cache.storeHits, report.cache.storeMisses,
                    report.cache.storeWrites, report.cache.storeErrors);
      std::printf("  tree fingerprint %016llx\n",
                  static_cast<unsigned long long>(report.treeHash));
    }

    std::printf("\n");
    // Error diagnostics are reported next to their measure below.
    for (const analysis::Diagnostic& d : report.diagnostics)
      if (d.severity == analysis::Severity::Warning ||
          (d.severity == analysis::Severity::Info && opts.stats))
        std::printf("%s: %s\n", severityTag(d.severity), d.message.c_str());

    if (report.nondeterministic() && !opts.bounds) {
      std::printf(
          "the model is nondeterministic (FDEP-induced simultaneity, "
          "Section 4.4 of the paper); rerun with --bounds\n");
      return 1;
    }

    const bool anyMeasureFailed = !printMeasureResults(report);

    if (opts.modular) {
      std::printf("\n");
      for (double t : opts.times) {
        diftree::ModularResult m = diftree::modularAnalysis(tree, t);
        std::printf("DIFTree modular baseline: unreliability %.17g at t=%g "
                    "(largest module chain: %zu states)\n",
                    m.unreliability, t, m.largestMcStates);
      }
    }
    if (opts.monolithic) {
      diftree::MonolithicResult m = diftree::generateMonolithic(tree);
      std::printf("\nDIFTree monolithic baseline: %zu states, %zu "
                  "transitions\n",
                  m.numStates, m.numTransitions);
      for (double t : opts.times)
        std::printf("DIFTree monolithic baseline: unreliability %.17g at "
                    "t=%g\n",
                    ctmc::probabilityOfLabelAt(m.chain, "down", t), t);
    }

    if (opts.simulate) {
      // The seed in the header makes every simulation report a repro by
      // itself: per-run RNG streams are derived from (seed, run index), so
      // re-running with the printed seed reproduces the estimates exactly.
      std::printf("\nMonte-Carlo simulation: %llu runs, seed %llu\n",
                  static_cast<unsigned long long>(opts.simulateRuns),
                  static_cast<unsigned long long>(opts.simulateSeed));
      for (double t : opts.times) {
        simulation::Estimate est = simulation::simulateUnreliability(
            tree, t, {opts.simulateRuns, opts.simulateSeed});
        std::printf(
            "Monte-Carlo estimate: %.17g in [%.17g, %.17g] (95%% Wilson) "
            "at t=%g\n",
            est.value, est.low(), est.high(), t);
        if (tree.isRepairable()) {
          simulation::Estimate un = simulation::simulateUnavailability(
              tree, t, {opts.simulateRuns, opts.simulateSeed});
          std::printf(
              "Monte-Carlo unavailability: %.17g in [%.17g, %.17g] "
              "(95%% Wilson) at t=%g\n",
              un.value, un.low(), un.high(), t);
        }
      }
    }

    // Unlike the observability outputs, a requested export that cannot be
    // written fails the run.
    bool exportFailed = false;
    auto writeExport = [&](const std::string& path, const char* what,
                           std::string (*render)(const ioimc::IOIMC&)) {
      if (path.empty()) return;
      std::ofstream out(path);
      out << render(report.analysis->closedModel);
      out.close();
      if (out) return;
      std::fprintf(stderr, "error: cannot write %s file '%s'\n", what,
                   path.c_str());
      exportFailed = true;
    };
    writeExport(opts.dotPath, "dot", ioimc::toDot);
    writeExport(opts.autPath, "aut", ioimc::toAut);
    return anyMeasureFailed || exportFailed ? 1 : 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts = parseArgs(argc, argv);
  // Tracing must be live before any pipeline work; with no --trace it
  // stays a dead branch (one relaxed load per span site) and no ring is
  // ever allocated.
  if (!opts.tracePath.empty()) imcdft::obs::setTraceEnabled(true);
  int rc = 1;
  try {
    rc = opts.serve ? runServe(opts) : runOneShot(opts);
  } catch (const imcdft::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  // Both modes have joined their workers by now, which is exactly the
  // quiescence the trace snapshot requires.
  writeObservabilityOutputs(opts);
  return rc;
}
