/// \file bench_compose.cpp
/// Experiment E12: the flat-storage (CSR) compose/aggregate core against
/// the frozen pre-refactor baseline (bench/baseline_seed.hpp), plus
/// experiment E13: the symmetry reduction over symmetric-replica families,
/// plus experiment E14: the static-layer numeric combination
/// (EngineOptions::staticCombine) over wide replicated systems.
///
/// E12 — for every configuration of the scaling sweep (the cascaded-PAND
/// CPS family plus the CAS and HECS systems) the whole cold
/// pipeline is timed twice — single-thread (EngineOptions::numThreads = 1,
/// isolating the flat-storage/hashed-refinement gains) and with one worker
/// per hardware thread (adding the parallel module aggregation) — with the
/// exact protocol the baseline was captured with: cold Analyzer, grid
/// {0.5, 1.0, 2.0}, one untimed warmup, best of 5 timed analyze() calls,
/// and symmetry reduction OFF (the baseline predates it; E13 measures it
/// separately).  The measure values must agree with the baseline to 1e-9
/// (on the capture machine they are byte-identical) and must never be NaN.
///
/// E13 — for each symmetric-replica family (CAS with k cloned units,
/// CPS-style replicated sensor banks, the cascaded-PAND sweep) the same
/// cold protocol runs with --symmetry off and on.  The measures must be
/// *bit-identical* between the two runs, and the aggregations actually
/// performed with symmetry on must equal the number of distinct module
/// shapes (proper modules minus reused siblings); either violation makes
/// the binary exit nonzero so the CI bench smoke job fails on correctness,
/// not on timing.  Results (including the per-run symmetry counters:
/// buckets found, aggregations skipped, steps saved) land in
/// BENCH_compose.json (override with the BENCH_COMPOSE_JSON environment
/// variable).
///
/// E14 — the static-combination sweep: clonedCas(2..8), sensorBanks and
/// the voterFarm family (a VOTING top over replicated dynamic units) run
/// with --static-combine on; instances small enough to compose fully also
/// run with it off.  The binary exits nonzero unless (a) the numeric
/// unreliabilities agree with full composition within 1e-9 relative (with
/// a 5e-10 absolute floor, a few times the 1e-10 uniformization truncation
/// bound below which the composition path itself is no more accurate),
/// (b) the numeric path
/// actually applied, with one module per replicated unit component
/// (linear in k) and one distinct curve per module *shape*, and (c) the
/// peak intermediate model stays at O(largest single module) — clonedCas(8)
/// must never materialize the ~2.7M-state joint product the composition
/// path builds.
///
/// E15 — the on-the-fly sweep: the fused compose-and-minimize engine
/// (EngineOptions::onTheFly, ioimc::otf) against the classic
/// compose+quotient chain, over the workloads it targets: deep
/// PAND-over-module chains (corpus::cascadedPand — static combination is
/// ineligible there, every step composes) and the wide cascaded-PAND CPS
/// families.  Both arms run the identical cold protocol; E12/E13/E14 pin
/// --on-the-fly off to keep their protocols what their baselines were
/// captured with.  The binary exits nonzero unless, for every family, (a)
/// the measures are *bit-identical* between on and off, (b) the fused
/// peak (live states) is strictly below the classic full product, (c)
/// every step actually fused (no invariant fallbacks — fallbacks are safe
/// but must not silently become the norm) and (d) nothing is NaN.  The
/// JSON gains an "otf_families" section with the peaks and the fused-step/
/// fallback counters, plus the fused stage self times (explore, refine,
/// collapse, finish) of one extra traced run after the timed ones, read
/// from the otf.* spans (obs::selfTimes); a trace that dropped events fails
/// the binary, since its stage columns would undercount.
///
/// E16 — the cliff sweep: generated trees (dft::generateDft seeds 2, 14,
/// 26 and 67) on which the composition order decides between milliseconds
/// and seconds, under default engine options on one thread.  Each row
/// records the wall time, the peak intermediate model (states and
/// transitions) and the step count; the binary exits nonzero when a
/// measure is not finite.  The JSON gains a "cliff_families" section.
///
/// Every experiment records peak-memory proxies (the largest intermediate
/// model in states/transitions) next to its timings; run_bench.sh prints
/// them in its summary.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/static_combine.hpp"
#include "baseline_seed.hpp"
#include "bench_util.hpp"
#include "dft/corpus.hpp"
#include "dft/generate.hpp"
#include "obs/trace.hpp"

namespace {

using namespace imcdft;
using analysis::AnalysisRequest;
using analysis::MeasureSpec;
using Clock = std::chrono::steady_clock;

const std::vector<double> kGrid{0.5, 1.0, 2.0};

dft::Dft treeFor(const std::string& name) {
  if (name == "cas") return dft::corpus::cas();
  if (name == "hecs") return dft::corpus::hecs();
  int m = 0, b = 0;
  if (std::sscanf(name.c_str(), "cpand_%dx%d", &m, &b) == 2)
    return dft::corpus::cascadedPand(m, b);
  // "cps_MxB"
  std::sscanf(name.c_str(), "cps_%dx%d", &m, &b);
  return dft::corpus::cascadedPands(m, b);
}

struct RunResult {
  double wallSeconds = 0.0;
  std::vector<double> values;
  std::size_t steps = 0;             ///< compose/hide/aggregate steps run
  std::size_t properModules = 0;     ///< ModuleResult records
  std::size_t symmetricBuckets = 0;  ///< shape buckets with >= 2 modules
  std::size_t symmetricReused = 0;   ///< aggregations skipped by renaming
  std::size_t symmetrySavedSteps = 0;
  /// Peak-memory proxies: the largest intermediate model of the run.
  std::size_t peakStates = 0;
  std::size_t peakTransitions = 0;
  /// Static combination (E14): applied at all, and its decomposition.
  bool numericApplied = false;
  std::size_t numericModules = 0;  ///< frontier modules (linear in k)
  std::size_t numericChains = 0;   ///< distinct curves (one per shape)
  /// On-the-fly (E15): fused steps, invariant fallbacks, saved peak.
  std::size_t otfSteps = 0;
  std::size_t otfFallbacks = 0;
  std::size_t otfSavedPeak = 0;
  /// Fused-engine detail: refinement passes run and intra-step workers.
  std::size_t otfPassesRun = 0;
  unsigned otfIntraWorkers = 0;
};

AnalysisRequest requestFor(const dft::Dft& d, unsigned numThreads,
                           bool symmetry, bool staticCombine, bool onTheFly) {
  AnalysisRequest req = AnalysisRequest::forDft(d).measure(
      MeasureSpec::unreliability(kGrid));
  req.options.engine.numThreads = numThreads;
  req.options.engine.symmetry = symmetry;
  req.options.engine.staticCombine = staticCombine;
  req.options.engine.onTheFly = onTheFly;
  return req;
}

RunResult timeCold(const dft::Dft& d, unsigned numThreads, bool symmetry,
                   bool staticCombine, bool onTheFly, int repetitions = 5) {
  const AnalysisRequest req =
      requestFor(d, numThreads, symmetry, staticCombine, onTheFly);
  RunResult best;
  best.wallSeconds = 1e100;
  {
    analysis::Analyzer warmup(benchutil::coldOptions());
    (void)warmup.analyze(req);
  }
  for (int r = 0; r < repetitions; ++r) {
    analysis::Analyzer session(benchutil::coldOptions());
    auto t0 = Clock::now();
    analysis::AnalysisReport rep = session.analyze(req);
    double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt < best.wallSeconds) {
      best.wallSeconds = dt;
      best.values = rep.measures[0].values;
      best.steps = rep.stats().steps.size();
      best.properModules = rep.stats().modules.size();
      best.symmetricBuckets = rep.stats().symmetricBuckets;
      best.symmetricReused = rep.stats().symmetricModulesReused;
      best.symmetrySavedSteps = rep.stats().symmetrySavedSteps;
      best.peakStates = rep.stats().peakComposedStates;
      best.peakTransitions = rep.stats().peakComposedTransitions;
      best.otfSteps = rep.stats().onTheFlySteps;
      best.otfFallbacks = rep.stats().onTheFlyFallbacks;
      best.otfSavedPeak = rep.stats().onTheFlySavedPeakStates;
      best.otfPassesRun = rep.stats().otfRefinePassesRun;
      best.otfIntraWorkers = rep.stats().otfIntraWorkers;
      best.numericApplied = rep.analysis->staticCombo != nullptr;
      if (best.numericApplied) {
        best.numericModules = rep.analysis->staticCombo->modules().size();
        best.numericChains = rep.analysis->staticCombo->chains().size();
      }
    }
  }
  return best;
}

/// Span self times of one cold traced run of \p req (tracing is off
/// again afterwards and the rings are cleared).
obs::SelfTimes tracedSelfTimes(const AnalysisRequest& req) {
  obs::clearTrace();
  obs::setTraceEnabled(true);
  (void)benchutil::analyzeCold(req);
  obs::setTraceEnabled(false);
  obs::SelfTimes times = obs::selfTimes(obs::snapshotTrace());
  obs::clearTrace();
  return times;
}

struct ConfigResult {
  std::string name;
  double seedWall = 0.0, wall1t = 0.0, wallMt = 0.0;
  bool valuesOk = true;
  bool hasNan = false;
  /// Largest intermediate model of the single-thread run (peak-memory
  /// proxy; the parallel run composes the same models).
  std::size_t peakStates = 0;
  std::size_t peakTransitions = 0;
};

bool agreeTo1e9(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > 1e-9) return false;
  return true;
}

bool anyNan(const std::vector<double>& v) {
  for (double x : v)
    if (std::isnan(x)) return true;
  return false;
}

/// One symmetric-replica family, timed cold with symmetry off and on.
struct SymmetryResult {
  std::string name;
  RunResult off, on;
  std::size_t moduleCount = 0;  ///< proper modules (symmetry-off records)
  bool bitIdentical = false;    ///< measures on == off, every bit
  bool countersOk = false;      ///< buckets found, aggregations dropped
  std::size_t aggregationsPerformed() const {
    return on.properModules - on.symmetricReused;
  }
};

/// Runs the E13 symmetry sweep; results are appended to \p out and the
/// function returns false when any correctness check failed.
bool runSymmetrySweep(std::vector<SymmetryResult>& out) {
  struct Family {
    const char* name;
    dft::Dft tree;
    /// Distinct proper-module shapes of the family — what the aggregation
    /// count must drop to with symmetry on (a structural constant of each
    /// tree, machine-independent).  Cloned CAS: the unit plus its CPU /
    /// motor / pump sub-modules and the top, independent of the clone
    /// count.  Sensor banks: bank, sensor chain, top.  Cascaded PANDs:
    /// one AND shape plus every (depth-distinct) PAND of the chain.
    std::size_t distinctShapes;
  };
  // Replica counts stay moderate: the top-level fold over k independent
  // aggregated units is inherently exponential in k (the joint unfired
  // state space), which symmetry reduction does not — and must not —
  // change.  It removes the per-shape aggregation cost, which dominates
  // when the modules themselves are large (cps_6x14).
  const Family families[] = {
      {"cas_cloned_2", dft::corpus::clonedCas(2), 6},
      {"cas_cloned_4", dft::corpus::clonedCas(4), 6},
      {"banks_4x3", dft::corpus::sensorBanks(4, 3), 3},
      {"banks_8x2", dft::corpus::sensorBanks(8, 2), 3},
      {"cps_8x10", dft::corpus::cascadedPands(8, 10), 8},
      {"cps_6x14", dft::corpus::cascadedPands(6, 14), 6},
  };
  std::printf("== E13: symmetry reduction over symmetric-replica families ==\n");
  std::printf("%-14s %11s %11s %8s %8s %8s %8s  %s\n", "family", "off [s]",
              "on [s]", "speedup", "modules", "aggs", "reused", "measures");
  bool ok = true;
  for (const Family& fam : families) {
    SymmetryResult r;
    r.name = fam.name;
    // Static combination off throughout E13: it would bypass the top-level
    // fold this experiment measures (E14 covers the numeric path).
    r.off = timeCold(fam.tree, 1, /*symmetry=*/false, /*staticCombine=*/false,
                     /*onTheFly=*/false);
    r.on = timeCold(fam.tree, 1, /*symmetry=*/true, /*staticCombine=*/false,
                    /*onTheFly=*/false);
    r.moduleCount = r.off.properModules;
    r.bitIdentical = r.off.values == r.on.values;
    // Every family is built symmetric: buckets must form, siblings must be
    // reused, and the aggregations actually performed must equal the
    // family's distinct shape count — O(shapes), not O(modules).
    r.countersOk = r.on.symmetricBuckets > 0 && r.on.symmetricReused > 0 &&
                   r.aggregationsPerformed() == fam.distinctShapes &&
                   r.aggregationsPerformed() < r.moduleCount &&
                   r.on.steps < r.off.steps;
    if (!r.bitIdentical || r.countersOk == false || anyNan(r.on.values))
      ok = false;
    std::printf("%-14s %11.6f %11.6f %7.2fx %8zu %8zu %8zu  %s\n",
                r.name.c_str(), r.off.wallSeconds, r.on.wallSeconds,
                r.off.wallSeconds / r.on.wallSeconds, r.moduleCount,
                r.aggregationsPerformed(), r.on.symmetricReused,
                !r.bitIdentical         ? "NOT BIT-IDENTICAL — BUG"
                : !r.countersOk         ? "COUNTERS WRONG — BUG"
                                        : "bit-identical");
    out.push_back(std::move(r));
  }
  std::printf("\n");
  return ok;
}

/// One E14 family: static combination on, and — when the instance is small
/// enough to compose fully in reasonable time — off for comparison.
struct StaticCombineResult {
  std::string name;
  RunResult on, off;
  bool offRun = false;        ///< the full-composition reference ran
  bool valuesOk = true;       ///< numeric vs composition within budget
  bool structureOk = true;    ///< applied, k-linear modules, shape-many curves
  bool peakOk = true;         ///< peak stays O(largest single module)
};

/// Numeric-vs-composition agreement: 1e-9 relative with a 5e-10 absolute
/// floor — a few times the composition path's 1e-10 uniformization
/// truncation bound, since several per-module errors can stack and on
/// small probabilities the full pipeline itself is only that accurate.
bool agreeNumeric(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) >
        1e-9 * std::max(std::abs(a[i]), std::abs(b[i])) + 5e-10)
      return false;
  return true;
}

/// Runs the E14 static-combination sweep; results append to \p out and the
/// function returns false when any correctness check failed.
bool runStaticCombineSweep(std::vector<StaticCombineResult>& out) {
  struct Family {
    std::string name;
    dft::Dft tree;
    bool runOff;                 ///< small enough to compose fully
    std::size_t expectModules;   ///< frontier modules — linear in k
    std::size_t expectChains;    ///< distinct curves — one per module shape
    std::size_t peakBound;       ///< peak states must stay below this
  };
  std::vector<Family> families;
  // Cloned CAS: 3 frontier modules per unit (CPU, motor, pump), 3 shapes
  // total.  Full composition is exponential in k — the off reference stops
  // at 4 units; clonedCas(8) (the ~2.7M-state joint product on the
  // composition path) runs numeric-only and must stay under 100 states.
  for (int k = 2; k <= 8; ++k)
    families.push_back({"cas_cloned_" + std::to_string(k),
                        dft::corpus::clonedCas(k), k <= 4,
                        static_cast<std::size_t>(3 * k), 3, 100});
  families.push_back(
      {"banks_6x2", dft::corpus::sensorBanks(6, 2), true, 6, 1, 200});
  families.push_back(
      {"banks_8x2", dft::corpus::sensorBanks(8, 2), true, 8, 1, 200});
  // Voter farm: VOTING top over per-unit ORs — a multi-gate layer; two
  // modules per unit (control chain, power slot), two shapes.
  families.push_back(
      {"voter_4of2", dft::corpus::voterFarm(4, 2), true, 8, 2, 100});
  families.push_back(
      {"voter_6of3", dft::corpus::voterFarm(6, 3), true, 12, 2, 100});
  families.push_back(
      {"voter_8of4", dft::corpus::voterFarm(8, 4), false, 16, 2, 100});

  std::printf(
      "== E14: static-layer numeric combination over wide systems ==\n");
  std::printf("%-14s %11s %11s %8s %8s %8s %10s %10s  %s\n", "family",
              "on [s]", "off [s]", "modules", "curves", "steps",
              "peak on", "peak off", "measures");
  bool ok = true;
  for (Family& fam : families) {
    StaticCombineResult r;
    r.name = fam.name;
    r.on = timeCold(fam.tree, 1, /*symmetry=*/true, /*staticCombine=*/true,
                    /*onTheFly=*/false);
    r.offRun = fam.runOff;
    if (fam.runOff) {
      // The big instances would dominate the bench; 2 repetitions suffice
      // for a correctness reference.
      r.off = timeCold(fam.tree, 1, /*symmetry=*/true,
                       /*staticCombine=*/false, /*onTheFly=*/false,
                       /*repetitions=*/2);
      r.valuesOk = agreeNumeric(r.on.values, r.off.values) &&
                   !anyNan(r.on.values) && !anyNan(r.off.values);
    } else {
      r.valuesOk = !anyNan(r.on.values);
    }
    r.structureOk = r.on.numericApplied &&
                    r.on.numericModules == fam.expectModules &&
                    r.on.numericChains == fam.expectChains;
    r.peakOk = r.on.peakStates < fam.peakBound &&
               (!fam.runOff || r.on.peakStates <= r.off.peakStates);
    if (!r.valuesOk || !r.structureOk || !r.peakOk) ok = false;
    char offWall[24], offPeak[24];
    if (fam.runOff) {
      std::snprintf(offWall, sizeof offWall, "%11.6f", r.off.wallSeconds);
      std::snprintf(offPeak, sizeof offPeak, "%10zu", r.off.peakStates);
    } else {
      std::snprintf(offWall, sizeof offWall, "%11s", "-");
      std::snprintf(offPeak, sizeof offPeak, "%10s", "-");
    }
    std::printf("%-14s %11.6f %s %8zu %8zu %8zu %10zu %s  %s\n",
                r.name.c_str(), r.on.wallSeconds, offWall,
                r.on.numericModules, r.on.numericChains, r.on.steps,
                r.on.peakStates, offPeak,
                !r.structureOk ? "NUMERIC PATH NOT APPLIED — BUG"
                : !r.peakOk    ? "PEAK TOO LARGE — BUG"
                : !r.valuesOk  ? "MISMATCH — BUG"
                : fam.runOff   ? "agree to 1e-9"
                               : "numeric only");
    out.push_back(std::move(r));
  }
  std::printf("\n");
  return ok;
}

/// One E15 family: the fused engine on vs the classic chain.
struct OtfResultRow {
  std::string name;
  RunResult on, off;
  obs::SelfTimes stages;      ///< span self times of one traced fused run
  bool bitIdentical = false;  ///< measures on == off, every bit
  bool peakOk = false;        ///< fused peak strictly below classic product
  bool fusedOk = false;       ///< every step fused, zero fallbacks
};

/// Runs the E15 on-the-fly sweep; results append to \p out and the
/// function returns false when any correctness check failed.
bool runOtfSweep(std::vector<OtfResultRow>& out) {
  // Deep PAND-over-module chains (static combination ineligible: a PAND
  // sits above every unit) plus the wide CPS configurations of E12/E13.
  // Every family's largest composition step materializes well past the
  // fused engine's refinement threshold, so collapses must actually fire.
  const char* families[] = {"cpand_4x2", "cpand_4x3", "cpand_6x2",
                            "cps_8x10", "cps_6x14"};
  std::printf("== E15: fused compose-and-minimize vs classic product ==\n");
  std::printf("%-12s %11s %11s %7s %10s %10s %8s %6s %5s  %s\n", "family",
              "off [s]", "on [s]", "w-ratio", "peak off", "peak on", "ratio",
              "fused", "fb", "measures");
  bool ok = true;
  for (const char* name : families) {
    dft::Dft d = treeFor(name);
    OtfResultRow r;
    r.name = name;
    // Three repetitions: E15 gates on correctness and peaks, not timing,
    // but the wall ratio below is tracked by run_bench.sh.
    r.off = timeCold(d, 1, /*symmetry=*/true, /*staticCombine=*/false,
                     /*onTheFly=*/false, /*repetitions=*/3);
    r.on = timeCold(d, 1, /*symmetry=*/true, /*staticCombine=*/false,
                    /*onTheFly=*/true, /*repetitions=*/3);
    // The stage columns come from the spans of one extra traced run, so
    // tracing never touches the timed runs above.
    r.stages = tracedSelfTimes(requestFor(d, 1, /*symmetry=*/true,
                                          /*staticCombine=*/false,
                                          /*onTheFly=*/true));
    r.bitIdentical = r.on.values == r.off.values && !anyNan(r.on.values);
    r.peakOk = r.on.peakStates < r.off.peakStates &&
               r.on.peakTransitions < r.off.peakTransitions;
    r.fusedOk = r.on.otfSteps == r.on.steps && r.on.otfFallbacks == 0 &&
                r.off.otfSteps == 0;
    if (!r.bitIdentical || !r.peakOk || !r.fusedOk || r.stages.dropped > 0)
      ok = false;
    std::printf("%-12s %11.6f %11.6f %7.2f %10zu %10zu %7.2fx %6zu %5zu  %s\n",
                r.name.c_str(), r.off.wallSeconds, r.on.wallSeconds,
                r.on.wallSeconds / r.off.wallSeconds,
                r.off.peakStates, r.on.peakStates,
                static_cast<double>(r.off.peakStates) /
                    static_cast<double>(r.on.peakStates),
                r.on.otfSteps, r.on.otfFallbacks,
                !r.bitIdentical ? "NOT BIT-IDENTICAL — BUG"
                : !r.peakOk     ? "PEAK NOT BELOW PRODUCT — BUG"
                : !r.fusedOk    ? "STEPS FELL BACK — BUG"
                                : "bit-identical");
    std::printf("  stages: explore %.4fs refine %.4fs (passes %zu) collapse "
                "%.4fs finish %.4fs workers %u%s\n",
                r.stages.of("otf.explore"), r.stages.of("otf.refine"),
                r.on.otfPassesRun, r.stages.of("otf.collapse"),
                r.stages.of("otf.finish"), r.on.otfIntraWorkers,
                r.stages.dropped > 0 ? "  TRACE DROPPED EVENTS — BUG" : "");
    out.push_back(std::move(r));
  }
  std::printf("\n");
  return ok;
}

/// One E16 row: a generated tree under the default merge planner.
struct CliffRow {
  std::string name;
  RunResult run;
  bool finite = false;
};

/// Runs the E16 cliff sweep; returns false when a measure is not finite.
bool runCliffSweep(std::vector<CliffRow>& out) {
  const std::uint64_t seeds[] = {2, 14, 26, 67};
  std::printf("== E16: composition-order cliffs (generated trees) ==\n");
  std::printf("%-8s %11s %10s %12s %6s  %s\n", "tree", "wall [s]",
              "peak st", "peak trans", "steps", "measures");
  bool ok = true;
  for (std::uint64_t seed : seeds) {
    CliffRow r;
    r.name = "gen" + std::to_string(seed);
    r.run = timeCold(dft::generateDft(seed), 1, /*symmetry=*/true,
                     /*staticCombine=*/true, /*onTheFly=*/true,
                     /*repetitions=*/3);
    r.finite = !r.run.values.empty() &&
               std::all_of(r.run.values.begin(), r.run.values.end(),
                           [](double v) { return std::isfinite(v); });
    if (!r.finite) ok = false;
    std::printf("%-8s %11.6f %10zu %12zu %6zu  %s\n", r.name.c_str(),
                r.run.wallSeconds, r.run.peakStates, r.run.peakTransitions,
                r.run.steps, r.finite ? "finite" : "NOT FINITE — BUG");
    out.push_back(std::move(r));
  }
  std::printf("\n");
  return ok;
}

void writeJson(const std::vector<ConfigResult>& results,
               const std::vector<SymmetryResult>& symmetry,
               const std::vector<StaticCombineResult>& staticCombine,
               const std::vector<OtfResultRow>& otf,
               const std::vector<CliffRow>& cliffs, unsigned mtThreads) {
  const char* env = std::getenv("BENCH_COMPOSE_JSON");
  std::string path = env ? env : "BENCH_compose.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const ConfigResult& largest = results.empty() ? ConfigResult{} :
      *std::max_element(results.begin(), results.end(),
                        [](const ConfigResult& a, const ConfigResult& b) {
                          return a.seedWall < b.seedWall;
                        });
  out << "{\n"
      << "  \"bench\": \"flat_storage_compose_sweep\",\n"
      << "  \"baseline\": \"pre-refactor seed (PR 1 tip, commit 84b7bfe)\",\n"
      << "  \"baseline_header\": \"bench/baseline_seed.hpp\",\n"
      << "  \"time_grid\": " << kGrid.size() << ",\n"
      << "  \"parallel_threads\": " << mtThreads << ",\n"
      << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    char buf[640];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"seed_wall_seconds\": %.6f, "
                  "\"flat_1t_wall_seconds\": %.6f, "
                  "\"flat_parallel_wall_seconds\": %.6f, "
                  "\"speedup_1t\": %.3f, \"speedup_parallel\": %.3f, "
                  "\"peak_states\": %zu, \"peak_transitions\": %zu, "
                  "\"measures_match_1e9\": %s, \"nan\": %s}%s\n",
                  r.name.c_str(), r.seedWall, r.wall1t, r.wallMt,
                  r.seedWall / r.wall1t, r.seedWall / r.wallMt,
                  r.peakStates, r.peakTransitions,
                  r.valuesOk ? "true" : "false", r.hasNan ? "true" : "false",
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"symmetry_families\": [\n";
  std::size_t totalReused = 0, totalSaved = 0;
  for (std::size_t i = 0; i < symmetry.size(); ++i) {
    const SymmetryResult& r = symmetry[i];
    totalReused += r.on.symmetricReused;
    totalSaved += r.on.symmetrySavedSteps;
    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"wall_off_seconds\": %.6f, "
        "\"wall_on_seconds\": %.6f, \"speedup\": %.3f, "
        "\"modules\": %zu, \"aggregations_performed\": %zu, "
        "\"buckets_found\": %zu, \"aggregations_skipped\": %zu, "
        "\"steps_off\": %zu, \"steps_on\": %zu, \"steps_saved\": %zu, "
        "\"peak_states\": %zu, \"peak_transitions\": %zu, "
        "\"measures_bit_identical\": %s}%s\n",
        r.name.c_str(), r.off.wallSeconds, r.on.wallSeconds,
        r.off.wallSeconds / r.on.wallSeconds, r.moduleCount,
        r.aggregationsPerformed(), r.on.symmetricBuckets,
        r.on.symmetricReused, r.off.steps, r.on.steps,
        r.on.symmetrySavedSteps, r.on.peakStates, r.on.peakTransitions,
        r.bitIdentical ? "true" : "false",
        i + 1 < symmetry.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"static_combine_families\": [\n";
  std::size_t worstPeakOn = 0, worstPeakOff = 0;
  for (std::size_t i = 0; i < staticCombine.size(); ++i) {
    const StaticCombineResult& r = staticCombine[i];
    worstPeakOn = std::max(worstPeakOn, r.on.peakStates);
    if (r.offRun) worstPeakOff = std::max(worstPeakOff, r.off.peakStates);
    char offWall[32], offPeak[32];
    if (r.offRun) {
      std::snprintf(offWall, sizeof offWall, "%.6f", r.off.wallSeconds);
      std::snprintf(offPeak, sizeof offPeak, "%zu", r.off.peakStates);
    } else {
      std::snprintf(offWall, sizeof offWall, "null");
      std::snprintf(offPeak, sizeof offPeak, "null");
    }
    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"wall_on_seconds\": %.6f, "
        "\"wall_off_seconds\": %s, \"modules\": %zu, \"curves\": %zu, "
        "\"steps_on\": %zu, \"peak_states_on\": %zu, "
        "\"peak_states_off\": %s, \"numeric_applied\": %s, "
        "\"measures_agree_1e9\": %s}%s\n",
        r.name.c_str(), r.on.wallSeconds, offWall, r.on.numericModules,
        r.on.numericChains, r.on.steps, r.on.peakStates, offPeak,
        r.on.numericApplied ? "true" : "false",
        r.valuesOk ? "true" : "false",
        i + 1 < staticCombine.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"otf_families\": [\n";
  std::size_t otfTotalSaved = 0;
  double otfBestRatio = 0.0;
  for (std::size_t i = 0; i < otf.size(); ++i) {
    const OtfResultRow& r = otf[i];
    otfTotalSaved += r.off.peakStates - std::min(r.on.peakStates,
                                                 r.off.peakStates);
    otfBestRatio = std::max(otfBestRatio,
                            static_cast<double>(r.off.peakStates) /
                                static_cast<double>(r.on.peakStates));
    char buf[1280];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"wall_off_seconds\": %.6f, "
        "\"wall_on_seconds\": %.6f, \"wall_ratio\": %.3f, "
        "\"peak_states_off\": %zu, "
        "\"peak_states_on\": %zu, \"peak_transitions_off\": %zu, "
        "\"peak_transitions_on\": %zu, \"peak_ratio\": %.3f, "
        "\"fused_steps\": %zu, \"fallbacks\": %zu, "
        "\"saved_vs_product_bound\": %zu, "
        "\"refine_passes_run\": %zu, \"intra_workers\": %u, "
        "\"explore_seconds\": %.6f, \"refine_seconds\": %.6f, "
        "\"collapse_seconds\": %.6f, \"finish_seconds\": %.6f, "
        "\"trace_dropped\": %zu, \"measures_bit_identical\": %s}%s\n",
        r.name.c_str(), r.off.wallSeconds, r.on.wallSeconds,
        r.on.wallSeconds / r.off.wallSeconds,
        r.off.peakStates, r.on.peakStates, r.off.peakTransitions,
        r.on.peakTransitions,
        static_cast<double>(r.off.peakStates) /
            static_cast<double>(r.on.peakStates),
        r.on.otfSteps, r.on.otfFallbacks, r.on.otfSavedPeak,
        r.on.otfPassesRun, r.on.otfIntraWorkers,
        r.stages.of("otf.explore"), r.stages.of("otf.refine"),
        r.stages.of("otf.collapse"), r.stages.of("otf.finish"),
        r.stages.dropped, r.bitIdentical ? "true" : "false",
        i + 1 < otf.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"cliff_families\": [\n";
  for (std::size_t i = 0; i < cliffs.size(); ++i) {
    const CliffRow& r = cliffs[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
                  "\"peak_states\": %zu, \"peak_transitions\": %zu, "
                  "\"steps\": %zu, \"measures_finite\": %s}%s\n",
                  r.name.c_str(), r.run.wallSeconds, r.run.peakStates,
                  r.run.peakTransitions, r.run.steps,
                  r.finite ? "true" : "false",
                  i + 1 < cliffs.size() ? "," : "");
    out << buf;
  }
  char tail[640];
  std::snprintf(tail, sizeof tail,
                "  ],\n"
                "  \"symmetry_total_aggregations_skipped\": %zu,\n"
                "  \"symmetry_total_steps_saved\": %zu,\n"
                "  \"static_combine_worst_peak_states\": %zu,\n"
                "  \"static_combine_worst_peak_states_composed\": %zu,\n"
                "  \"otf_total_peak_states_saved\": %zu,\n"
                "  \"otf_best_peak_ratio\": %.3f,\n"
                "  \"largest_config\": \"%s\",\n"
                "  \"largest_speedup_1t\": %.3f,\n"
                "  \"largest_speedup_parallel\": %.3f\n"
                "}\n",
                totalReused, totalSaved, worstPeakOn, worstPeakOff,
                otfTotalSaved, otfBestRatio, largest.name.c_str(),
                largest.seedWall / largest.wall1t,
                largest.seedWall / largest.wallMt);
  out << tail;
  std::printf("wrote %s\n", path.c_str());
}

/// Runs the sweep; returns false when any correctness check failed.
bool runSweep() {
  unsigned mtThreads = std::thread::hardware_concurrency();
  if (mtThreads == 0) mtThreads = 1;
  if (const char* env = std::getenv("BENCH_COMPOSE_THREADS"))
    mtThreads = static_cast<unsigned>(std::strtoul(env, nullptr, 10));

  // BENCH_COMPOSE_ONLY=otf runs just the E15 sweep (fast verification of
  // the fused engine; the JSON then has empty E12-E14 and E16 sections).
  const char* only = std::getenv("BENCH_COMPOSE_ONLY");
  if (only && std::string(only) == "otf") {
    std::vector<OtfResultRow> otf;
    bool ok = runOtfSweep(otf);
    writeJson({}, {}, {}, otf, {}, mtThreads);
    return ok;
  }

  std::printf("== E12: flat-storage compose/aggregate core vs seed ==\n");
  std::printf("%-10s %12s %12s %12s %9s %9s  %s\n", "config", "seed [s]",
              "flat 1t [s]", "flat mt [s]", "x1t", "xmt", "measures");
  std::vector<ConfigResult> results;
  bool ok = true;
  for (const benchcompose::SeedBaseline& base : benchcompose::seedBaselines()) {
    dft::Dft d = treeFor(base.name);
    // Symmetry and static combination off: the baseline was captured with
    // neither (E13/E14 below measure them against this same protocol).
    RunResult oneThread = timeCold(d, 1, /*symmetry=*/false,
                                   /*staticCombine=*/false, /*onTheFly=*/false);
    RunResult parallel =
        timeCold(d, mtThreads, /*symmetry=*/false, /*staticCombine=*/false,
                 /*onTheFly=*/false);
    ConfigResult r;
    r.name = base.name;
    r.seedWall = base.wallSeconds;
    r.wall1t = oneThread.wallSeconds;
    r.wallMt = parallel.wallSeconds;
    r.peakStates = oneThread.peakStates;
    r.peakTransitions = oneThread.peakTransitions;
    r.valuesOk = agreeTo1e9(oneThread.values, base.values) &&
                 agreeTo1e9(parallel.values, base.values) &&
                 oneThread.values == parallel.values;
    r.hasNan = anyNan(oneThread.values) || anyNan(parallel.values);
    if (!r.valuesOk || r.hasNan) ok = false;
    std::printf("%-10s %12.6f %12.6f %12.6f %8.2fx %8.2fx  %s\n",
                r.name.c_str(), r.seedWall, r.wall1t, r.wallMt,
                r.seedWall / r.wall1t, r.seedWall / r.wallMt,
                r.hasNan ? "NaN — BUG" : (r.valuesOk ? "ok" : "MISMATCH"));
    results.push_back(std::move(r));
  }
  std::printf("\n");
  std::vector<SymmetryResult> symmetry;
  if (!runSymmetrySweep(symmetry)) ok = false;
  std::vector<StaticCombineResult> staticCombine;
  if (!runStaticCombineSweep(staticCombine)) ok = false;
  std::vector<OtfResultRow> otf;
  if (!runOtfSweep(otf)) ok = false;
  std::vector<CliffRow> cliffs;
  if (!runCliffSweep(cliffs)) ok = false;
  writeJson(results, symmetry, staticCombine, otf, cliffs, mtThreads);
  std::printf("\n");
  return ok;
}

}  // namespace

int main() { return runSweep() ? 0 : 1; }
