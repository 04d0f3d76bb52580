#include "fuzz/oracle.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "analysis/analyzer.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "dft/modules.hpp"
#include "simulation/simulator.hpp"

namespace imcdft::fuzz {

namespace {

std::uint64_t bitsOf(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

bool sameBits(double a, double b) { return bitsOf(a) == bitsOf(b); }

/// Hexfloat rendering: divergence reports must identify the exact bit
/// pattern, %g would round two different doubles to the same text.
std::string hexFloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string shortFloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// One exact-engine configuration of the oracle matrix.
struct ExactConfig {
  const char* name;
  analysis::Reference reference;
  unsigned threads;
  bool symmetry;
  bool staticCombine;
};

analysis::AnalysisReport runConfig(
    const dft::Dft& tree, const std::vector<analysis::MeasureSpec>& measures,
    const ExactConfig& config, const OracleOptions& opts) {
  // Fresh session per configuration: the Analyzer's cache key deliberately
  // ignores knobs that are engineered not to change answers (threads,
  // budgets), so a shared session would serve most of this matrix from
  // cache and the comparison would test the cache, not the engines.
  analysis::Analyzer session;
  analysis::AnalysisRequest request =
      analysis::AnalysisRequest::forDft(tree, config.name);
  for (const analysis::MeasureSpec& m : measures) request.measure(m);
  request.options.engine.reference = config.reference;
  request.options.engine.numThreads = config.threads;
  request.options.engine.symmetry = config.symmetry;
  request.options.engine.staticCombine = config.staticCombine;
  request.budget.deadlineSeconds = opts.deadlineSeconds;
  request.budget.maxLiveStates = opts.maxLiveStates;
  return session.analyze(request);
}

/// Compares \p other against the reference report measure-by-measure.
/// Returns the empty string on agreement, else the first divergence.
/// With \p bitwise every double must match bit-for-bit; otherwise the
/// (relTol, absFloor) band applies (the static-combine path).
std::string compareReports(const analysis::AnalysisReport& ref,
                           const analysis::AnalysisReport& other,
                           const char* otherName, bool bitwise, double relTol,
                           double absFloor) {
  auto close = [&](double a, double b) {
    if (sameBits(a, b)) return true;
    if (std::isnan(a) || std::isnan(b)) return false;
    if (bitwise) return false;
    const double diff = std::fabs(a - b);
    if (diff <= absFloor) return true;
    return diff <= relTol * std::max(std::fabs(a), std::fabs(b));
  };
  auto where = [&](const analysis::MeasureResult& m, std::size_t i) {
    std::string loc = std::string(otherName) + " vs reference: " +
                      analysis::measureKindName(m.spec.kind);
    if (i < m.spec.times.size()) loc += "[t=" + shortFloat(m.spec.times[i]) + ']';
    return loc;
  };

  if (ref.measures.size() != other.measures.size())
    return std::string(otherName) + " vs reference: measure count " +
           std::to_string(other.measures.size()) + " != " +
           std::to_string(ref.measures.size());
  for (std::size_t m = 0; m < ref.measures.size(); ++m) {
    const analysis::MeasureResult& a = ref.measures[m];
    const analysis::MeasureResult& b = other.measures[m];
    if (a.ok != b.ok)
      return where(a, a.spec.times.size()) +
             (b.ok ? " succeeded only in " + std::string(otherName)
                   : " failed only in " + std::string(otherName) + ": " +
                         b.error);
    if (!a.ok) continue;
    if (a.boundsSubstituted != b.boundsSubstituted)
      return where(a, a.spec.times.size()) +
             ": nondeterminism detected by only one engine (bounds "
             "substituted: reference=" +
             std::to_string(a.boundsSubstituted) + ", " + otherName + "=" +
             std::to_string(b.boundsSubstituted) + ')';
    if (a.values.size() != b.values.size() || a.bounds.size() != b.bounds.size())
      return where(a, a.spec.times.size()) + ": result shape mismatch";
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      if (std::isnan(a.values[i]) || std::isnan(b.values[i]))
        return where(a, i) + ": NaN (reference=" + hexFloat(a.values[i]) +
               ", " + otherName + '=' + hexFloat(b.values[i]) + ')';
      if (!close(a.values[i], b.values[i]))
        return where(a, i) + ": " + hexFloat(b.values[i]) +
               " != " + hexFloat(a.values[i]) +
               (bitwise ? " (bitwise contract)" : " (beyond 1e-9 band)");
    }
    for (std::size_t i = 0; i < a.bounds.size(); ++i) {
      if (!close(a.bounds[i].lower, b.bounds[i].lower) ||
          !close(a.bounds[i].upper, b.bounds[i].upper))
        return where(a, i) + ": bounds [" + hexFloat(b.bounds[i].lower) +
               ", " + hexFloat(b.bounds[i].upper) + "] != [" +
               hexFloat(a.bounds[i].lower) + ", " +
               hexFloat(a.bounds[i].upper) + ']' +
               (bitwise ? " (bitwise contract)" : " (beyond 1e-9 band)");
    }
  }
  return {};
}

double logBinomPmf(std::uint64_t n, std::uint64_t k, double p) {
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  return std::lgamma(dn + 1.0) - std::lgamma(dk + 1.0) -
         std::lgamma(dn - dk + 1.0) + dk * std::log(p) +
         (dn - dk) * std::log1p(-p);
}

/// One-sided binomial tail: P(X >= k) when \p upper, else P(X <= k), for
/// X ~ Binomial(n, p).  Summed with the pmf ratio recurrence from the
/// boundary term inward; once past the mode the terms decay geometrically
/// so the early break is sound.
double binomTail(std::uint64_t n, std::uint64_t k, double p, bool upper) {
  if (p <= 0.0) return upper ? (k == 0 ? 1.0 : 0.0) : 1.0;
  if (p >= 1.0) return upper ? 1.0 : (k == n ? 1.0 : 0.0);
  double sum = 0.0;
  double term = std::exp(logBinomPmf(n, k, p));
  if (upper) {
    for (std::uint64_t i = k;; ++i) {
      sum += term;
      if (i == n) break;
      const double next = term * (static_cast<double>(n - i) /
                                  static_cast<double>(i + 1)) *
                          (p / (1.0 - p));
      if (next < term && next < sum * 1e-16) break;
      term = next;
    }
  } else {
    for (std::uint64_t i = k;; --i) {
      sum += term;
      if (i == 0) break;
      const double next = term * (static_cast<double>(i) /
                                  static_cast<double>(n - i + 1)) *
                          ((1.0 - p) / p);
      if (next < term && next < sum * 1e-16) break;
      term = next;
    }
  }
  return std::min(sum, 1.0);
}

/// Coverage check of one simulated estimate against the exact result at
/// grid point \p i.  Because the exact probability is known, the decision
/// rule is an exact binomial tail test — "how surprising are these hits
/// under p?" — not Wilson-interval containment, whose actual coverage
/// degrades badly in the far tails (1 hit on a ~1e-5 event puts the
/// Wilson lower bound above the truth ~2% of the time, which at fuzzing
/// volume is a steady stream of false alarms).  The per-check false-alarm
/// rate is the one-sided normal tail of simZ (~5e-7 at z=4.9).  When the
/// exact engine substituted scheduler bounds the simulator (one
/// scheduler) must merely be plausible for *some* p in [lower, upper], so
/// the tail is taken at the nearest endpoint.
std::string checkCoverage(const analysis::MeasureResult& exact, std::size_t i,
                          const simulation::Estimate& est,
                          const OracleOptions& opts) {
  const double alpha = 0.5 * std::erfc(opts.simZ / std::sqrt(2.0));
  const double pHat =
      static_cast<double>(est.hits) / static_cast<double>(est.runs);
  const std::string at = std::string(analysis::measureKindName(exact.spec.kind)) +
                         "[t=" + shortFloat(exact.spec.times[i]) + ']';
  const auto describe = [&](double p, double tail) {
    return ": " + std::to_string(est.hits) + '/' + std::to_string(est.runs) +
           " hits is implausible under p=" + shortFloat(p) +
           " (tail " + shortFloat(tail) + " < alpha " + shortFloat(alpha) +
           ')';
  };
  if (exact.boundsSubstituted) {
    const double lower = exact.bounds[i].lower;
    const double upper = exact.bounds[i].upper;
    if (pHat > upper) {
      const double tail = binomTail(est.runs, est.hits, upper, /*upper=*/true);
      if (tail < alpha)
        return "simulator vs bounds: " + at + describe(upper, tail) +
               " — above scheduler bounds [" + shortFloat(lower) + ", " +
               shortFloat(upper) + ']';
    } else if (pHat < lower) {
      const double tail = binomTail(est.runs, est.hits, lower, /*upper=*/false);
      if (tail < alpha)
        return "simulator vs bounds: " + at + describe(lower, tail) +
               " — below scheduler bounds [" + shortFloat(lower) + ", " +
               shortFloat(upper) + ']';
    }
    return {};
  }
  const double v = exact.values[i];
  if (std::isnan(v))
    return "simulator vs reference: " + at + ": exact value is NaN";
  const double tail = binomTail(est.runs, est.hits, v, /*upper=*/pHat >= v);
  if (tail < alpha)
    return "simulator vs reference: " + at + describe(v, tail);
  return {};
}

}  // namespace

OracleVerdict crossCheck(const dft::Dft& tree, const OracleOptions& opts) {
  OracleVerdict verdict;
  verdict.repairable = tree.isRepairable();
  verdict.staticEligible = dft::detectStaticLayer(tree).eligible;

  std::vector<analysis::MeasureSpec> measures;
  measures.push_back(analysis::MeasureSpec::unreliability(opts.times));
  if (verdict.repairable)
    measures.push_back(analysis::MeasureSpec::unavailability(opts.times));

  // The exact-engine matrix.  Row 0 is the reference (Production on one
  // thread with symmetry off: the paper's compose/hide/aggregate chain on
  // every merge whose product fits the cap, the fused engine on the
  // others); each later row enables features whose contract is bitwise
  // identity with row 0: every step through the fused engine (FusedChain),
  // then threads and symmetry.
  // The last row routes through the static-combine numeric path where
  // eligible, whose contract is the 1e-9 band instead.
  const ExactConfig configs[] = {
      {"reference", analysis::Reference::Production, 1, false, false},
      {"otf", analysis::Reference::FusedChain, 1, false, false},
      {"parallel", analysis::Reference::Production, opts.parallelThreads, true,
       false},
      {"static", analysis::Reference::Production, 1, true, true},
  };

  std::vector<analysis::AnalysisReport> reports;
  reports.reserve(std::size(configs));
  for (const ExactConfig& config : configs) {
    try {
      reports.push_back(runConfig(tree, measures, config, opts));
    } catch (const BudgetExceeded& e) {
      verdict.status = OracleStatus::Skipped;
      verdict.detail =
          std::string(config.name) + ": over budget: " + e.what();
      return verdict;
    } catch (const UnsupportedError& e) {
      verdict.status = OracleStatus::Skipped;
      verdict.detail =
          std::string(config.name) + ": unsupported tree: " + e.what();
      return verdict;
    }
  }
  verdict.nondeterministic = reports[0].nondeterministic();
  verdict.configsCompared = reports.size();

  for (std::size_t c = 1; c < reports.size(); ++c) {
    const bool bitwise = !configs[c].staticCombine;
    std::string diff =
        compareReports(reports[0], reports[c], configs[c].name, bitwise,
                       opts.numericRelTol, opts.numericAbsFloor);
    if (!diff.empty()) {
      verdict.status = OracleStatus::Disagree;
      verdict.detail = std::move(diff);
      return verdict;
    }
  }

  if (opts.simRuns > 0) {
    for (const analysis::MeasureResult& exact : reports[0].measures) {
      if (!exact.ok) continue;
      for (std::size_t i = 0; i < exact.spec.times.size(); ++i) {
        const double t = exact.spec.times[i];
        const simulation::SimulationOptions simOpts{opts.simRuns, opts.simSeed,
                                                    0};
        const simulation::Estimate est =
            exact.spec.kind == analysis::MeasureKind::Unavailability
                ? simulation::simulateUnavailability(tree, t, simOpts)
                : simulation::simulateUnreliability(tree, t, simOpts);
        std::string diff = checkCoverage(exact, i, est, opts);
        if (!diff.empty()) {
          verdict.status = OracleStatus::Disagree;
          verdict.detail = std::move(diff);
          return verdict;
        }
      }
    }
  }
  return verdict;
}

std::string replayCommand(const std::string& reproPath,
                          const OracleOptions& opts) {
  std::string cmd = "dftimc";
  for (double t : opts.times) cmd += " --time " + shortFloat(t);
  cmd += " --bounds";
  if (opts.simRuns > 0)
    cmd += " --simulate --runs " + std::to_string(opts.simRuns) + " --seed " +
           std::to_string(opts.simSeed);
  cmd += ' ' + reproPath;
  cmd += " && dftfuzz --check " + reproPath;
  return cmd;
}

}  // namespace imcdft::fuzz
