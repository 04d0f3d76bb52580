#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/converter.hpp"
#include "analysis/engine.hpp"
#include "dft/model.hpp"

/// \file request.hpp
/// The typed request side of the Analyzer session API: what to analyze
/// (a DFT given in memory, as Galileo text, or as a file path), which
/// measures to evaluate (each with its own time grid), and the
/// conversion/engine knobs to use.  Settings that hold for a whole session
/// (cache capacities, the persistent store directory) are AnalyzerOptions,
/// not request options.  See analysis/analyzer.hpp for the session object
/// that consumes requests and analysis/report.hpp for the response side.

namespace imcdft::analysis {

/// Knobs of the conversion/composition pipeline.
struct AnalysisOptions {
  ConversionOptions conversion;
  EngineOptions engine;
};

enum class MeasureKind : std::uint8_t {
  /// P(system failed by t) over the request's time grid.  On
  /// nondeterministic models the Analyzer substitutes scheduler bounds and
  /// attaches a warning diagnostic instead of failing.
  Unreliability,
  /// [min, max] over schedulers at each grid point (valid for
  /// deterministic models too, where the bounds coincide).
  UnreliabilityBounds,
  /// P(system down at t) over the grid; repairable deterministic models.
  Unavailability,
  /// Long-run fraction of time the system is down; repairable models.
  SteadyStateUnavailability,
  /// Mean time to failure (expected first hitting time of the top event).
  Mttf,
};

/// Resource budget of one request (see common/cancel.hpp for the token it
/// becomes).  All limits default to 0 = unlimited.  A budget never changes
/// an answer — only whether the request completes: a tripped request
/// unwinds with a typed BudgetExceeded (pipeline phase) or degrades to a
/// partial report with a Warning diagnostic (measure phase), and a re-run
/// with a larger budget is bitwise identical to an unbudgeted run.
struct Budget {
  /// Wall-clock deadline in seconds, measured from the start of analyze().
  double deadlineSeconds = 0.0;
  /// Cap on the live states of any single pipeline step (compose product,
  /// on-the-fly live region, refinement input).
  std::size_t maxLiveStates = 0;
  /// Rough memory cap over a step's live model (states and transitions
  /// charged at nominal per-item sizes; a coarse runaway guard).
  std::size_t maxMemoryBytes = 0;
  /// Deterministic cap: trip at exactly the Nth cancellation checkpoint.
  /// A test hook — production budgets use the limits above.
  std::uint64_t maxCheckpoints = 0;

  bool limited() const {
    return deadlineSeconds > 0.0 || maxLiveStates > 0 || maxMemoryBytes > 0 ||
           maxCheckpoints > 0;
  }
};

/// One requested measure.  Time-dependent kinds carry a grid of mission
/// times; the scalar kinds ignore it.
struct MeasureSpec {
  MeasureKind kind = MeasureKind::Unreliability;
  std::vector<double> times;

  static MeasureSpec unreliability(std::vector<double> times) {
    return {MeasureKind::Unreliability, std::move(times)};
  }
  static MeasureSpec unreliabilityBounds(std::vector<double> times) {
    return {MeasureKind::UnreliabilityBounds, std::move(times)};
  }
  static MeasureSpec unavailability(std::vector<double> times) {
    return {MeasureKind::Unavailability, std::move(times)};
  }
  static MeasureSpec steadyStateUnavailability() {
    return {MeasureKind::SteadyStateUnavailability, {}};
  }
  static MeasureSpec mttf() { return {MeasureKind::Mttf, {}}; }
};

/// Human-readable name of a measure kind (reports and CLI output).
const char* measureKindName(MeasureKind kind);

/// A self-contained unit of work for the Analyzer: one DFT plus any number
/// of measures.  Build with one of the factories, then chain measure()
/// calls:
///
/// \code
///   AnalysisRequest req = AnalysisRequest::forDft(tree, "baseline")
///                             .measure(MeasureSpec::unreliability({1.0}))
///                             .measure(MeasureSpec::mttf());
/// \endcode
struct AnalysisRequest {
  enum class Source : std::uint8_t { InMemory, GalileoText, GalileoFile };

  Source source = Source::InMemory;
  /// Filled for InMemory requests.
  std::optional<dft::Dft> tree;
  /// Galileo text (GalileoText) or file path (GalileoFile).
  std::string galileo;
  /// Scenario name echoed in the report (batch bookkeeping).
  std::string label;
  std::vector<MeasureSpec> measures;
  AnalysisOptions options;
  /// Resource budget (deadline / live-state / memory caps); default
  /// unlimited.  Deliberately not part of any cache key: budgets never
  /// change answers.
  Budget budget;
  /// Stable request/trace id echoed in the report, stamped on every span
  /// this request emits (the Chrome trace "pid") and printed in serve-mode
  /// slot headers and slow-request log lines, so a trace file, a
  /// diagnostic and a serve summary row can be joined.  0 = let the
  /// Analyzer assign the next id from a process-wide counter.
  std::uint64_t requestId = 0;

  static AnalysisRequest forDft(dft::Dft tree, std::string label = "") {
    AnalysisRequest req;
    req.source = Source::InMemory;
    req.tree = std::move(tree);
    req.label = std::move(label);
    return req;
  }
  static AnalysisRequest forGalileo(std::string text, std::string label = "") {
    AnalysisRequest req;
    req.source = Source::GalileoText;
    req.galileo = std::move(text);
    req.label = std::move(label);
    return req;
  }
  static AnalysisRequest forGalileoFile(std::string path,
                                        std::string label = "") {
    AnalysisRequest req;
    req.source = Source::GalileoFile;
    req.galileo = std::move(path);
    req.label = std::move(label);
    return req;
  }

  AnalysisRequest& measure(MeasureSpec spec) {
    measures.push_back(std::move(spec));
    return *this;
  }
  AnalysisRequest& withOptions(AnalysisOptions opts) {
    options = std::move(opts);
    return *this;
  }
  AnalysisRequest& withBudget(Budget b) {
    budget = b;
    return *this;
  }
  AnalysisRequest& withRequestId(std::uint64_t id) {
    requestId = id;
    return *this;
  }
};

}  // namespace imcdft::analysis
