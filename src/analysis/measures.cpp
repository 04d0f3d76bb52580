#include "analysis/measures.hpp"

#include <memory>
#include <utility>

#include "analysis/analyzer.hpp"
#include "analysis/static_combine.hpp"
#include "common/error.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"

namespace imcdft::analysis {

DftAnalysis analyzeDft(const dft::Dft& dft, const AnalysisOptions& opts) {
  // One-shot session: no caching, same pipeline as Analyzer::analyze.
  AnalyzerOptions sessionOpts;
  sessionOpts.cacheTrees = false;
  sessionOpts.cacheModules = false;
  Analyzer session(sessionOpts);
  AnalysisReport report =
      session.analyze(AnalysisRequest::forDft(dft).withOptions(opts));
  return *report.analysis;
}

double unreliability(const DftAnalysis& analysis, double missionTime) {
  if (analysis.staticCombo)
    return analysis.staticCombo->unreliabilityCurve({missionTime}).front();
  require(!analysis.nondeterministic,
          "unreliability: the model is nondeterministic (FDEP simultaneity, "
          "Section 4.4); use unreliabilityBounds()");
  return ctmc::probabilityOfLabelAt(analysis.absorbed.chain, kDownLabel,
                                    missionTime);
}

std::vector<double> unreliabilityCurve(const DftAnalysis& analysis,
                                       const std::vector<double>& times,
                                       const ctmc::TransientOptions& transient) {
  if (analysis.staticCombo) {
    // The numeric path solves its module curves under its own (tighter)
    // tolerances; only the cancellation token is forwarded.
    return analysis.staticCombo->evaluate(
        times, [&](std::size_t index, const std::vector<double>& ts) {
          return analysis.staticCombo->solveCurve(index, ts, transient.cancel);
        });
  }
  require(!analysis.nondeterministic,
          "unreliability: the model is nondeterministic (FDEP simultaneity, "
          "Section 4.4); use unreliabilityBounds()");
  // One shared uniformization sweep for the whole grid (each point is
  // bitwise identical to a per-point unreliability() call).
  return ctmc::labelCurve(analysis.absorbed.chain, kDownLabel, times,
                          transient);
}

ctmdp::ReachabilityBounds unreliabilityBounds(const DftAnalysis& analysis,
                                              double missionTime,
                                              const CancelToken* cancel) {
  if (analysis.staticCombo) {
    // The numeric path only exists when every module is deterministic; the
    // scheduler bounds collapse onto the point value.
    const double v = unreliability(analysis, missionTime);
    return {v, v};
  }
  ctmdp::ReachabilityOptions opts;
  opts.cancel = cancel;
  return ctmdp::reachabilityBounds(analysis.absorbed.mdp, missionTime, opts);
}

const Extraction& fullExtraction(const DftAnalysis& analysis) {
  require(!analysis.staticCombo,
          "fullExtraction: not available under static combination (the "
          "joint model was never built); rerun with "
          "EngineOptions::staticCombine off");
  // Concurrent sessions share one DftAnalysis; the memo is installed with
  // a first-write-wins CAS.  Racing threads compute identical extractions
  // (the pipeline is deterministic), so whichever pointer lands is correct
  // and, being immutable afterwards, safe to return by reference.
  auto memo = std::atomic_load_explicit(&analysis.fullMemo,
                                        std::memory_order_acquire);
  if (!memo) {
    Extraction full = extract(analysis.closedModel, kDownLabel);
    require(full.deterministic,
            "unavailability: the model is nondeterministic; no "
            "scheduler-free answer exists");
    auto fresh = std::make_shared<const Extraction>(std::move(full));
    std::shared_ptr<const Extraction> expected;
    if (std::atomic_compare_exchange_strong(&analysis.fullMemo, &expected,
                                            fresh))
      memo = std::move(fresh);
    else
      memo = std::move(expected);
  }
  return *memo;
}

double unavailability(const DftAnalysis& analysis, double t,
                      const ctmc::TransientOptions& transient) {
  return ctmc::probabilityOfLabelAt(fullExtraction(analysis).chain, kDownLabel,
                                    t, transient);
}

double steadyStateUnavailability(const DftAnalysis& analysis,
                                 const CancelToken* cancel) {
  require(analysis.repairable,
          "steadyStateUnavailability: the tree is not repairable; the limit "
          "is trivially the probability of eventual failure");
  ctmc::SteadyStateOptions opts;
  opts.cancel = cancel;
  return ctmc::steadyStateLabelProbability(fullExtraction(analysis).chain,
                                           kDownLabel, opts);
}

}  // namespace imcdft::analysis
