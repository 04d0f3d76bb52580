#pragma once

#include <string>
#include <vector>

#include "analysis/converter.hpp"
#include "analysis/engine.hpp"
#include "analysis/extract.hpp"
#include "analysis/report.hpp"
#include "analysis/request.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "dft/model.hpp"

/// \file measures.hpp
/// The original free-function facade: DFT in, reliability measures out.
///
/// \deprecated This surface is kept for compatibility and produces the
/// exact same numbers as before, but every function here is now a thin
/// wrapper over a one-shot Analyzer session (analysis/analyzer.hpp).  New
/// code should create an Analyzer and submit AnalysisRequests: a session
/// amortizes composition across measures, time grids and scenario variants
/// through its whole-tree and per-module caches, none of which these free
/// functions can offer.  See README.md for the migration table.

namespace imcdft::analysis {

/// Runs conversion, compositional aggregation and extraction.
/// \deprecated Equivalent to Analyzer().analyze(AnalysisRequest::forDft(
/// dft).withOptions(opts)) — use the session API to get caching.
DftAnalysis analyzeDft(const dft::Dft& dft, const AnalysisOptions& opts = {});

/// P(system failed by time t), the paper's headline measure.  Requires a
/// deterministic model; see unreliabilityBounds() otherwise.
/// \deprecated Prefer MeasureSpec::unreliability on an Analyzer request.
double unreliability(const DftAnalysis& analysis, double missionTime);

/// Unreliability evaluated at several mission times.  \p transient carries
/// the uniformization tolerances and, for budgeted requests, the
/// cancellation token checkpointed on every sweep step.
/// \deprecated Prefer MeasureSpec::unreliability with a time grid.
std::vector<double> unreliabilityCurve(
    const DftAnalysis& analysis, const std::vector<double>& times,
    const ctmc::TransientOptions& transient = {});

/// [min, max] over schedulers, for nondeterministic models (also valid for
/// deterministic ones, where both bounds coincide).  \p cancel, when set,
/// is checkpointed once per value-iteration step.
/// \deprecated Prefer MeasureSpec::unreliabilityBounds.
ctmdp::ReachabilityBounds unreliabilityBounds(
    const DftAnalysis& analysis, double missionTime,
    const CancelToken* cancel = nullptr);

/// P(system is down at time t) for repairable models (Section 7.2).
/// \deprecated Prefer MeasureSpec::unavailability.
double unavailability(const DftAnalysis& analysis, double t,
                      const ctmc::TransientOptions& transient = {});

/// Long-run fraction of time the system is down (repairable models).
/// \p cancel, when set, is checkpointed once per power-iteration step.
/// \deprecated Prefer MeasureSpec::steadyStateUnavailability.
double steadyStateUnavailability(const DftAnalysis& analysis,
                                 const CancelToken* cancel = nullptr);

/// Extraction of the *non-absorbed* model, memoized on the analysis
/// (shared by the unavailability measures; throws on nondeterminism).
/// The memo (DftAnalysis::fullMemo) is installed with a first-write-wins
/// compare-and-swap, so one analysis may be shared across threads.
const Extraction& fullExtraction(const DftAnalysis& analysis);

}  // namespace imcdft::analysis
