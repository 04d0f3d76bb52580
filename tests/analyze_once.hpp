#pragma once

#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"

/// \file analyze_once.hpp
/// One-request helper for the suites that check measure values against
/// closed forms and independent solvers.

namespace imcdft::analysis {

/// Serves one request for \p tree through the compose -> hide ->
/// aggregate pipeline, on a fresh session.  The session starts with empty
/// caches, so every composition step of the request runs and shows in the
/// report's stats.  (A request can still splice a module that it cached
/// itself: after a static-combination fallback, the full pipeline finds
/// the frontier modules' sub-modules that the numeric attempt stored.)
/// Static combination is switched off, so that cannot happen here and the
/// pipeline does not depend on which measures are asked for (the numeric
/// path has its own suite, test_static_combine.cpp).
inline AnalysisReport analyzeOnce(dft::Dft tree,
                                  std::vector<MeasureSpec> measures = {},
                                  AnalysisOptions opts = {}) {
  opts.engine.staticCombine = false;
  AnalysisRequest request =
      AnalysisRequest::forDft(std::move(tree)).withOptions(std::move(opts));
  request.measures = std::move(measures);
  return Analyzer().analyze(request);
}

}  // namespace imcdft::analysis
