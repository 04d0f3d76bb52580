#pragma once

#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"

/// \file analyze_once.hpp
/// One-request helper for the suites that check measure values against
/// closed forms and independent solvers.

namespace imcdft::analysis {

/// Serves one request for \p tree through the compose -> hide ->
/// aggregate pipeline, on a fresh session with the tree and module caches
/// off.  Every composition step of the request then runs and shows in the
/// report's stats: a cached session could splice a module into a later
/// part of the same request.  Static combination is switched off, so the
/// pipeline does not depend on which measures are asked for (the numeric
/// path has its own suite, test_static_combine.cpp).
inline AnalysisReport analyzeOnce(dft::Dft tree,
                                  std::vector<MeasureSpec> measures = {},
                                  AnalysisOptions opts = {}) {
  AnalyzerOptions session;
  session.cache = false;
  opts.engine.staticCombine = false;
  AnalysisRequest request =
      AnalysisRequest::forDft(std::move(tree)).withOptions(std::move(opts));
  request.measures = std::move(measures);
  return Analyzer(session).analyze(request);
}

}  // namespace imcdft::analysis
