#pragma once

#include "analysis/analyzer.hpp"

/// \file bench_util.hpp
/// Shared helpers for the benchmark harnesses: the benches time the *cold*
/// pipeline (caching disabled) unless the cache is the subject
/// (bench_batch).

namespace benchutil {

inline imcdft::analysis::AnalyzerOptions coldOptions() {
  imcdft::analysis::AnalyzerOptions opts;
  opts.cacheTrees = false;
  opts.cacheModules = false;
  return opts;
}

/// One-shot, uncached analysis of a request.
inline imcdft::analysis::AnalysisReport analyzeCold(
    const imcdft::analysis::AnalysisRequest& request) {
  imcdft::analysis::Analyzer session(coldOptions());
  return session.analyze(request);
}

}  // namespace benchutil
