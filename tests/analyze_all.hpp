#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/threads.hpp"

/// \file analyze_all.hpp
/// Many requests on one session: the loop over Analyzer::analyze() that a
/// batch caller brings itself.

namespace imcdft::analysis {

/// Serves \p requests on \p session and returns one report each, in
/// request order.  With \p threads 1 the requests run in order on the
/// calling thread; otherwise they are drawn from a shared index by
/// runOnThreads(\p threads, ...), 0 meaning one thread per hardware
/// thread.  The first exception, if any, is rethrown after every thread
/// has finished.
inline std::vector<AnalysisReport> analyzeAll(
    Analyzer& session, const std::vector<AnalysisRequest>& requests,
    unsigned threads = 1) {
  std::vector<AnalysisReport> reports(requests.size());
  std::atomic<std::size_t> next{0};
  runOnThreads(threads, requests.size(), [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < requests.size();)
      reports[i] = session.analyze(requests[i]);
  });
  return reports;
}

}  // namespace imcdft::analysis
