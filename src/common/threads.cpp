#include "common/threads.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace imcdft {

unsigned threadCount(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

void runOnThreads(unsigned requested, std::size_t tasks,
                  const std::function<void()>& loop) {
  std::mutex errorMutex;
  std::exception_ptr firstError;
  auto guarded = [&] {
    try {
      loop();
    } catch (...) {
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!firstError) firstError = std::current_exception();
    }
  };
  const std::uint64_t traceCtx = obs::currentTraceContext();
  const std::size_t threads = std::min<std::size_t>(
      threadCount(requested), std::max<std::size_t>(tasks, 1));
  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);  // no reallocation once a helper runs
  try {
    while (helpers.size() + 1 < threads)
      helpers.emplace_back([&] {
        obs::ScopedTraceContext ctx(traceCtx);
        guarded();
      });
  } catch (const std::exception&) {
    // The helpers that started, and the caller, share the work.
  }
  guarded();
  for (std::thread& h : helpers) h.join();
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace imcdft
