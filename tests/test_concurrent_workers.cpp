#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/threads.hpp"
#include "obs/trace.hpp"

/// \file test_concurrent_workers.cpp
/// runOnThreads, the one thread starter of the library and its tools: every
/// task runs exactly once whatever the thread count, the calling thread is
/// one of the workers, helpers carry the caller's trace context, and a
/// helper's exception reaches the caller only after every thread joined.
/// The suite name matches the TSan job's 'Concurrent' filter.  (A system
/// that cannot start a helper is checked end to end by the
/// cli.dftimc_serve_thread_start_fails test.)

namespace imcdft {
namespace {

/// Runs \p tasks indices through runOnThreads(\p threads, ...) and returns
/// how often each ran, plus the ids of the threads that ran the loop.
struct Sweep {
  std::vector<int> runs;
  std::set<std::thread::id> threads;
};

Sweep sweep(unsigned threads, std::size_t tasks) {
  std::vector<std::atomic<int>> runs(tasks);
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  Sweep out;
  runOnThreads(threads, tasks, [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      out.threads.insert(std::this_thread::get_id());
    }
    for (std::size_t i; (i = next.fetch_add(1)) < tasks;) ++runs[i];
  });
  for (const std::atomic<int>& r : runs) out.runs.push_back(r.load());
  return out;
}

TEST(ConcurrentWorkers, EachIndexRunsExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u})
    for (std::size_t tasks : {0, 1, 2, 3, 7, 1000}) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " thread(s), " << tasks << " task(s)");
      const Sweep s = sweep(threads, tasks);
      EXPECT_EQ(s.runs, std::vector<int>(tasks, 1));
      // Never more threads than tasks, and the caller runs even with none.
      const std::size_t used = std::min<std::size_t>(threads, tasks);
      EXPECT_EQ(s.threads.size(), std::max<std::size_t>(used, 1));
    }
}

TEST(ConcurrentWorkers, CallingThreadIsAWorker) {
  for (unsigned threads : {1u, 2u, 8u}) {
    const Sweep s = sweep(threads, 64);
    EXPECT_EQ(s.threads.count(std::this_thread::get_id()), 1u) << threads;
  }
}

TEST(ConcurrentWorkers, ZeroMeansOnePerHardwareThread) {
  EXPECT_EQ(threadCount(3), 3u);
  EXPECT_GE(threadCount(0), 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0) {
    EXPECT_EQ(threadCount(0), hw);
  }
  EXPECT_EQ(sweep(0, 1000).threads.size(), threadCount(0));
}

TEST(ConcurrentWorkers, HelpersSeeTheCallersTraceContext) {
  const std::uint64_t outside = obs::currentTraceContext();
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::vector<std::uint64_t> seen;
  {
    obs::ScopedTraceContext ctx(4242);
    runOnThreads(4, 4, [&] {
      std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
      seen.push_back(obs::currentTraceContext());
    });
  }
  EXPECT_EQ(threads.size(), 4u);
  EXPECT_EQ(seen, std::vector<std::uint64_t>(4, 4242));
  EXPECT_EQ(obs::currentTraceContext(), outside);
}

TEST(ConcurrentWorkers, HelperExceptionIsRethrownAfterTheJoin) {
  // One helper throws at once; the other three loops keep running for a
  // while.  The caller must see the helper's exception, and only after
  // every other loop has finished.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  std::atomic<int> finished{0};
  try {
    runOnThreads(4, 4, [&] {
      if (std::this_thread::get_id() != caller && !thrown.exchange(true))
        throw std::runtime_error("helper failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++finished;
    });
    FAIL() << "expected the helper's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "helper failed");
  }
  EXPECT_TRUE(thrown.load());
  EXPECT_EQ(finished.load(), 3);
}

TEST(ConcurrentWorkers, CallerExceptionWaitsForTheHelpers) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> finished{0};
  EXPECT_THROW(runOnThreads(3, 3,
                            [&] {
                              if (std::this_thread::get_id() == caller)
                                throw std::logic_error("caller failed");
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(50));
                              ++finished;
                            }),
               std::logic_error);
  EXPECT_EQ(finished.load(), 2);
}

}  // namespace
}  // namespace imcdft
