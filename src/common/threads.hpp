#pragma once

#include <cstddef>
#include <functional>

/// \file threads.hpp
/// The one thread starter of the library and its tools (the engine's module
/// tree, `dftimc --serve`, the `dftfuzz` sweep).

namespace imcdft {

/// The thread count \p requested stands for: 0 means
/// std::thread::hardware_concurrency(), and the result is at least 1.
unsigned threadCount(unsigned requested);

/// Runs \p loop on the calling thread and on up to
/// min(threadCount(\p requested), \p tasks) - 1 helper threads; \p loop
/// pulls its own work until none is left.  A helper the system cannot
/// start leaves its share to the threads that run.  Helpers inherit the
/// caller's trace context (obs::currentTraceContext).  The first exception
/// \p loop throws on any thread is rethrown on the caller once every helper
/// has joined; a loop that must stop the others signals them itself.
void runOnThreads(unsigned requested, std::size_t tasks,
                  const std::function<void()>& loop);

}  // namespace imcdft
