#include <dlfcn.h>
#include <pthread.h>

#include <atomic>
#include <cerrno>

/// \file fail_thread_start.cpp
/// An LD_PRELOAD shim for tests: the first pthread_create of the process
/// starts its thread, and every later one fails with EAGAIN, as on a
/// system that has run out of threads.  tests/serve_thread_start_fails.sh
/// runs `dftimc --serve` under it.

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) noexcept {
  static std::atomic<unsigned> calls{0};
  if (calls.fetch_add(1) != 0) return EAGAIN;
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
  const auto next =
      reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  return next ? next(thread, attr, start, arg) : EAGAIN;
}
