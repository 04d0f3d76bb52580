#include "common/cancel.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace imcdft {

void CancelToken::throwExceeded(const char* where, std::size_t liveStates,
                                const std::string& what) const {
  // Every budget trip funnels through here: one instant event on the trace
  // (joinable with the request's diagnostics via the trace context) and one
  // central counter, then the typed unwind.
  obs::traceInstant("budget-trip", where, {{"live_states", liveStates}});
  static obs::Counter& trips =
      obs::MetricsRegistry::global().counter("budget.trips");
  trips.add();
  throw BudgetExceeded(where, elapsedSeconds(), liveStates,
                       "budget exceeded at " + std::string(where) + ": " +
                           what);
}

void CancelToken::checkpoint(const char* where, std::size_t liveStates,
                             std::size_t liveTransitions) const {
  const std::uint64_t count =
      checkpoints_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cancelled_.load(std::memory_order_acquire)) {
    std::string reason;
    {
      std::lock_guard<std::mutex> lock(reasonMutex_);
      reason = cancelReason_;
    }
    throwExceeded(where, liveStates, reason);
  }
  if (maxCheckpoints_ > 0 && count >= maxCheckpoints_)
    throwExceeded(where, liveStates,
                  "checkpoint budget of " + std::to_string(maxCheckpoints_) +
                      " exhausted");
  if (exceedsCaps(liveStates, liveTransitions)) {
    if (maxLiveStates_ > 0 && liveStates > maxLiveStates_)
      throwExceeded(where, liveStates,
                    std::to_string(liveStates) +
                        " live states exceed the cap of " +
                        std::to_string(maxLiveStates_));
    // Appended, not prefixed: `"~" + std::to_string(n)` draws a false
    // -Wrestrict from g++ 12.2 (GCC bug 105651).
    std::string what = "~";
    what += std::to_string(roughBytes(liveStates, liveTransitions));
    throwExceeded(where, liveStates,
                  what + " bytes of live model exceed the rough cap of " +
                      std::to_string(maxMemoryBytes_) + " bytes");
  }
  if (deadlineSeconds_ > 0.0) {
    const double elapsed = elapsedSeconds();
    if (elapsed > deadlineSeconds_)
      throwExceeded(where, liveStates,
                    "deadline of " + std::to_string(deadlineSeconds_) +
                        "s passed (" + std::to_string(elapsed) +
                        "s elapsed)");
  }
}

}  // namespace imcdft
