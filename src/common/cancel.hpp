#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/error.hpp"

/// \file cancel.hpp
/// Cooperative cancellation and resource budgets.
///
/// A CancelToken carries a request's resource budget — wall-clock
/// deadline, peak-live-state cap, rough memory cap, deterministic
/// checkpoint-count cap, and an externally raised cancel flag — through
/// the analysis pipeline into the hot loops: the compose product
/// expansion, the signature-refinement iterations, the on-the-fly
/// frontier loop and the uniformization sweeps each call checkpoint()
/// once per unit of work.  A checkpoint that finds any limit exhausted
/// throws BudgetExceeded, which unwinds the whole pipeline cleanly: no
/// cache or store write happens on partial results (modules are only
/// published after full aggregation, store publishes are atomic renames),
/// so a tripped request leaves every session cache consistent and a
/// re-run with a larger budget is bitwise identical to an unbudgeted run.
///
/// Checkpoints are cheap when the token is absent (callers guard with
/// `if (cancel)`) and cheap when present: an atomic counter bump, a few
/// integer compares, and a steady_clock read only when a deadline is set.
/// The checkpoint-count cap exists for deterministic testing — "trip at
/// exactly the Nth checkpoint" exercises every unwind path without
/// depending on wall-clock or model-size thresholds.

namespace imcdft {

/// Thrown by CancelToken::checkpoint() when a budget limit is exhausted.
/// Carries where in the pipeline the trip happened and what was spent.
class BudgetExceeded : public Error {
 public:
  BudgetExceeded(std::string checkpoint, double elapsedSeconds,
                 std::size_t liveStates, const std::string& what)
      : Error(what),
        checkpoint_(std::move(checkpoint)),
        elapsedSeconds_(elapsedSeconds),
        liveStates_(liveStates) {}

  /// Pipeline site that observed the exhausted budget ("compose",
  /// "weak-refinement", "otf-frontier", "transient", ...).
  const std::string& checkpoint() const { return checkpoint_; }
  /// Wall-clock seconds spent since the token started.
  double elapsedSeconds() const { return elapsedSeconds_; }
  /// Live states at the tripping site (0 when the site tracks none).
  std::size_t liveStates() const { return liveStates_; }

 private:
  std::string checkpoint_;
  double elapsedSeconds_;
  std::size_t liveStates_;
};

/// One request's resource budget plus an external cancellation flag.
/// Thread-safe: checkpoint() may be called concurrently from engine
/// worker threads, cancel() from any thread.  All limits default to 0 =
/// unlimited; a token with no limits and no cancel() call never throws.
class CancelToken {
 public:
  CancelToken() : start_(Clock::now()) {}

  /// Wall-clock deadline, measured from construction.  <= 0 = unlimited.
  void limitDeadline(double seconds) { deadlineSeconds_ = seconds; }
  /// Cap on the live states any single checkpoint site may report.
  void limitLiveStates(std::size_t states) { maxLiveStates_ = states; }
  /// Rough memory cap: live states and transitions are charged at nominal
  /// per-item sizes (kStateBytes/kTransitionBytes) — a coarse guard
  /// against runaway product expansion, not an allocator account.
  void limitMemoryBytes(std::size_t bytes) { maxMemoryBytes_ = bytes; }
  /// Deterministic cap: the Nth checkpoint() call trips.  Test hook.
  void limitCheckpoints(std::uint64_t count) { maxCheckpoints_ = count; }

  /// Raises the external cancellation flag; the next checkpoint throws.
  void cancel(std::string reason) {
    {
      std::lock_guard<std::mutex> lock(reasonMutex_);
      if (cancelReason_.empty())
        cancelReason_ = reason.empty() ? "cancelled" : std::move(reason);
    }
    cancelled_.store(true, std::memory_order_release);
  }

  bool limited() const {
    return deadlineSeconds_ > 0.0 || maxLiveStates_ > 0 ||
           maxMemoryBytes_ > 0 || maxCheckpoints_ > 0;
  }

  /// The live-state cap (0 = unlimited).
  std::size_t maxLiveStates() const { return maxLiveStates_; }
  /// The rough memory cap in bytes (0 = unlimited).
  std::size_t maxMemoryBytes() const { return maxMemoryBytes_; }

  double elapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Checkpoints() so far (exposed so tests can calibrate count budgets).
  std::uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// One unit of cooperative-cancellation work at site \p where.  Throws
  /// BudgetExceeded when any limit is exhausted; otherwise returns.
  /// \p liveStates / \p liveTransitions describe the site's current live
  /// region (0 when the site tracks none).
  void checkpoint(const char* where, std::size_t liveStates = 0,
                  std::size_t liveTransitions = 0) const;

  /// True when a live region of \p liveStates states and \p liveTransitions
  /// transitions exceeds the live-state cap or the rough memory cap: the
  /// size test of checkpoint(), without counting a checkpoint or throwing.
  bool exceedsCaps(std::size_t liveStates, std::size_t liveTransitions) const {
    return (maxLiveStates_ > 0 && liveStates > maxLiveStates_) ||
           (maxMemoryBytes_ > 0 &&
            roughBytes(liveStates, liveTransitions) > maxMemoryBytes_);
  }

  /// Nominal per-item sizes behind limitMemoryBytes().
  static constexpr std::size_t kStateBytes = 64;
  static constexpr std::size_t kTransitionBytes = 16;
  /// The rough memory charge of a live region.
  static std::size_t roughBytes(std::size_t states, std::size_t transitions) {
    return states * kStateBytes + transitions * kTransitionBytes;
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[noreturn]] void throwExceeded(const char* where, std::size_t liveStates,
                                  const std::string& what) const;

  Clock::time_point start_;
  double deadlineSeconds_ = 0.0;
  std::size_t maxLiveStates_ = 0;
  std::size_t maxMemoryBytes_ = 0;
  std::uint64_t maxCheckpoints_ = 0;
  mutable std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<bool> cancelled_{false};
  mutable std::mutex reasonMutex_;
  std::string cancelReason_;
};

}  // namespace imcdft
