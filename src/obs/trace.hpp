#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file trace.hpp
/// Low-overhead structured tracing: RAII scoped spans with typed integer
/// attributes, written into lock-free per-thread ring buffers and exported
/// as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
///
/// Design notes (see ARCHITECTURE.md "Observability"):
///  - A span is recorded as ONE complete ring entry, written once when the
///    span ends.  Export expands each entry into a balanced begin/end pair
///    ordered by a per-thread sequence number, so a drained trace is always
///    well formed: begins and ends balance per thread, per-thread
///    timestamps are monotonic, and dropping whole entries from a full
///    ring can never orphan a begin (any subset of a properly nested span
///    family is still properly nested).
///  - The ring overwrites oldest-first, so the late-written outer spans
///    (request, compose, measure) survive even when a pathological run
///    overflows a thread's ring with fine-grained inner spans.
///  - Tracing off is a dead branch: every emit site starts with one
///    relaxed atomic load and a predictable branch; no ring is even
///    allocated until a thread emits its first event while enabled.
///    Measures are bitwise identical with tracing on vs off (tested).
namespace imcdft::obs {

/// One typed span/instant attribute: a label and an integer value.
struct TraceArg {
  const char* key = "";
  std::uint64_t value = 0;
};

inline constexpr std::size_t kMaxTraceArgs = 6;
/// Inline detail-string capacity (module names, budget axes, ...); longer
/// strings are truncated rather than heap-allocated on the hot path.
inline constexpr std::size_t kTraceDetailBytes = 48;

namespace detail {
extern std::atomic<bool> gTraceEnabled;
}  // namespace detail

/// One relaxed load; the only cost tracing adds when disabled.
inline bool traceEnabled() {
  return detail::gTraceEnabled.load(std::memory_order_relaxed);
}

/// Globally enable/disable span collection.  Enabling does not clear
/// previously collected events; see clearTrace().
void setTraceEnabled(bool on);

/// Drop all collected events (and the dropped-event counters).  Call only
/// while no traced work is running.
void clearTrace();

/// Set the per-thread ring capacity in events for rings allocated after
/// the call (existing rings keep their size).  Call before enabling.
void setTraceCapacity(std::size_t eventsPerThread);

/// The current thread's trace context (a request id; 0 = none).  Exported
/// as the Chrome trace "pid", which groups each request's spans into its
/// own process track in Perfetto.
std::uint64_t currentTraceContext();

/// RAII override of the current thread's trace context.  Worker pools
/// capture the submitting thread's context and re-establish it in the
/// worker so module-task spans land in the right request group.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(std::uint64_t ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII scoped span.  Construction snapshots the clock; destruction writes
/// one complete record into the calling thread's ring.  `name` must be a
/// string literal (stored by pointer); `detail` is copied (truncated to
/// kTraceDetailBytes-1).  Everything is a no-op when tracing is disabled
/// at construction time.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::string_view detailText = {});
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a typed attribute (up to kMaxTraceArgs; extras are dropped).
  /// `key` must be a string literal.
  void arg(const char* key, std::uint64_t value);

 private:
  const char* name_ = nullptr;  ///< nullptr = span disabled, all no-ops
  std::uint64_t beginNanos_ = 0;
  std::uint64_t beginSeq_ = 0;
  std::uint8_t numArgs_ = 0;
  std::uint8_t detailLen_ = 0;
  TraceArg args_[kMaxTraceArgs];
  char detail_[kTraceDetailBytes];
};

/// Zero-duration instant event (budget trips, cache probes).
void traceInstant(const char* name, std::string_view detailText = {},
                  std::initializer_list<TraceArg> args = {});

/// One drained event, expanded for tests and export.
struct TraceRecord {
  const char* name = "";
  bool instant = false;
  std::uint64_t ctx = 0;      ///< request id (exported pid)
  std::uint32_t tid = 0;      ///< registration-order thread id
  std::uint64_t beginSeq = 0; ///< per-thread order of span begin
  std::uint64_t endSeq = 0;   ///< per-thread order of span end (== beginSeq
                              ///< for instants)
  std::uint64_t beginNanos = 0;
  std::uint64_t durNanos = 0;
  std::string detail;
  std::vector<TraceArg> args;
};

struct TraceSnapshot {
  std::vector<TraceRecord> records;  ///< sorted by (tid, endSeq)
  std::size_t dropped = 0;           ///< ring-overflow losses, all threads
};

/// Drain a copy of every thread's ring.  Quiescent use only: call after
/// all traced worker threads have been joined (the joins establish the
/// needed happens-before edges).
TraceSnapshot snapshotTrace();

/// Self and inclusive time per span name.  A span's self time is its
/// duration minus what its direct children on the same thread cover
/// (nesting comes from the per-thread sequence numbers); its inclusive time
/// is its whole duration.  Both are summed over every span of that name.
/// Time a span's thread spends waiting on other threads (a `compose` span
/// while helper threads run module tasks) is not covered by a child on
/// that thread, so it stays in the span's self time.  Instants are
/// ignored.  This is the one reducer behind every per-phase
/// and per-stage breakdown (`dftimc --stats`), so those numbers always come
/// from the same spans a --trace export shows.
struct SelfTimes {
  std::map<std::string, double, std::less<>> seconds;    ///< self, by name
  std::map<std::string, double, std::less<>> inclusive;  ///< by span name
  std::size_t dropped = 0;  ///< the snapshot's ring-overflow losses

  /// Self seconds of \p name (0 when no such span was recorded).
  double of(std::string_view name) const { return lookup(seconds, name); }
  /// Inclusive seconds of \p name (0 when no such span was recorded).
  double inclusiveOf(std::string_view name) const {
    return lookup(inclusive, name);
  }

 private:
  static double lookup(const std::map<std::string, double, std::less<>>& m,
                       std::string_view name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
};

SelfTimes selfTimes(const TraceSnapshot& snap);

struct TraceWriteStats {
  std::size_t events = 0;   ///< JSON events written (B+E+i+metadata)
  std::size_t spans = 0;    ///< duration spans among them
  std::size_t dropped = 0;  ///< ring-overflow losses reported in otherData
};

/// Export everything collected so far as Chrome trace-event JSON
/// ({"traceEvents": [...], ...}; ts/dur in microseconds).  Quiescent use
/// only, like snapshotTrace().
TraceWriteStats writeChromeTrace(std::ostream& out);

}  // namespace imcdft::obs
