#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>

namespace imcdft::obs {

namespace detail {
std::atomic<bool> gTraceEnabled{false};
}  // namespace detail

namespace {

std::atomic<std::size_t> gCapacity{8192};

std::uint64_t nowNanos() {
  // Steady (monotonic) clock relative to a process-lifetime epoch: span
  // timestamps never go backwards within a thread, which the exporter and
  // the trace checker both rely on.
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// One complete span or instant, written exactly once by its owning thread.
struct Event {
  const char* name = "";
  bool instant = false;
  std::uint64_t ctx = 0;
  std::uint64_t beginSeq = 0;
  std::uint64_t endSeq = 0;
  std::uint64_t beginNanos = 0;
  std::uint64_t durNanos = 0;
  std::uint8_t numArgs = 0;
  std::uint8_t detailLen = 0;
  TraceArg args[kMaxTraceArgs];
  char detail[kTraceDetailBytes];
};

/// Per-thread ring.  Only the owning thread writes; drains happen after
/// the owning thread was joined (or from the owning thread itself), so the
/// entries need no per-slot synchronisation — `written` is atomic only to
/// keep the counter itself well defined across that join.
struct Ring {
  Ring(std::uint32_t id, std::size_t cap) : tid(id) {
    events.resize(cap == 0 ? 1 : cap);
  }
  std::uint32_t tid;
  std::vector<Event> events;
  std::atomic<std::uint64_t> written{0};
  std::uint64_t nextSeq = 0;

  void push(const Event& ev) {
    const std::uint64_t w = written.load(std::memory_order_relaxed);
    events[w % events.size()] = ev;
    written.store(w + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

/// The calling thread's ring, allocated and registered on first use (i.e.
/// never for threads that run entirely with tracing off).  The registry
/// holds a shared_ptr so the ring outlives its thread.
Ring* localRing() {
  thread_local std::shared_ptr<Ring> tls;
  if (!tls) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    tls = std::make_shared<Ring>(static_cast<std::uint32_t>(reg.rings.size()) + 1,
                                 gCapacity.load(std::memory_order_relaxed));
    reg.rings.push_back(tls);
  }
  return tls.get();
}

thread_local std::uint64_t tlsContext = 0;

void copyDetail(std::string_view text, char* dst, std::uint8_t& len) {
  const std::size_t n = std::min(text.size(), kTraceDetailBytes - 1);
  // An empty string_view may carry a null data(); memcpy from null is
  // undefined even for zero bytes.
  if (n != 0) std::memcpy(dst, text.data(), n);
  dst[n] = '\0';
  len = static_cast<std::uint8_t>(n);
}

void appendJsonEscaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void setTraceEnabled(bool on) {
  detail::gTraceEnabled.store(on, std::memory_order_relaxed);
}

void clearTrace() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& ring : reg.rings) ring->written.store(0, std::memory_order_relaxed);
}

void setTraceCapacity(std::size_t eventsPerThread) {
  gCapacity.store(eventsPerThread == 0 ? 1 : eventsPerThread,
                  std::memory_order_relaxed);
}

std::uint64_t currentTraceContext() { return tlsContext; }

ScopedTraceContext::ScopedTraceContext(std::uint64_t ctx) : prev_(tlsContext) {
  tlsContext = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { tlsContext = prev_; }

TraceSpan::TraceSpan(const char* name, std::string_view detailText) {
  if (!traceEnabled()) return;  // dead branch: name_ stays null
  name_ = name;
  beginNanos_ = nowNanos();
  beginSeq_ = ++localRing()->nextSeq;
  copyDetail(detailText, detail_, detailLen_);
}

void TraceSpan::arg(const char* key, std::uint64_t value) {
  if (!name_ || numArgs_ >= kMaxTraceArgs) return;
  args_[numArgs_++] = TraceArg{key, value};
}

TraceSpan::~TraceSpan() {
  if (!name_) return;
  Ring* ring = localRing();
  Event ev;
  ev.name = name_;
  ev.instant = false;
  ev.ctx = tlsContext;
  ev.beginSeq = beginSeq_;
  ev.endSeq = ++ring->nextSeq;
  ev.beginNanos = beginNanos_;
  const std::uint64_t end = nowNanos();
  ev.durNanos = end > beginNanos_ ? end - beginNanos_ : 0;
  ev.numArgs = numArgs_;
  for (std::uint8_t i = 0; i < numArgs_; ++i) ev.args[i] = args_[i];
  ev.detailLen = detailLen_;
  std::memcpy(ev.detail, detail_, detailLen_ + 1u);
  ring->push(ev);
}

void traceInstant(const char* name, std::string_view detailText,
                  std::initializer_list<TraceArg> args) {
  if (!traceEnabled()) return;
  Ring* ring = localRing();
  Event ev;
  ev.name = name;
  ev.instant = true;
  ev.ctx = tlsContext;
  ev.beginSeq = ev.endSeq = ++ring->nextSeq;
  ev.beginNanos = nowNanos();
  ev.durNanos = 0;
  for (const TraceArg& a : args) {
    if (ev.numArgs >= kMaxTraceArgs) break;
    ev.args[ev.numArgs++] = a;
  }
  copyDetail(detailText, ev.detail, ev.detailLen);
  ring->push(ev);
}

TraceSnapshot snapshotTrace() {
  TraceSnapshot snap;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    const std::uint64_t written = ring->written.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->events.size();
    const std::uint64_t kept = std::min(written, cap);
    if (written > cap) snap.dropped += static_cast<std::size_t>(written - cap);
    for (std::uint64_t i = 0; i < kept; ++i) {
      const Event& ev = ring->events[i];
      TraceRecord rec;
      rec.name = ev.name;
      rec.instant = ev.instant;
      rec.ctx = ev.ctx;
      rec.tid = ring->tid;
      rec.beginSeq = ev.beginSeq;
      rec.endSeq = ev.endSeq;
      rec.beginNanos = ev.beginNanos;
      rec.durNanos = ev.durNanos;
      rec.detail.assign(ev.detail, ev.detailLen);
      rec.args.assign(ev.args, ev.args + ev.numArgs);
      snap.records.push_back(std::move(rec));
    }
  }
  std::sort(snap.records.begin(), snap.records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.endSeq < b.endSeq;
            });
  return snap;
}

SelfTimes selfTimes(const TraceSnapshot& snap) {
  SelfTimes out;
  out.dropped = snap.dropped;
  std::vector<const TraceRecord*> spans;
  for (const TraceRecord& r : snap.records)
    if (!r.instant) spans.push_back(&r);
  std::sort(spans.begin(), spans.end(),
            [](const TraceRecord* a, const TraceRecord* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              return a->beginSeq < b->beginSeq;
            });
  // The open ancestors of the current span, each with the nanoseconds its
  // direct children cover so far.
  std::vector<std::pair<const TraceRecord*, std::uint64_t>> open;
  auto close = [&] {
    const auto [rec, childNanos] = open.back();
    open.pop_back();
    const std::uint64_t self =
        rec->durNanos - std::min(childNanos, rec->durNanos);
    out.seconds[rec->name] += static_cast<double>(self) * 1e-9;
  };
  for (const TraceRecord* r : spans) {
    while (!open.empty() && (open.back().first->tid != r->tid ||
                             open.back().first->endSeq < r->beginSeq))
      close();
    if (!open.empty()) open.back().second += r->durNanos;
    open.emplace_back(r, 0);
  }
  while (!open.empty()) close();
  return out;
}

TraceWriteStats writeChromeTrace(std::ostream& out) {
  const TraceSnapshot snap = snapshotTrace();

  // Expand each span record into a balanced B/E pair; instants stay 'i'.
  struct JsonEvent {
    const TraceRecord* rec;
    char phase;         // 'B', 'E' or 'i'
    std::uint64_t seq;  // per-thread order
    std::uint64_t tsNanos;
  };
  std::vector<JsonEvent> events;
  events.reserve(snap.records.size() * 2);
  std::set<std::uint64_t> contexts;
  TraceWriteStats stats;
  stats.dropped = snap.dropped;
  for (const TraceRecord& rec : snap.records) {
    contexts.insert(rec.ctx);
    if (rec.instant) {
      events.push_back({&rec, 'i', rec.endSeq, rec.beginNanos});
    } else {
      ++stats.spans;
      events.push_back({&rec, 'B', rec.beginSeq, rec.beginNanos});
      events.push_back({&rec, 'E', rec.endSeq, rec.beginNanos + rec.durNanos});
    }
  }
  // Per-thread sequence order == per-thread timestamp order (same steady
  // clock, same thread); sorting by (tid, seq) keeps each thread's stream
  // monotonic and begins/ends balanced in file order.
  std::sort(events.begin(), events.end(),
            [](const JsonEvent& a, const JsonEvent& b) {
              if (a.rec->tid != b.rec->tid) return a.rec->tid < b.rec->tid;
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.phase == 'B';  // defensive; seqs are unique per thread
            });

  std::string body;
  body.reserve(events.size() * 96 + 1024);
  body += "{\"traceEvents\":[\n";
  bool first = true;
  // Process-name metadata: one track group per request context.
  for (std::uint64_t ctx : contexts) {
    if (!first) body += ",\n";
    first = false;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":%llu,\"tid\":0,\"name\":"
                  "\"process_name\",\"args\":{\"name\":\"%s%llu\"}}",
                  static_cast<unsigned long long>(ctx),
                  ctx == 0 ? "dftimc ctx " : "request r",
                  static_cast<unsigned long long>(ctx));
    body += buf;
    ++stats.events;
  }
  for (const JsonEvent& ev : events) {
    if (!first) body += ",\n";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":%llu,\"tid\":%u,"
                  "\"ts\":%.3f",
                  ev.rec->name, ev.phase,
                  static_cast<unsigned long long>(ev.rec->ctx), ev.rec->tid,
                  static_cast<double>(ev.tsNanos) / 1000.0);
    body += buf;
    const bool wantArgs =
        ev.phase != 'E' && (!ev.rec->detail.empty() || !ev.rec->args.empty());
    if (wantArgs) {
      body += ",\"args\":{";
      bool firstArg = true;
      if (!ev.rec->detail.empty()) {
        body += "\"detail\":\"";
        appendJsonEscaped(body, ev.rec->detail);
        body += '"';
        firstArg = false;
      }
      for (const TraceArg& a : ev.rec->args) {
        if (!firstArg) body += ',';
        firstArg = false;
        body += '"';
        appendJsonEscaped(body, a.key);
        std::snprintf(buf, sizeof buf, "\":%llu",
                      static_cast<unsigned long long>(a.value));
        body += buf;
      }
      body += '}';
    }
    body += '}';
    ++stats.events;
  }
  char tail[128];
  std::snprintf(tail, sizeof tail,
                "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"droppedEvents\":%llu}}\n",
                static_cast<unsigned long long>(snap.dropped));
  body += tail;
  out << body;
  return stats;
}

}  // namespace imcdft::obs
