#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ioimc/model.hpp"
#include "store/format.hpp"

/// \file quotient_store.hpp
/// The persistent, content-addressed quotient store: a directory of
/// checksummed record files (store/format.hpp), each holding one
/// aggregated quotient and the compose steps that built it, keyed by the
/// same exact canonical fingerprints the Analyzer's in-memory caches use
/// (dft::canonicalKey / dft::moduleKey plus the engine options).  Module
/// quotients and whole-tree quotients are the same record under their own
/// keys; a static-combination frontier module is stored as a whole tree of
/// its own, and a symmetric sibling the engine instantiates by renaming is
/// a module record of its own.  A fleet of worker processes pointed at one
/// directory shares a single warm cache across restarts:
///
///  * loads go through mmap(2), so identical records read by many workers
///    occupy one set of page-cache pages;
///  * writes build the record in a temporary file and publish it with
///    rename(2), so readers only ever observe complete records and
///    concurrent writers of the same key are safe (last rename wins, and
///    both bodies are identical anyway — records are pure functions of
///    their key);
///  * a record that exists is never rewritten (content-addressing: same
///    key means same bytes), so steady-state serving does no write I/O.
///
/// Every failure mode is *soft*: a missing, truncated, corrupted,
/// version-mismatched or colliding record behaves as a cache miss.  Load
/// failures additionally queue a human-readable warning (drainWarnings())
/// which the Analyzer turns into a Warning diagnostic — never a wrong
/// answer, never an exception past open().
///
/// Instances are internally synchronized; an Analyzer session opens one
/// and shares it across its concurrent requests.

namespace imcdft::store {

class QuotientStore {
 public:
  /// Opens \p dir, creating it (and parents) when absent.  Throws Error
  /// only when the directory cannot be created or is not writable — after
  /// open() succeeds, no store condition throws.
  static std::shared_ptr<QuotientStore> open(const std::string& dir);

  /// The record stored under \p key, deserialized into \p symbols; nullopt
  /// on a miss or a load error (the error also queues a warning).
  std::optional<Record> load(const std::string& key,
                             const ioimc::SymbolTablePtr& symbols);

  /// Store a record; returns true when a new file was published, false
  /// when the record already existed (the common steady-state case) or the
  /// write failed (which queues a warning).
  bool store(const std::string& key, const ioimc::IOIMC& model,
             std::uint64_t steps);

  /// The file the record for \p key lives at (exposed for tests/tooling).
  std::string entryPath(const std::string& key) const;

  /// Load failures (not misses) observed so far.
  std::uint64_t loadErrors() const { return loadErrors_.load(); }

  /// Returns and clears the queued soft diagnostics.
  std::vector<std::string> drainWarnings();

  const std::string& directory() const { return dir_; }

  /// Deterministic I/O fault injection (tests and the serve-stress
  /// harness).  Each injected fault makes exactly one matching store
  /// operation misbehave — write faults hit the next publish, read faults
  /// the next record load — and is then consumed.  The store must treat
  /// every injected failure exactly like the real thing: a soft miss plus
  /// a queued warning, never an exception or a wrong answer.
  struct IoFault {
    enum class Kind {
      ShortWrite,   ///< publish writes only half the record, then "fails"
      WriteFails,   ///< the record write fails outright (as if ENOSPC)
      SyncFails,    ///< the pre-publish fsync reports an I/O error
      ShortRead,    ///< a load observes only the first half of the file
      CorruptRead,  ///< a load observes one flipped record byte
    };
    Kind kind = Kind::ShortWrite;
    /// Matching operations to let through unharmed before firing.
    int afterOps = 0;
  };
  void injectFault(IoFault fault);
  void clearFaults();

 private:
  explicit QuotientStore(std::string dir) : dir_(std::move(dir)) {}

  bool publish(const std::string& path, const std::string& bytes);
  void warn(std::string message);
  /// Consumes (and returns) the next armed fault matching a write (\p
  /// write true) or read operation, counting down afterOps first.
  std::optional<IoFault::Kind> takeFault(bool write);

  std::string dir_;
  std::mutex warningsMutex_;
  std::vector<std::string> warnings_;
  std::atomic<std::uint64_t> loadErrors_{0};
  std::mutex faultsMutex_;
  std::vector<IoFault> faults_;
};

}  // namespace imcdft::store
