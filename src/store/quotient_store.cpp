#include "store/quotient_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace imcdft::store {

namespace {

/// RAII read-only mapping of one record file.  A fleet of workers loading
/// the same record shares the page-cache pages behind these mappings.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) return;
    struct ::stat st{};
    if (::fstat(fd_, &st) != 0 || st.st_size < 0) return;
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ == 0) {
      empty_ = true;
      return;
    }
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd_, 0);
    if (p != MAP_FAILED) data_ = static_cast<const char*>(p);
  }
  ~MappedFile() {
    if (data_) ::munmap(const_cast<char*>(data_), size_);
    if (fd_ >= 0) ::close(fd_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The file does not exist (a plain miss, not an error).
  bool absent() const { return fd_ < 0; }
  /// The file exists but could not be mapped or is empty (an error).
  bool unreadable() const { return fd_ >= 0 && !data_; }
  bool emptyFile() const { return empty_; }
  const char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  int fd_ = -1;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool empty_ = false;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Process-wide temp-file sequence.  Deliberately not per-instance: two
/// open handles on the same directory (one per Analyzer session, or a test
/// holding two) would otherwise both count 0, 1, 2, ... and clobber
/// each other's in-flight `.tmp-<pid>-<seq>` files — publishing one
/// writer's bytes under the other's key.
std::atomic<std::uint64_t> gTmpSeq{0};

}  // namespace

std::shared_ptr<QuotientStore> QuotientStore::open(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw Error("quotient store: cannot create '" + dir +
                "': " + ec.message());
  if (!std::filesystem::is_directory(dir))
    throw Error("quotient store: '" + dir + "' is not a directory");
  // Probe writability up front so a read-only mount surfaces as one clear
  // error instead of a warning per record.
  const std::string probe =
      dir + "/.probe-" + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(probe.c_str(), "wb");
  if (!f)
    throw Error("quotient store: '" + dir + "' is not writable: " +
                std::strerror(errno));
  std::fclose(f);
  ::unlink(probe.c_str());
  return std::shared_ptr<QuotientStore>(new QuotientStore(dir));
}

std::string QuotientStore::entryPath(const std::string& key) const {
  return dir_ + "/q" + hex64(fnv1aBytes(key.data(), key.size())) + ".imcq";
}

std::optional<Record> QuotientStore::load(
    const std::string& key, const ioimc::SymbolTablePtr& symbols) {
  const std::string path = entryPath(key);
  obs::TraceSpan span("store.load");
  MappedFile file(path);
  span.arg("bytes", file.size());
  if (file.absent()) {
    span.arg("hit", 0);
    return std::nullopt;
  }
  std::string error;
  std::optional<Record> record;
  if (file.emptyFile() || file.unreadable()) {
    error = file.emptyFile() ? "empty record file" : "cannot map record file";
  } else {
    const char* data = file.data();
    std::size_t size = file.size();
    std::string mutated;  // lifetime spans the decode below
    if (const std::optional<IoFault::Kind> fault = takeFault(/*write=*/false)) {
      if (*fault == IoFault::Kind::ShortRead) {
        size /= 2;
      } else {  // CorruptRead: one flipped bit mid-record
        mutated.assign(data, size);
        mutated[size / 2] = static_cast<char>(mutated[size / 2] ^ 0x40);
        data = mutated.data();
      }
    }
    record = decodeRecord(data, size, key, symbols, error);
  }
  if (!record && !error.empty()) {
    loadErrors_.fetch_add(1, std::memory_order_relaxed);
    warn("'" + path + "': " + error + " — recomputing");
  }
  span.arg("hit", record ? 1 : 0);
  return record;
}

bool QuotientStore::publish(const std::string& path,
                            const std::string& bytes) {
  obs::TraceSpan span("store.publish");
  span.arg("bytes", bytes.size());
  const std::string tmp = dir_ + "/.tmp-" +
                          std::to_string(static_cast<long>(::getpid())) + "-" +
                          std::to_string(gTmpSeq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    warn("cannot create '" + tmp + "': " + std::strerror(errno));
    return false;
  }
  const std::optional<IoFault::Kind> fault = takeFault(/*write=*/true);
  bool wrote;
  if (fault == IoFault::Kind::WriteFails) {
    errno = ENOSPC;
    wrote = false;
  } else if (fault == IoFault::Kind::ShortWrite) {
    // Leave exactly what a writer killed mid-record would: half the bytes
    // in the (never published) temp file.
    std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
    wrote = false;
  } else {
    wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  }
  // Durability before visibility: the record's bytes must be on stable
  // storage before rename() makes the path observable, or a crash could
  // publish a torn record — the one corruption the checksum-on-load story
  // is not meant to need.  An fsync failure poisons the attempt exactly
  // like a short write (the kernel may have dropped the dirty pages).
  bool synced = false;
  if (wrote) {
    synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    if (fault == IoFault::Kind::SyncFails) {
      errno = EIO;
      synced = false;
    }
  }
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !synced || !closed) {
    if (fault == IoFault::Kind::WriteFails)
      warn("cannot write '" + tmp + "': " + std::strerror(ENOSPC));
    else if (wrote && !synced)
      warn("cannot sync '" + tmp + "': " + std::strerror(errno));
    else
      warn("short write to '" + tmp + "'");
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    warn("cannot publish '" + path + "': " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable: fsync the containing directory so the
  // new directory entry survives a crash.  Soft — the record is already
  // readable either way; a failure here only weakens crash durability.
  const int dirFd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirFd >= 0) {
    ::fsync(dirFd);
    ::close(dirFd);
  }
  return true;
}

void QuotientStore::injectFault(IoFault fault) {
  std::lock_guard<std::mutex> lock(faultsMutex_);
  faults_.push_back(fault);
}

void QuotientStore::clearFaults() {
  std::lock_guard<std::mutex> lock(faultsMutex_);
  faults_.clear();
}

std::optional<QuotientStore::IoFault::Kind> QuotientStore::takeFault(
    bool write) {
  std::lock_guard<std::mutex> lock(faultsMutex_);
  for (auto it = faults_.begin(); it != faults_.end(); ++it) {
    const bool matches = write == (it->kind == IoFault::Kind::ShortWrite ||
                                   it->kind == IoFault::Kind::WriteFails ||
                                   it->kind == IoFault::Kind::SyncFails);
    if (!matches) continue;
    if (it->afterOps > 0) {
      --it->afterOps;
      return std::nullopt;
    }
    const IoFault::Kind kind = it->kind;
    faults_.erase(it);
    return kind;
  }
  return std::nullopt;
}

bool QuotientStore::store(const std::string& key, const ioimc::IOIMC& model,
                          std::uint64_t steps) {
  const std::string path = entryPath(key);
  // Content-addressing makes rewrites pointless: an existing record for
  // this path already holds these bytes (or a colliding key's — which a
  // rewrite would clobber for no gain either way).  Checked before
  // encoding, so steady-state serving serializes nothing.
  if (std::filesystem::exists(path)) return false;
  return publish(path, encodeRecord(key, model, steps));
}

std::vector<std::string> QuotientStore::drainWarnings() {
  std::lock_guard<std::mutex> lock(warningsMutex_);
  return std::exchange(warnings_, {});
}

void QuotientStore::warn(std::string message) {
  std::lock_guard<std::mutex> lock(warningsMutex_);
  // Bounded: a store full of corrupt files must not grow an unbounded
  // diagnostic queue inside a long-lived service.
  if (warnings_.size() < 64) warnings_.push_back(std::move(message));
}

}  // namespace imcdft::store
