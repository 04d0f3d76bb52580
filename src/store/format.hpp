#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ioimc/model.hpp"

/// \file format.hpp
/// The on-disk record format of the persistent quotient store: one
/// versioned, checksummed, self-describing record per file.
///
/// Layout (all integers little-endian):
///
///     offset  size  field
///     0       8     magic "IMCQSTR\x01"
///     8       4     format version (kFormatVersion)
///     12      4     record kind (RecordKind)
///     16      8     payload size in bytes
///     24      8     FNV-1a 64 checksum of the payload
///     32      -     payload
///
/// Every payload starts with the full cache key the record was stored
/// under.  File names are derived from a 64-bit hash of that key, so the
/// embedded key is what makes the store content-addressed rather than
/// merely hash-addressed: a loader verifies it and treats a mismatch (a
/// hash collision) as a miss, never as an answer.
///
/// Payloads:
///  * ModuleQuotient — key, steps saved, a name list, and the aggregated
///    module I/O-IMC (ioimc/serialize.hpp).  Module keys are exact, so the
///    name list is always written empty; it is kept for the layout, and the
///    loader skips whatever list a record holds.
///  * TreeQuotient — key, a flags byte (bit 0: repairable; bit 1: a step
///    count follows), the compose steps that built the model (u64, when
///    flagged), and the whole-tree closed model; the loader re-derives the
///    absorbed extraction (cheap: the model is already aggregated).
///    Records written before the step count existed carry only bit 0 and
///    load as 0 steps.
///
/// Decoders never throw and never read out of bounds; any malformation
/// (bad magic, version mismatch, truncation, checksum mismatch, malformed
/// payload) yields nullopt plus a diagnostic message, which the Analyzer
/// surfaces as a soft Warning and answers by cold aggregation instead.

namespace imcdft::store {

inline constexpr char kMagic[8] = {'I', 'M', 'C', 'Q', 'S', 'T', 'R', '\x01'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderSize = 32;

/// Value 2 (solved curves in older store directories) is retired; do not
/// reuse it.
enum class RecordKind : std::uint32_t {
  ModuleQuotient = 1,
  TreeQuotient = 3,
};

/// FNV-1a 64 over a raw byte range (the payload checksum).
std::uint64_t fnv1aBytes(const char* data, std::size_t size);

struct ModuleRecord {
  std::string key;
  std::uint64_t steps = 0;
  ioimc::IOIMC model;
};

struct TreeRecord {
  std::string key;
  bool repairable = false;
  std::uint64_t steps = 0;
  ioimc::IOIMC model;
};

std::string encodeModuleRecord(const std::string& key,
                               const ioimc::IOIMC& model, std::uint64_t steps);
std::string encodeTreeRecord(const std::string& key,
                             const ioimc::IOIMC& model, bool repairable,
                             std::uint64_t steps);

/// Decode a whole record file.  \p error receives a human-readable reason
/// on failure; a key that parses fine but differs from \p key sets \p
/// error empty and returns nullopt (a silent collision miss).
std::optional<ModuleRecord> decodeModuleRecord(
    const char* data, std::size_t size, const std::string& key,
    const ioimc::SymbolTablePtr& symbols, std::string& error);
std::optional<TreeRecord> decodeTreeRecord(
    const char* data, std::size_t size, const std::string& key,
    const ioimc::SymbolTablePtr& symbols, std::string& error);

}  // namespace imcdft::store
