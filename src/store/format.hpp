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
///     12      4     record kind (kQuotientKind)
///     16      8     payload size in bytes
///     24      8     FNV-1a 64 checksum of the payload
///     32      -     payload
///
/// The payload is the full cache key the record was stored under, the
/// compose steps that built the model (u64), a name list, and the
/// aggregated I/O-IMC (ioimc/serialize.hpp).  File names are derived from a
/// 64-bit hash of the key, so the embedded key is what makes the store
/// content-addressed rather than merely hash-addressed: a loader verifies
/// it and treats a mismatch (a hash collision) as a miss, never as an
/// answer.  Module keys are exact, so the name list is always written
/// empty; it is kept for the layout, and the loader skips whatever list a
/// record holds.
///
/// One record kind serves module quotients and whole-tree quotients alike:
/// a whole-tree key ends in ";nc=0" and a module key in the options key, so
/// the two never meet.  A whole tree's repairability is not stored; the
/// caller holds the tree and reads it there.
///
/// Decoders never throw and never read out of bounds; any malformation
/// (bad magic, version mismatch, truncation, checksum mismatch, malformed
/// payload) yields nullopt plus a diagnostic message, which the Analyzer
/// surfaces as a soft Warning and answers by cold aggregation instead.

namespace imcdft::store {

inline constexpr char kMagic[8] = {'I', 'M', 'C', 'Q', 'S', 'T', 'R', '\x01'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderSize = 32;

/// The one record kind.  Values 2 (solved curves) and 3 (whole-tree
/// records with a repairable flag) were written by older stores and are
/// retired; do not reuse them.
inline constexpr std::uint32_t kQuotientKind = 1;

/// FNV-1a 64 over a raw byte range (the payload checksum).
std::uint64_t fnv1aBytes(const char* data, std::size_t size);

struct Record {
  std::string key;
  std::uint64_t steps = 0;
  ioimc::IOIMC model;
};

std::string encodeRecord(const std::string& key, const ioimc::IOIMC& model,
                         std::uint64_t steps);

/// Decode a whole record file.  \p error receives a human-readable reason
/// on failure; a key that parses fine but differs from \p key sets \p
/// error empty and returns nullopt (a silent collision miss).
std::optional<Record> decodeRecord(const char* data, std::size_t size,
                                   const std::string& key,
                                   const ioimc::SymbolTablePtr& symbols,
                                   std::string& error);

}  // namespace imcdft::store
