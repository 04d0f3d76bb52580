#include "store/format.hpp"

#include <cstring>

#include "ioimc/serialize.hpp"

namespace imcdft::store {

namespace {

using ioimc::ByteReader;
using ioimc::ByteWriter;

std::string finishRecord(std::string payload) {
  ByteWriter header;
  header.raw(kMagic, sizeof kMagic);
  header.u32(kFormatVersion);
  header.u32(kQuotientKind);
  header.u64(payload.size());
  header.u64(fnv1aBytes(payload.data(), payload.size()));
  std::string record = header.take();
  record += payload;
  return record;
}

/// Validates the fixed header and hands back a reader positioned at the
/// payload.  Returns false with \p error set on any malformation.
bool openRecord(const char* data, std::size_t size,
                std::optional<ByteReader>& payload, std::string& error) {
  if (size < kHeaderSize) {
    error = "truncated record (shorter than the fixed header)";
    return false;
  }
  if (std::memcmp(data, kMagic, sizeof kMagic) != 0) {
    error = "not a quotient-store record (magic mismatch)";
    return false;
  }
  ByteReader header(data + sizeof kMagic, kHeaderSize - sizeof kMagic);
  const std::uint32_t version = header.u32();
  const std::uint32_t kind = header.u32();
  const std::uint64_t payloadSize = header.u64();
  const std::uint64_t checksum = header.u64();
  if (version != kFormatVersion) {
    error = "format version mismatch (file v" + std::to_string(version) +
            ", reader v" + std::to_string(kFormatVersion) + ")";
    return false;
  }
  if (kind != kQuotientKind) {
    error = "record kind mismatch";
    return false;
  }
  if (payloadSize != size - kHeaderSize) {
    error = "truncated record (payload size disagrees with the file size)";
    return false;
  }
  if (checksum != fnv1aBytes(data + kHeaderSize, payloadSize)) {
    error = "checksum mismatch (corrupted payload)";
    return false;
  }
  payload.emplace(data + kHeaderSize, payloadSize);
  return true;
}

}  // namespace

std::uint64_t fnv1aBytes(const char* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::string encodeRecord(const std::string& key, const ioimc::IOIMC& model,
                         std::uint64_t steps) {
  ByteWriter payload;
  payload.str(key);
  payload.u64(steps);
  payload.u32(0);  // the name list, always empty (see format.hpp)
  ioimc::serializeModel(model, payload);
  return finishRecord(payload.take());
}

std::optional<Record> decodeRecord(const char* data, std::size_t size,
                                   const std::string& key,
                                   const ioimc::SymbolTablePtr& symbols,
                                   std::string& error) {
  std::optional<ByteReader> in;
  if (!openRecord(data, size, in, error)) return std::nullopt;
  if (in->str() != key) {
    error.clear();  // hash collision: a miss, not a malformation
    return std::nullopt;
  }
  std::uint64_t steps = in->u64();
  std::uint32_t numNames = in->u32();
  if (numNames > in->remaining() / 4 + 1 || !in->ok()) {
    error = "malformed record";
    return std::nullopt;
  }
  for (std::uint32_t i = 0; i < numNames; ++i) in->str();  // skipped
  std::optional<ioimc::IOIMC> model = ioimc::deserializeModel(*in, symbols);
  if (!model || in->remaining() != 0) {
    error = "malformed record";
    return std::nullopt;
  }
  return Record{key, steps, std::move(*model)};
}

}  // namespace imcdft::store
