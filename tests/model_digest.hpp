#pragma once

#include <cstdint>
#include <string_view>

#include "ioimc/bisimulation.hpp"
#include "ioimc/serialize.hpp"

/// \file model_digest.hpp
/// 64-bit FNV-1a digests of a model's exact bytes (ioimc::serializeModel:
/// names, signature, CSR order and rate bit patterns) and of a partition's
/// class numbering, for tests that pin results bit for bit across versions.

namespace imcdft::test {

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t modelDigest(const ioimc::IOIMC& m) {
  ioimc::ByteWriter out;
  ioimc::serializeModel(m, out);
  return fnv1a(out.bytes());
}

/// Digest of the class count and of every state's class id, in state order.
inline std::uint64_t partitionDigest(const ioimc::Partition& p) {
  ioimc::ByteWriter out;
  out.u32(p.numClasses);
  for (std::uint32_t c : p.classOf) out.u32(c);
  return fnv1a(out.bytes());
}

}  // namespace imcdft::test
