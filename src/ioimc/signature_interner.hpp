#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

/// \file signature_interner.hpp
/// The hashed flat-token signature interner of the weak-bisimulation
/// refiner (bisimulation.cpp), which also reduces the fused engine's live
/// region.  Not part of the public ioimc surface.

namespace imcdft::ioimc::detail {

/// Interns canonical 64-bit token streams in an open-addressing table;
/// the interned index is the stream's dense class id.  Classes are numbered
/// in order of first appearance, which keeps the numbering identical to an
/// ordered-map implementation.  All buffers are reused across iterations,
/// so a refinement pass allocates only on growth.
class SignatureInterner {
 public:
  /// Prepares the table for up to \p expectedKeys distinct signatures.
  void beginIteration(std::size_t expectedKeys) {
    arena_.clear();
    sigOffsets_.clear();
    sigOffsets_.push_back(0);
    hashes_.clear();
    numClasses_ = 0;
    std::size_t cap = 64;
    while (cap < 2 * expectedKeys) cap <<= 1;
    table_.assign(cap, kEmpty);
  }

  /// The caller-filled token buffer for the signature being interned.
  std::vector<std::uint64_t>& scratch() { return scratch_; }

  /// Interns scratch() and returns its dense class id.
  std::uint32_t internScratch() {
    const std::uint64_t hash = hashScratch();
    const std::size_t mask = table_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(hash) & mask;
    while (table_[idx] != kEmpty) {
      const std::uint32_t cls = table_[idx];
      if (hashes_[cls] == hash && scratchEqualsClass(cls)) return cls;
      idx = (idx + 1) & mask;
    }
    const std::uint32_t cls = numClasses_++;
    table_[idx] = cls;
    hashes_.push_back(hash);
    arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
    sigOffsets_.push_back(arena_.size());
    return cls;
  }

  /// Numbers a class no other signature can join (its state is alone in
  /// its current class): the next id in order of first appearance, with
  /// nothing hashed or stored.
  std::uint32_t freshClass() {
    hashes_.push_back(0);
    sigOffsets_.push_back(arena_.size());
    return numClasses_++;
  }

  std::uint32_t numClasses() const { return numClasses_; }

 private:
  static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);

  std::uint64_t hashScratch() const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ scratch_.size();
    for (std::uint64_t token : scratch_) {
      h ^= token;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
    }
    return h;
  }

  bool scratchEqualsClass(std::uint32_t cls) const {
    const std::uint64_t begin = sigOffsets_[cls], end = sigOffsets_[cls + 1];
    if (end - begin != scratch_.size()) return false;
    return std::equal(scratch_.begin(), scratch_.end(),
                      arena_.begin() + static_cast<std::ptrdiff_t>(begin));
  }

  std::vector<std::uint64_t> arena_;      ///< tokens of interned signatures
  std::vector<std::uint64_t> sigOffsets_; ///< per-class token range in arena_
  std::vector<std::uint64_t> hashes_;     ///< per-class hash
  std::vector<std::uint32_t> table_;      ///< open-addressing slots
  std::vector<std::uint64_t> scratch_;
  std::uint32_t numClasses_ = 0;
};

}  // namespace imcdft::ioimc::detail
