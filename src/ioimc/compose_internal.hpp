#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ioimc/model.hpp"

/// \file compose_internal.hpp
/// Shared internals of the two parallel-composition engines: the classic
/// full-product compose() (compose.cpp) and the fused on-the-fly
/// compose-and-minimize engine (otf_compose.cpp).  Both must synchronize
/// transitions, merge label universes and derive composite signatures in
/// *exactly* the same way — any divergence here would break the fused
/// engine's bit-identity guarantee — so the logic lives in one place.
/// Not part of the public ioimc surface.

namespace imcdft::ioimc::detail {

/// One input model's interactive transitions re-packed as per-state spans
/// grouped by action (groups sorted by action id, targets in declaration
/// order).  Built once per compose() input instead of hashing every state's
/// transitions into a fresh unordered_map per visited composite state.
struct GroupedModel {
  struct Group {
    ActionId action;
    std::uint32_t begin, end;  ///< target range in targets
  };
  std::vector<std::uint32_t> stateOffsets;  ///< n+1, into groups
  std::vector<Group> groups;
  std::vector<StateId> targets;

  std::span<const Group> groupsOf(StateId s) const {
    return {groups.data() + stateOffsets[s],
            stateOffsets[s + 1] - stateOffsets[s]};
  }
  /// Binary search for the group of \p action in state \p s.
  const Group* find(StateId s, ActionId action) const {
    auto gs = groupsOf(s);
    auto it = std::lower_bound(
        gs.begin(), gs.end(), action,
        [](const Group& g, ActionId a) { return g.action < a; });
    return (it != gs.end() && it->action == action) ? &*it : nullptr;
  }
  std::span<const StateId> targetsOf(const Group& g) const {
    return {targets.data() + g.begin, static_cast<std::size_t>(g.end - g.begin)};
  }
};

GroupedModel groupModel(const IOIMC& m);

/// The product's pair index: maps a state pair (sa, sb) to the id its
/// engine assigned on discovery.  Insert-only open addressing with linear
/// probing over a power-of-two table kept at most half full; the slot of a
/// pair is the top bits of its packed 64-bit key times the golden-ratio
/// constant.  Never iterated, so the table layout cannot reach any output.
class PairIndex {
 public:
  explicit PairIndex(std::size_t expected = 0) {
    std::size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    resize(capacity);
  }

  /// The id of (sa, sb).  A new pair gets \p next; the flag says whether
  /// the pair was new.
  std::pair<StateId, bool> insert(StateId sa, StateId sb, StateId next) {
    if (2 * (size_ + 1) > slots_.size()) resize(2 * slots_.size());
    for (std::size_t i = slotOf(sa, sb);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.id == kNone) {
        slot = {sa, sb, next};
        ++size_;
        return {next, true};
      }
      if (slot.sa == sa && slot.sb == sb) return {slot.id, false};
    }
  }

 private:
  struct Slot {
    StateId sa, sb, id;
  };
  /// Marks an empty slot; no product has 2^32 - 1 states.
  static constexpr StateId kNone = ~StateId{0};

  std::size_t slotOf(StateId sa, StateId sb) const {
    const std::uint64_t key = (static_cast<std::uint64_t>(sa) << 32) | sb;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void resize(std::size_t capacity) {
    std::vector<Slot> old(capacity, Slot{0, 0, kNone});
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& slot : old) {
      if (slot.id == kNone) continue;
      std::size_t i = slotOf(slot.sa, slot.sb);
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
};

/// Throws ModelError when the models are incompatible (shared outputs,
/// different symbol tables, internal/visible collisions).
void checkCompatible(const IOIMC& a, const IOIMC& b);

/// The composite signature: outputs = out(A) u out(B), inputs =
/// (in(A) u in(B)) \ outputs, internal = int(A) u int(B).
Signature compositeSignature(const IOIMC& a, const IOIMC& b);

/// Merged label universes of a composition: A's labels first, then B's
/// labels not already present (in B's declaration order), plus the index
/// remap for B's masks.  Throws when the union exceeds 32 labels.
struct MergedLabels {
  std::vector<std::string> names;
  std::vector<int> bRemap;  ///< B label index -> merged index

  std::uint32_t compositeMask(std::uint32_t maskA, std::uint32_t maskB) const {
    std::uint32_t mask = maskA;
    for (std::size_t i = 0; i < bRemap.size(); ++i)
      if ((maskB >> i) & 1u) mask |= 1u << bRemap[i];
    return mask;
  }
};

MergedLabels mergeLabels(const IOIMC& a, const IOIMC& b);

/// Emits every product transition of composite state (sa, sb) through two
/// callbacks, in exactly the order compose() materializes them: A's
/// Markovian row, B's Markovian row, then the interactive transitions
/// rooted at A's side followed by those rooted at B's side.
/// \p emitInteractive receives (action, targetA, targetB); \p emitMarkovian
/// receives (rate, targetA, targetB).
template <class EmitInteractive, class EmitMarkovian>
void forEachProductTransition(const IOIMC& a, const IOIMC& b,
                              const std::vector<ActionRole>& roleA,
                              const std::vector<ActionRole>& roleB,
                              const GroupedModel& groupedA,
                              const GroupedModel& groupedB, StateId sa,
                              StateId sb, EmitInteractive&& emitInteractive,
                              EmitMarkovian&& emitMarkovian) {
  using Role = ActionRole;

  // Markovian interleaving.
  for (const auto& t : a.markovian(sa)) emitMarkovian(t.rate, t.to, sb);
  for (const auto& t : b.markovian(sb)) emitMarkovian(t.rate, sa, t.to);

  // Transitions rooted at A's side.
  for (const GroupedModel::Group& g : groupedA.groupsOf(sa)) {
    const ActionId act = g.action;
    const bool internalA = roleA[act] == Role::Internal;
    const bool sharedWithB = !internalA && roleB[act] != Role::None;
    if (!sharedWithB) {
      // Interleave: internal actions and actions B does not know about.
      for (StateId ta : groupedA.targetsOf(g)) emitInteractive(act, ta, sb);
      continue;
    }
    if (roleA[act] == Role::Input && roleB[act] == Role::Output) {
      // Occurrence is controlled by B; handled on B's side below.
      continue;
    }
    // act is an output of A (B listens), or an input of both.
    const GroupedModel::Group* gb = groupedB.find(sb, act);
    if (!gb) {
      for (StateId ta : groupedA.targetsOf(g))
        emitInteractive(act, ta, sb);  // B stays (implicit)
    } else {
      for (StateId ta : groupedA.targetsOf(g))
        for (StateId tb : groupedB.targetsOf(*gb)) emitInteractive(act, ta, tb);
    }
  }

  // Transitions rooted at B's side.
  for (const GroupedModel::Group& g : groupedB.groupsOf(sb)) {
    const ActionId act = g.action;
    const bool internalB = roleB[act] == Role::Internal;
    const bool sharedWithA = !internalB && roleA[act] != Role::None;
    if (!sharedWithA) {
      for (StateId tb : groupedB.targetsOf(g)) emitInteractive(act, sa, tb);
      continue;
    }
    if (roleB[act] == Role::Input && roleA[act] == Role::Output) {
      continue;  // controlled by A; handled above
    }
    // act is an output of B, or an input of both.
    const GroupedModel::Group* ga = groupedA.find(sa, act);
    if (!ga) {
      for (StateId tb : groupedB.targetsOf(g))
        emitInteractive(act, sa, tb);  // A stays (implicit)
    } else if (roleB[act] == Role::Output) {
      // B controls the occurrence; A reacts with its explicit inputs.
      // (A's side skipped this case above.)
      for (StateId ta : groupedA.targetsOf(*ga))
        for (StateId tb : groupedB.targetsOf(g)) emitInteractive(act, ta, tb);
    }
    // Input-of-both with both explicit: already emitted on A's side.
  }
}

}  // namespace imcdft::ioimc::detail
