#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/symbol_table.hpp"

/// \file model.hpp
/// The Input/Output Interactive Markov Chain (I/O-IMC) model of Boudali,
/// Crouzen & Stoelinga (DSN 2007): a CTMC extended with input, output and
/// internal actions.
///
/// Conventions carried through the whole library:
///  * Input-enabledness is implicit.  A state stores only the *state
///    changing* input transitions; a missing input transition means "stay in
///    place" (the self-loops the paper omits "for clarity").  Composition and
///    bisimulation implement exactly this convention.
///  * Output and internal actions are immediate (maximal progress); input
///    actions are delayable.  The analysis layer enforces urgency when it
///    extracts a CTMC/CTMDP from a fully composed, fully hidden model.
///
/// Transitions are stored in CSR (compressed sparse row) form: one
/// contiguous array of transitions per kind plus a per-state offset table.
/// Iterating a state's transitions touches one cache line instead of
/// chasing a vector-of-vectors indirection, and whole-model sweeps
/// (composition, refinement, extraction) stream linearly through memory.

namespace imcdft::ioimc {

/// Re-exported so users can write ioimc::SymbolTable(Ptr) next to the
/// other model types.
using imcdft::SymbolTable;
using imcdft::SymbolTablePtr;
using imcdft::makeSymbolTable;

/// Dense state index inside one model.
using StateId = std::uint32_t;

/// Action identifier; interned in the community's shared SymbolTable.
using ActionId = SymbolId;

/// Role of an action within a model's action signature.
enum class ActionKind : std::uint8_t { Input, Output, Internal };

/// The canonical internal action name used by quotients and hiding.
inline constexpr const char* kTauName = "__tau";

/// An interactive (input/output/internal) transition out of some state.
struct InteractiveTransition {
  ActionId action;
  StateId to;
  friend bool operator==(const InteractiveTransition&,
                         const InteractiveTransition&) = default;
};

/// A Markovian (exponentially delayed) transition out of some state.
struct MarkovianTransition {
  double rate;  ///< Strictly positive exponential rate.
  StateId to;
  friend bool operator==(const MarkovianTransition&,
                         const MarkovianTransition&) = default;
};

/// An action signature: the sets of input, output and internal actions a
/// model may engage in.  Inputs, outputs and internals are mutually
/// disjoint.  Stored sorted for fast membership tests and merging.
class Signature {
 public:
  /// Adds \p action with role \p kind.  Throws ModelError when the action
  /// already has a different role.
  void add(ActionId action, ActionKind kind);

  /// Returns the role of \p action, or npos-like absence via hasAction().
  ActionKind kindOf(ActionId action) const;

  /// True when the action appears in any of the three sets.
  bool hasAction(ActionId action) const;
  bool isInput(ActionId action) const { return contains(inputs_, action); }
  bool isOutput(ActionId action) const { return contains(outputs_, action); }
  bool isInternal(ActionId action) const {
    return contains(internals_, action);
  }

  const std::vector<ActionId>& inputs() const { return inputs_; }
  const std::vector<ActionId>& outputs() const { return outputs_; }
  const std::vector<ActionId>& internals() const { return internals_; }

  /// Moves \p action from the output set to the internal set (hiding).
  void hideOutput(ActionId action);

  friend bool operator==(const Signature&, const Signature&) = default;

 private:
  static bool contains(const std::vector<ActionId>& v, ActionId a);
  static void insertSorted(std::vector<ActionId>& v, ActionId a);
  static void eraseSorted(std::vector<ActionId>& v, ActionId a);

  std::vector<ActionId> inputs_;
  std::vector<ActionId> outputs_;
  std::vector<ActionId> internals_;
};

/// Role of an action id with respect to one model's signature, as stored in
/// the dense tables actionRoles() builds for the hot loops (composition,
/// refinement) in place of repeated binary searches over the signature.
enum class ActionRole : std::uint8_t { None, Input, Output, Internal };

/// Flat CSR transition storage handed to the flat IOIMC constructor by the
/// hot producers (compose, quotient construction, reachability
/// restriction).  offsets has numStates()+1 entries; state s owns
/// data[offsets[s]..offsets[s+1]).
template <class Transition>
struct CsrTransitions {
  std::vector<std::uint32_t> offsets;
  std::vector<Transition> data;

  /// Appends one state's row; rows must be appended in state order.
  void beginState() { offsets.push_back(static_cast<std::uint32_t>(data.size())); }
  void finish() { offsets.push_back(static_cast<std::uint32_t>(data.size())); }
};

using CsrInteractive = CsrTransitions<InteractiveTransition>;
using CsrMarkovian = CsrTransitions<MarkovianTransition>;

/// An explicit-state I/O-IMC.
///
/// Instances are immutable after construction (use IOIMCBuilder, or the
/// operations in ops.hpp / compose.hpp / bisimulation.hpp which all return
/// new models).  States carry an optional set of atomic labels (at most 32
/// per model) used to mark, e.g., system-failure states so that aggregation
/// and analysis can observe them.
class IOIMC {
 public:
  /// Convenience constructor from per-state transition vectors (the builder
  /// path); flattens into CSR storage.
  IOIMC(std::string name, SymbolTablePtr symbols, Signature signature,
        StateId initial, std::vector<std::vector<InteractiveTransition>> inter,
        std::vector<std::vector<MarkovianTransition>> markov,
        std::vector<std::uint32_t> labelMasks,
        std::vector<std::string> labelNames);

  /// CSR-native constructor (the hot path: composition and quotients build
  /// their rows in state order and move them in without re-packing).
  IOIMC(std::string name, SymbolTablePtr symbols, Signature signature,
        StateId initial, CsrInteractive inter, CsrMarkovian markov,
        std::vector<std::uint32_t> labelMasks,
        std::vector<std::string> labelNames);

  /// This model with \p signature in place of its own, keeping its
  /// states, labels and transition arrays, which move over (hiding).
  IOIMC withSignature(Signature signature) &&;

  const std::string& name() const { return name_; }
  const SymbolTablePtr& symbols() const { return symbols_; }
  const Signature& signature() const { return signature_; }
  StateId initial() const { return initial_; }
  std::size_t numStates() const { return labelMasks_.size(); }

  /// Total number of interactive plus Markovian transitions.
  std::size_t numTransitions() const {
    return inter_.data.size() + markov_.data.size();
  }
  std::size_t numInteractiveTransitions() const { return inter_.data.size(); }
  std::size_t numMarkovianTransitions() const { return markov_.data.size(); }

  std::span<const InteractiveTransition> interactive(StateId s) const {
    return {inter_.data.data() + inter_.offsets[s],
            inter_.offsets[s + 1] - inter_.offsets[s]};
  }
  std::span<const MarkovianTransition> markovian(StateId s) const {
    return {markov_.data.data() + markov_.offsets[s],
            markov_.offsets[s + 1] - markov_.offsets[s]};
  }

  /// The whole flat transition arrays (for linear whole-model sweeps).
  std::span<const InteractiveTransition> allInteractive() const {
    return {inter_.data.data(), inter_.data.size()};
  }
  std::span<const MarkovianTransition> allMarkovian() const {
    return {markov_.data.data(), markov_.data.size()};
  }

  /// True when state \p s has no outgoing internal transition.  Maximal
  /// progress means time can only pass in stable states.
  bool isStable(StateId s) const;

  /// True when the model has no input and no output actions.
  bool isClosed() const;

  /// True when the model has no interactive transitions at all, i.e. it can
  /// be read directly as a CTMC.
  bool isMarkovChain() const { return inter_.data.empty(); }

  /// Label interface.  Labels are model-local; masks are bitsets over
  /// labelNames().
  const std::vector<std::string>& labelNames() const { return labelNames_; }
  std::uint32_t labelMask(StateId s) const { return labelMasks_[s]; }
  /// Index of \p label in labelNames() or -1 when absent.
  int labelIndex(const std::string& label) const;
  bool hasLabel(StateId s, int labelIdx) const {
    return labelIdx >= 0 && (labelMasks_[s] >> labelIdx) & 1u;
  }

  /// Human-readable action name (for reports and exporters).
  const std::string& actionName(ActionId a) const { return symbols_->name(a); }

 private:
  void validate() const;

  std::string name_;
  SymbolTablePtr symbols_;
  Signature signature_;
  StateId initial_;
  CsrInteractive inter_;
  CsrMarkovian markov_;
  std::vector<std::uint32_t> labelMasks_;
  std::vector<std::string> labelNames_;
};

/// Dense per-action role table of \p m's signature, indexed by ActionId
/// (sized to the shared symbol table, so ids of other models resolve too).
std::vector<ActionRole> actionRoles(const IOIMC& m);

}  // namespace imcdft::ioimc
