#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ioimc/model.hpp"

/// \file ops.hpp
/// Basic model transformations: hiding, renaming, reachability restriction
/// and goal-absorption.  All operations are pure and return new models.

namespace imcdft::ioimc {

/// Hides the given output actions: they become internal actions (step 3 of
/// the paper's conversion/analysis algorithm).  Hidden actions no longer
/// synchronize in later compositions and are abstracted by weak
/// bisimulation.  Throws ModelError when an action is not an output.
IOIMC hide(const IOIMC& m, const std::vector<ActionId>& actions);
/// As above, moving \p m's transition arrays into the result.
IOIMC hide(IOIMC&& m, const std::vector<ActionId>& actions);

/// Hides every output action of \p m (used once the community has been
/// reduced to a single model).
IOIMC hideAllOutputs(const IOIMC& m);

/// Renames actions according to \p renaming (old action id -> new name);
/// actions absent from the map keep their names.  This implements the
/// reuse-by-renaming of Section 5.2 of the paper: an aggregated module
/// I/O-IMC is instantiated for a sibling module by renaming its firing,
/// activation and claim signals (the engine's symmetry reduction builds
/// on it, see analysis/symmetry.hpp).  Action kinds, state order and
/// transition order are preserved, so an *order-preserving* renaming
/// commutes bitwise with compose/hide/aggregate.  Throws ModelError when the
/// resolved map is not injective on the model's signature, i.e. two
/// distinct actions would collapse into one name (identity entries are
/// allowed).  New target names are interned in the model's symbol table.
IOIMC renameActions(const IOIMC& m,
                    const std::unordered_map<ActionId, std::string>& renaming);

/// Removes states unreachable from the initial state.
IOIMC restrictToReachable(const IOIMC& m);

/// Deterministically renumbers \p m into a canonical form: states are
/// ranked by iterated strong-signature refinement seeded with
/// (is-initial, label mask) — an order-independent coloring — and rows are
/// re-sorted by (action, target) / (target, rate bits).  Two models that
/// are isomorphic (equal up to state numbering and within-row transition
/// order, with bit-equal rates) produce *byte-identical* canonical forms,
/// provided the ranking separates every state.  On minimal weak quotients
/// it always does (distinct states are not even weakly bisimilar, and the
/// ranking is at least as fine as strong bisimulation); when it does not —
/// the model has non-trivial strong-bisimulation classes — the input is
/// returned unchanged and \p complete (when non-null) is set to false.
/// This is the normalization that lets the on-the-fly compose-and-minimize
/// engine guarantee bit-identical measures against the classic
/// compose+quotient pipeline (see otf_compose.hpp); aggregate() applies it
/// to every quotient.
IOIMC canonicalRenumber(const IOIMC& m, bool* complete = nullptr);

/// Deletes all outgoing transitions of states carrying \p label, making them
/// absorbing.  Sound for time-bounded reachability of \p label (the measure
/// the paper computes: system unreliability).
IOIMC makeLabelAbsorbing(const IOIMC& m, const std::string& label);

/// Collapses *unobservable sinks*: maximal sets of states from which no
/// visible (input or output) transition is reachable and whose reachable
/// label masks are all identical.  Each such set merges into one absorbing
/// state carrying that mask.
///
/// This removes the semantically dead evolution that keeps running after a
/// module has fired (spare parts of a failed module failing one by one):
/// no measure defined on visible actions and state labels can tell the
/// difference, but ordinary weak bisimulation cannot merge those states
/// because their Markovian structure differs.  Applying this pass after
/// hiding is what keeps the aggregated module I/O-IMC as small as the
/// paper reports (Section 5.1: six states per CAS module).
IOIMC collapseUnobservableSinks(const IOIMC& m);

namespace detail {

/// The marking collapseUnobservableSinks() collapses by: 1 for each state
/// of \p m whose future can be observed, 0 for each state it absorbs.  A
/// state flagged in \p pinned (when non-empty, one flag per state) counts
/// as observable; the fused engine (otf_compose.cpp) pins its unexplored
/// frontier, whose future is unknown.
std::vector<std::uint8_t> observableStates(
    const IOIMC& m, const std::vector<std::uint8_t>& pinned = {});

}  // namespace detail

}  // namespace imcdft::ioimc
