#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dft/model.hpp"
#include "ioimc/model.hpp"

/// \file symmetry.hpp
/// Shared machinery of the symmetry reduction (the paper's Section 5.2
/// reuse-by-renaming, automated): lifting an element-name substitution to
/// the signal-name level, and checking that the induced ActionId map is
/// order-preserving.
///
/// Two modules with equal dft::moduleShape() keys are isomorphic under the
/// index-wise name substitution sigma.  The conversion (analysis/converter)
/// derives every community action name from element names through the five
/// signal constructors of semantics/signals.hpp, so sigma lifts to a map of
/// action names; applying ioimc::renameActions with that map to the
/// representative's aggregated model yields the sibling's aggregated model.
/// The engine (same-request symmetry) requires the id map to be
/// *order-preserving*: because every ordering decision in
/// compose/hide/quotient depends on ActionIds only through their relative
/// order (never their raw values), an order-preserving rename makes the
/// instantiated sibling bitwise identical to what aggregating the sibling
/// itself would have produced — the foundation of the "--symmetry on is
/// bit-identical to --symmetry off" guarantee, and the reason the engine
/// may offer each instantiated sibling to the Analyzer's module cache
/// under the sibling's own exact key.  (That cache keys on exact module
/// fingerprints only; it never renames a stored model.)
///
/// Every check failure makes the engine fall back to aggregating the
/// module normally, so an ambiguous lift can cost performance but never
/// correctness.

namespace imcdft::analysis {

/// Lifts the element-name substitution oldNames[i] -> newNames[i] to the
/// signal-name level: for every element, its firing / isolated-firing /
/// activation / repair signals, and for every spare-like gate, the claim
/// signals of its slots (primary and spares).  \p module is the extracted
/// module sub-DFT of the *old* side, whose element ids index both name
/// vectors.  Returns std::nullopt when the lift is ambiguous, i.e. two
/// distinct signals collapse to the same concrete string (possible only
/// with adversarial element names such as "i_X" making "f_" + "i_X" equal
/// "fi_" + "X").
std::optional<std::unordered_map<std::string, std::string>>
liftElementRenaming(const dft::Dft& module,
                    const std::vector<std::string>& oldNames,
                    const std::vector<std::string>& newNames);

/// One validated (old, new) ActionId pair of a module renaming.
using ActionIdPair = std::pair<ioimc::ActionId, ioimc::ActionId>;

/// Sorts \p pairs by old id and reports whether the map is strictly
/// order-preserving (new ids strictly increase with old ids; duplicates of
/// either side fail).  Order preservation implies injectivity and is what
/// makes a renamed instantiation bitwise identical to a from-scratch
/// aggregation (see the file comment).
bool orderPreserving(std::vector<ActionIdPair>& pairs);

}  // namespace imcdft::analysis
