#pragma once

#include <cstddef>
#include <optional>

#include "ioimc/model.hpp"

/// \file compose.hpp
/// Parallel composition of I/O-IMC (Section 3 of the paper).
///
/// Two models synchronize on the actions shared by their signatures:
///  * an output of one matched with an input of the other occurs when the
///    *owner* outputs; the receiving side takes its explicit input
///    transition, or stays put (implicit input self-loop) when it has none;
///  * an action that is an input of both stays an input of the composite
///    and moves every component that has an explicit transition;
///  * two models may not share an output action (I/O automata
///    compatibility);
///  * Markovian transitions, internal actions and non-shared actions
///    interleave.
///
/// The composite signature is: outputs = out(A) u out(B),
/// inputs = (in(A) u in(B)) \ outputs, internal = int(A) u int(B).

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::ioimc {

/// Composes two compatible I/O-IMC, exploring only reachable pairs.
/// Throws ModelError when the models are incompatible (shared outputs,
/// different symbol tables, or an internal action of one colliding with a
/// visible action of the other).  \p cancel, when set, is checkpointed as
/// the reachable product expands, so an over-budget composition throws
/// BudgetExceeded instead of materializing the full product.
IOIMC compose(const IOIMC& a, const IOIMC& b,
              const CancelToken* cancel = nullptr);

/// compose() for a caller that has another way to build the step: gives
/// up and returns nullopt as soon as the pairs discovered and transitions
/// emitted so far exceed \p cancel's live-state or rough memory cap
/// (CancelToken::exceedsCaps), without tripping the token.  Its other
/// limits (deadline, checkpoint count, cancel()) still throw
/// BudgetExceeded.  \p discovered receives the pairs discovered: the
/// product's states when it fits.
std::optional<IOIMC> composeWithinCaps(const IOIMC& a, const IOIMC& b,
                                       const CancelToken& cancel,
                                       std::size_t& discovered);

}  // namespace imcdft::ioimc
