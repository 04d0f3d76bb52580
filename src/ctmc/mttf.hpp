#pragma once

#include <string>

#include "ctmc/ctmc.hpp"

/// \file mttf.hpp
/// Mean time to failure: the expected time until the chain first enters a
/// state carrying a given label.  On the failure-absorbed chain the
/// analysis layer extracts, this is the system MTTF.
///
/// The expectation is finite only when the labelled states are reached with
/// probability one.  Trees whose top event may never fire (a PAND whose
/// inputs fail in the wrong order, an inhibited failure mode) have infinite
/// MTTF; the solver detects this by reachability instead of diverging.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::ctmc {

struct MttfResult {
  /// Expected hitting time; +infinity when finite == false.
  double value = 0.0;
  /// False when the label is missed with positive probability (or is
  /// unreachable altogether).
  bool finite = true;
};

/// Expected time to first reach a state labelled \p label from the initial
/// state.  Solves the linear hitting-time system by dense Gaussian
/// elimination over the reachable unlabelled states, so it is intended for
/// the small aggregated chains the analysis layer produces.  \p cancel,
/// when set, is checkpointed once per elimination column, so an
/// over-budget request unwinds with BudgetExceeded mid-solve.
MttfResult expectedTimeToLabel(const Ctmc& chain, const std::string& label,
                               const CancelToken* cancel = nullptr);

}  // namespace imcdft::ctmc
