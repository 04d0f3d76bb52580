#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ioimc/model.hpp"

/// \file elements.hpp
/// Elementary I/O-IMC models of the DFT elements (Figs. 3-5 and 12-14 of
/// the paper, generalized to arbitrary arity per [9]).  The spare gate
/// lives in spare_gate.hpp.
///
/// All unrepairable gate models rely on the *single-firing discipline*:
/// in any community our converter produces, each firing signal is output at
/// most once (fired states are absorbing), so counting failed inputs is
/// exact.  The subset-tracking variants are the test reference for the
/// counting gates (Invariance.SubsetGatesGiveTheSameAnswer).

namespace imcdft::semantics {

/// Basic event (Fig. 3).  \p dormancy is alpha: the dormant failure rate is
/// alpha * lambda.  When \p activationInput is empty the event starts (and
/// stays) active; a hot event (alpha == 1) never listens for activation.
/// \p phases generalizes the failure delay to an Erlang(phases, lambda)
/// distribution — the paper's future-work item (3); activation preserves
/// the phase already reached.
ioimc::IOIMC basicEvent(ioimc::SymbolTablePtr symbols, const std::string& name,
                        double lambda, double dormancy,
                        const std::optional<std::string>& activationInput,
                        const std::string& firingOutput,
                        std::uint32_t phases = 1);

/// Logic of a counting threshold gate.
struct GateThreshold {
  std::uint32_t failuresToFire;  ///< AND: n, OR: 1, K/M: k
};

/// AND / OR / K-of-M gate via failure counting.
ioimc::IOIMC countingGate(ioimc::SymbolTablePtr symbols,
                          const std::string& name, GateThreshold threshold,
                          const std::vector<std::string>& firingInputs,
                          const std::string& firingOutput);

/// AND / OR / K-of-M gate tracking the exact failed subset (exponentially
/// larger; used to benchmark the counting optimization).
ioimc::IOIMC subsetGate(ioimc::SymbolTablePtr symbols, const std::string& name,
                        GateThreshold threshold,
                        const std::vector<std::string>& firingInputs,
                        const std::string& firingOutput);

/// Priority-AND (Fig. 4): fires when all inputs fail in left-to-right
/// order; a wrong-order failure moves it to an absorbing operational state.
ioimc::IOIMC pandGate(ioimc::SymbolTablePtr symbols, const std::string& name,
                      const std::vector<std::string>& orderedFiringInputs,
                      const std::string& firingOutput);

/// OR-shaped auxiliary: fires once any input fires.  Used for the firing
/// auxiliary of FDEP dependents (Fig. 5, inputs = {f*_A, f_T1, ...}) and
/// for the activation auxiliary of shared spares (inputs = {a_S.G1, ...}).
ioimc::IOIMC orAuxiliary(ioimc::SymbolTablePtr symbols, const std::string& name,
                         const std::vector<std::string>& inputs,
                         const std::string& output);

/// Inhibition auxiliary (Fig. 12): forwards fi_X as f_X unless one of the
/// inhibitors fired first, in which case X can never fail.
ioimc::IOIMC inhibitionAuxiliary(ioimc::SymbolTablePtr symbols,
                                 const std::string& name,
                                 const std::string& isolatedFiringInput,
                                 const std::vector<std::string>& inhibitorInputs,
                                 const std::string& firingOutput);

/// Top-event observer.  Moves to a state labelled \p downLabel when the
/// watched firing signal arrives; with a repair input it toggles back.
ioimc::IOIMC monitor(ioimc::SymbolTablePtr symbols,
                     const std::string& firingInput,
                     const std::optional<std::string>& repairInput,
                     const std::string& downLabel = "down");

/// Repairable basic event (Fig. 13 generalized to warm events): fails with
/// the dormancy-scaled rate, is repaired with rate \p mu, and announces
/// repairs on \p repairOutput.  Repair returns the event to its active
/// state once activation has been received.
ioimc::IOIMC repairableBasicEvent(ioimc::SymbolTablePtr symbols,
                                  const std::string& name, double lambda,
                                  double mu, double dormancy,
                                  const std::optional<std::string>& activationInput,
                                  const std::string& firingOutput,
                                  const std::string& repairOutput,
                                  std::uint32_t phases = 1);

/// One input of a repairable gate: its firing signal and, when the input is
/// itself repairable, its repair signal.
struct RepairableInput {
  std::string firingInput;
  std::optional<std::string> repairInput;
};

/// Repairable AND / OR / K-of-M gate (Fig. 14 generalized): announces f!
/// when the number of currently-failed inputs reaches the threshold and r!
/// when it drops below again.
ioimc::IOIMC repairableThresholdGate(ioimc::SymbolTablePtr symbols,
                                     const std::string& name,
                                     GateThreshold threshold,
                                     const std::vector<RepairableInput>& inputs,
                                     const std::string& firingOutput,
                                     const std::string& repairOutput);

}  // namespace imcdft::semantics
