#pragma once

#include <string>
#include <vector>

#include "dft/model.hpp"
#include "ioimc/model.hpp"

/// \file converter.hpp
/// Step 1 of the paper's conversion/analysis algorithm (Section 5): map
/// each DFT element to its elementary I/O-IMC and match all inputs and
/// outputs.  The result is the *community* of I/O-IMC, including the
/// auxiliary models (firing auxiliaries for FDEP dependents, activation
/// auxiliaries for shared spares, inhibition auxiliaries) and a top-event
/// monitor whose "down" label survives aggregation.

namespace imcdft::analysis {

struct ConversionOptions {
  /// Use the subset-tracking AND/OR/K-M gates instead of the counting ones
  /// (exponentially larger elementary models): the test reference for the
  /// counting gates, Invariance.SubsetGatesGiveTheSameAnswer.
  bool subsetGates = false;
  /// Symbol table to intern action names in.  When null a fresh table is
  /// created per conversion.  The Analyzer session passes its own table so
  /// models cached from one request can be composed with communities
  /// converted for later requests (composition requires a shared table);
  /// it rejects a request that sets any other table.
  ioimc::SymbolTablePtr symbols;
};

/// How an element gets activated (Section 4/6 of the paper).
struct ActivationContext {
  bool alwaysActive = true;
  std::string signal;  ///< activation input when not always active
};

/// One member of the community.
struct CommunityModel {
  ioimc::IOIMC model;
  /// DFT elements this model involves, used by the engine's module tree
  /// to group models by independent module.
  std::vector<dft::ElementId> elements;
};

struct Community {
  ioimc::SymbolTablePtr symbols;
  std::vector<CommunityModel> models;
  std::string topFiringSignal;
  bool repairable = false;
  /// Per-element activation context (diagnostics and the DIFTree baseline
  /// reuse this).
  std::vector<ActivationContext> contexts;
};

/// Computes each element's activation context; exposed separately because
/// the DIFTree baseline needs the same information.  Throws ModelError on
/// activation conflicts (an element shared between differently-activated
/// spare modules).
std::vector<ActivationContext> activationContexts(const dft::Dft& dft);

/// Validates that the tree only uses combinations this framework defines
/// (e.g. repairable trees must be static; FDEP-dependents cannot also be
/// inhibited) and throws UnsupportedError / ModelError otherwise.
void checkConvertible(const dft::Dft& dft);

/// Builds the community.  Throws on unsupported trees (see
/// checkConvertible).
Community convertDft(const dft::Dft& dft, const ConversionOptions& opts = {});

}  // namespace imcdft::analysis
