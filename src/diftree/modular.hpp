#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "dft/model.hpp"

/// \file modular.hpp
/// The DIFTree modular analysis (Sections 2 and 5 of the paper):
/// the tree is split into independent modules; static modules are solved
/// with BDDs, dynamic modules by whole-module Markov chains, and each
/// solved module is replaced by a pseudo basic event with a constant
/// failure probability — which, as the paper stresses, is only sound when
/// the surrounding module is *static*.  A dynamic module is therefore
/// solved in one piece, which is precisely why DIFTree explodes on the
/// cascaded PAND system while the compositional approach does not.

namespace imcdft::diftree {

struct ModularSolveInfo {
  std::string moduleName;
  bool dynamic = false;
  /// Markov chain size for dynamic modules; 0 for BDD-solved static ones.
  std::size_t mcStates = 0;
  std::size_t mcTransitions = 0;
  double probability = 0.0;  ///< module failure probability at mission time
};

struct ModularResult {
  double unreliability = 0.0;
  std::vector<ModularSolveInfo> modules;
  /// The largest Markov chain any dynamic module needed.
  std::size_t largestMcStates = 0;
  std::size_t largestMcTransitions = 0;
};

/// Runs the DIFTree modular analysis at the given mission time.
/// Unrepairable trees only.
ModularResult modularAnalysis(const dft::Dft& dft, double missionTime);

/// A static (sub)tree's structure function compiled to a BDD once and
/// evaluated any number of times — the DIFTree static solver with the BDD
/// construction hoisted out of the evaluation loop.  Callers that evaluate
/// the same tree under many probability vectors (mission-time grids, the
/// engine's static-combination numeric path)
/// construct one StaticStructure and call probability() per vector;
/// staticUnreliability() below stays as the one-shot convenience.
class StaticStructure {
 public:
  /// Compiles \p dft's structure function: one BDD variable per basic
  /// event, ordered by element id.  Throws UnsupportedError when the tree
  /// contains anything but BEs and AND/OR/VOTING gates.
  explicit StaticStructure(const dft::Dft& dft);

  /// P(top fails) when basic event \p id fails independently with
  /// probability beProbability[id] (indexed by ElementId of the compiled
  /// tree; non-BE entries are ignored).
  double probability(const std::vector<double>& beProbability) const;

  /// probability() per row of \p beProbabilityPerTime (the per-time
  /// combination step of the numeric path).
  std::vector<double> curve(
      const std::vector<std::vector<double>>& beProbabilityPerTime) const;

  /// Basic events in variable order (ElementIds of the compiled tree).
  const std::vector<dft::ElementId>& basicEvents() const { return beOfVar_; }

  std::size_t bddNodes() const { return manager_.size(root_); }

 private:
  std::vector<std::uint32_t> varOf_;     ///< ElementId -> BDD variable
  std::vector<dft::ElementId> beOfVar_;  ///< BDD variable -> ElementId
  bdd::BddManager manager_;
  bdd::NodeRef root_ = bdd::kFalse;
};

/// Solves a purely static (sub)tree with the BDD engine; \p beProbability
/// gives each basic event's failure probability at the mission time.
/// One-shot wrapper over StaticStructure — hoist the construction out
/// yourself when evaluating the same tree repeatedly.
double staticUnreliability(const dft::Dft& dft,
                           const std::vector<double>& beProbability);

}  // namespace imcdft::diftree
