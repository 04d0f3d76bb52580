#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "dft/model.hpp"
#include "dft/modules.hpp"
#include "diftree/modular.hpp"

/// \file static_combine.hpp
/// The static-layer numeric combination path (EngineOptions::staticCombine).
///
/// When dft::detectStaticLayer proves that the top of the tree is a static
/// combination layer — AND/OR/VOTING gates over stochastically independent,
/// always-active modules, with no dynamic coupling crossing the boundary —
/// the joint unfired product of the modules never has to be materialized.
/// Instead the Analyzer:
///
///  1. runs the ordinary compositional pipeline *per frontier module* (so
///     the worker pool, the symmetry reduction and the session module
///     cache all still apply inside each module), extracting one absorbing
///     CTMC per distinct module.  Each frontier module is served as a tree
///     of its own: from the session tree cache or the store's whole-tree
///     record when either holds it;
///  2. solves each CTMC's "down"-probability at every requested mission
///     time with one shared uniformization sweep (ctmc::labelCurve);
///  3. evaluates the layer's structure function over the per-time
///     probabilities with a BDD (diftree::StaticStructure — the DIFTree
///     static solver, generalized to per-time probability vectors).
///
/// This is the DIFTree shortcut of replacing a solved module by a pseudo
/// basic event under a static parent, lifted from constant probabilities
/// to whole unreliability curves: sound because the modules are
/// independent (disjoint closures, no cross edges) and failures are
/// monotone in an unrepairable tree, so "top failed by t" is exactly the
/// structure function of "module i failed by t".  Work becomes linear in
/// the number of modules where composition is exponential.
///
/// A StaticCombination is the cacheable result of steps 1 and 3: the
/// solved chains plus the compiled structure function.  It hangs off
/// DftAnalysis::staticCombo; the Analyzer evaluates each requested time
/// grid against it, solving step 2 afresh.

namespace imcdft {
class CancelToken;  // common/cancel.hpp
}

namespace imcdft::analysis {

/// One frontier module of a solved static combination.  Symmetric siblings
/// share a chain index ("one curve for free").
struct NumericModule {
  std::string name;       ///< module root element name in the original tree
  std::size_t chain = 0;  ///< index into chains()
  std::size_t states = 0;       ///< aggregated module model size
  std::size_t transitions = 0;
};

class StaticCombination {
 public:
  /// One distinct solved module: the per-module pipeline result (its
  /// absorbed extraction carries the CTMC the curves are computed on) plus
  /// the key its symmetric siblings share within the request (the module's
  /// rename-invariant shape under symmetry, its exact key otherwise).
  struct SolvedChain {
    std::string key;
    std::shared_ptr<const DftAnalysis> analysis;
  };

  /// Compiles the layer's structure function over one pseudo basic event
  /// per frontier module.  \p modules must be aligned with
  /// \p layer.moduleRoots; every NumericModule::chain must index
  /// \p chains.
  StaticCombination(const dft::Dft& tree, const dft::StaticLayer& layer,
                    std::vector<SolvedChain> chains,
                    std::vector<NumericModule> modules);

  /// Curve supplier hook: returns the "down"-probability curve of
  /// chains()[index] over \p times.  The Analyzer passes solveCurve().
  using CurveFn = std::function<std::vector<double>(
      std::size_t index, const std::vector<double>& times)>;

  /// System unreliability at every time point: per-chain curves through
  /// \p curveFor, then one structure-function evaluation per time.
  std::vector<double> evaluate(const std::vector<double>& times,
                               const CurveFn& curveFor) const;

  /// Solves chains()[index]'s curve directly (one uniformization sweep).
  /// \p cancel, when set, is checkpointed once per uniformization step so a
  /// budgeted request unwinds mid-sweep (common/cancel.hpp; not owned).
  std::vector<double> solveCurve(std::size_t index,
                                 const std::vector<double>& times,
                                 const CancelToken* cancel = nullptr) const;

  const std::vector<SolvedChain>& chains() const { return solved_; }
  const std::vector<NumericModule>& modules() const { return modules_; }
  std::size_t layerGateCount() const { return layerGateCount_; }
  std::size_t bddNodes() const { return structure_.bddNodes(); }

  /// One-line description for diagnostics and --stats.
  std::string summary() const;

 private:
  StaticCombination(dft::Dft layerDft, std::size_t layerGateCount,
                    std::vector<SolvedChain> chains,
                    std::vector<NumericModule> modules);

  diftree::StaticStructure structure_;
  std::size_t layerSize_ = 0;       ///< element count of the layer mini-DFT
  std::size_t layerGateCount_ = 0;
  /// Mini-DFT basic-event id -> chain index, in basic-event order.
  std::vector<std::pair<dft::ElementId, std::size_t>> binding_;
  std::vector<SolvedChain> solved_;
  std::vector<NumericModule> modules_;
};

/// The layer as a standalone static DFT: one basic event per frontier
/// module root (names preserved) under copies of the layer gates.  This is
/// what StaticCombination compiles; exposed for tests.
dft::Dft buildLayerDft(const dft::Dft& dft, const dft::StaticLayer& layer);

}  // namespace imcdft::analysis
