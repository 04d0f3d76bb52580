#include "analysis/static_combine.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"
#include "ctmc/transient.hpp"
#include "dft/builder.hpp"

namespace imcdft::analysis {

dft::Dft buildLayerDft(const dft::Dft& dft, const dft::StaticLayer& layer) {
  require(layer.eligible, "buildLayerDft: layer is not eligible");
  dft::DftBuilder b;
  // One pseudo basic event per frontier module; the rate is never used
  // (probabilities are substituted directly), only the structure matters.
  for (dft::ElementId root : layer.moduleRoots)
    b.basicEvent(dft.element(root).name, 1.0);
  // Layer gates in input-before-gate order.
  std::vector<char> inLayer(dft.size(), 0);
  for (dft::ElementId g : layer.gates) inLayer[g] = 1;
  for (dft::ElementId id : dft.topologicalOrder()) {
    if (!inLayer[id]) continue;
    const dft::Element& e = dft.element(id);
    std::vector<std::string> inputs;
    inputs.reserve(e.inputs.size());
    for (dft::ElementId in : e.inputs) inputs.push_back(dft.element(in).name);
    switch (e.type) {
      case dft::ElementType::And:
        b.andGate(e.name, inputs);
        break;
      case dft::ElementType::Or:
        b.orGate(e.name, inputs);
        break;
      case dft::ElementType::Voting:
        b.votingGate(e.name, e.votingThreshold, inputs);
        break;
      default:
        throw ModelError("buildLayerDft: layer gate '" + e.name +
                         "' is not static");
    }
  }
  b.top(dft.element(dft.top()).name);
  return b.build();
}

StaticCombination::StaticCombination(const dft::Dft& tree,
                                     const dft::StaticLayer& layer,
                                     std::vector<SolvedChain> chains,
                                     std::vector<NumericModule> modules)
    : StaticCombination(buildLayerDft(tree, layer), layer.gates.size(),
                        std::move(chains), std::move(modules)) {
  require(modules_.size() == layer.moduleRoots.size(),
          "StaticCombination: one NumericModule per frontier root expected");
}

StaticCombination::StaticCombination(dft::Dft layerDft,
                                     std::size_t layerGateCount,
                                     std::vector<SolvedChain> chains,
                                     std::vector<NumericModule> modules)
    : structure_(layerDft),
      layerGateCount_(layerGateCount),
      solved_(std::move(chains)),
      modules_(std::move(modules)) {
  // Bind the mini-DFT's basic events (declared in frontier order) to the
  // chain of the equally-named module.
  layerSize_ = layerDft.size();
  std::unordered_map<std::string, std::size_t> chainOfName;
  for (const NumericModule& m : modules_) {
    require(m.chain < solved_.size(), "StaticCombination: chain out of range");
    chainOfName.emplace(m.name, m.chain);
  }
  for (dft::ElementId id = 0; id < layerDft.size(); ++id) {
    if (!layerDft.element(id).isBasicEvent()) continue;
    auto it = chainOfName.find(layerDft.element(id).name);
    require(it != chainOfName.end(),
            "StaticCombination: frontier module without a solved chain");
    binding_.emplace_back(id, it->second);
  }
}

std::vector<double> StaticCombination::solveCurve(
    std::size_t index, const std::vector<double>& times,
    const CancelToken* cancel) const {
  // Module chains are tiny, so the curves are solved tighter than the
  // composition path's default 1e-10 truncation: the structure function
  // combines several per-module errors, and the E14 agreement budget
  // (1e-9 relative with an absolute floor at the uniformization
  // tolerance) should be spent on the composition side, not here.
  ctmc::TransientOptions opts;
  opts.epsilon = 1e-12;
  opts.cancel = cancel;
  return ctmc::labelCurve(solved_[index].analysis->absorbed.chain, kDownLabel,
                          times, opts);
}

std::vector<double> StaticCombination::evaluate(
    const std::vector<double>& times, const CurveFn& curveFor) const {
  std::vector<std::vector<double>> curves(solved_.size());
  for (std::size_t i = 0; i < solved_.size(); ++i) {
    curves[i] = curveFor(i, times);
    require(curves[i].size() == times.size(),
            "StaticCombination: curve length mismatch");
  }
  std::vector<double> out;
  out.reserve(times.size());
  std::vector<double> probs(layerSize_, 0.0);
  for (std::size_t j = 0; j < times.size(); ++j) {
    for (const auto& [beId, chain] : binding_) probs[beId] = curves[chain][j];
    out.push_back(structure_.probability(probs));
  }
  return out;
}

std::string StaticCombination::summary() const {
  return "static combination: layer of " + std::to_string(layerGateCount_) +
         " gate(s) over " + std::to_string(modules_.size()) +
         " independent module(s), " + std::to_string(solved_.size()) +
         " distinct curve(s) solved numerically";
}

}  // namespace imcdft::analysis
