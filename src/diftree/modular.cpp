#include "diftree/modular.hpp"

#include <algorithm>
#include <cmath>

#include "bdd/bdd.hpp"
#include "common/error.hpp"
#include "ctmc/transient.hpp"
#include "dft/modules.hpp"
#include "diftree/monolithic.hpp"

namespace imcdft::diftree {

using dft::Dft;
using dft::Element;
using dft::ElementId;
using dft::ElementType;

namespace {

/// Basic events of \p dft in id order (the shared BDD variable order).
std::vector<ElementId> staticBasicEvents(const Dft& dft) {
  std::vector<ElementId> bes;
  for (ElementId id = 0; id < dft.size(); ++id)
    if (dft.element(id).isBasicEvent()) bes.push_back(id);
  return bes;
}

}  // namespace

StaticStructure::StaticStructure(const Dft& dft)
    : varOf_(dft.size(), 0),
      beOfVar_(staticBasicEvents(dft)),
      manager_(static_cast<std::uint32_t>(beOfVar_.size())) {
  for (std::uint32_t var = 0; var < beOfVar_.size(); ++var)
    varOf_[beOfVar_[var]] = var;
  std::vector<bdd::NodeRef> node(dft.size(), bdd::kFalse);
  for (ElementId id : dft.topologicalOrder()) {
    const Element& e = dft.element(id);
    switch (e.type) {
      case ElementType::BasicEvent:
        node[id] = manager_.variable(varOf_[id]);
        break;
      case ElementType::And: {
        bdd::NodeRef acc = bdd::kTrue;
        for (ElementId in : e.inputs) acc = manager_.bddAnd(acc, node[in]);
        node[id] = acc;
        break;
      }
      case ElementType::Or: {
        bdd::NodeRef acc = bdd::kFalse;
        for (ElementId in : e.inputs) acc = manager_.bddOr(acc, node[in]);
        node[id] = acc;
        break;
      }
      case ElementType::Voting: {
        std::vector<bdd::NodeRef> ins;
        for (ElementId in : e.inputs) ins.push_back(node[in]);
        node[id] = manager_.atLeast(ins, e.votingThreshold);
        break;
      }
      default:
        throw UnsupportedError(
            "StaticStructure: element '" + e.name + "' is not static");
    }
  }
  root_ = node[dft.top()];
}

double StaticStructure::probability(
    const std::vector<double>& beProbability) const {
  require(beProbability.size() == varOf_.size(),
          "StaticStructure: probability vector size mismatch");
  std::vector<double> varProbs(beOfVar_.size(), 0.0);
  for (std::uint32_t var = 0; var < beOfVar_.size(); ++var)
    varProbs[var] = beProbability[beOfVar_[var]];
  return manager_.probability(root_, varProbs);
}

std::vector<double> StaticStructure::curve(
    const std::vector<std::vector<double>>& beProbabilityPerTime) const {
  std::vector<double> out;
  out.reserve(beProbabilityPerTime.size());
  for (const std::vector<double>& probs : beProbabilityPerTime)
    out.push_back(probability(probs));
  return out;
}

double staticUnreliability(const Dft& dft,
                           const std::vector<double>& beProbability) {
  return StaticStructure(dft).probability(beProbability);
}

namespace {

/// Classic-DIFTree feature check: spare inputs must be basic events (the
/// lifting of this restriction is exactly the paper's contribution, which
/// the baseline does not have).
void checkClassic(const Dft& dft) {
  for (ElementId id = 0; id < dft.size(); ++id) {
    const Element& e = dft.element(id);
    if (e.type != ElementType::Spare && e.type != ElementType::Seq) continue;
    for (ElementId in : e.inputs)
      if (!dft.element(in).isBasicEvent())
        throw UnsupportedError(
            "modularAnalysis: spare gate '" + e.name +
            "' has a non-basic-event input; the DIFTree baseline only "
            "supports basic-event spares");
  }
  if (dft.isRepairable())
    throw UnsupportedError("modularAnalysis: repairable trees are not supported");
}

double solveModule(const Dft& tree, double t, ModularResult& out);

/// P(Erlang(k, lambda) <= t): the BE failure probability at mission time.
double erlangCdf(std::uint32_t k, double lambda, double t) {
  double term = 1.0, sum = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) {
    sum += term;
    term *= lambda * t / static_cast<double>(i + 1);
  }
  return 1.0 - std::exp(-lambda * t) * sum;
}

/// Combines the probabilities of independent children under a static top
/// gate by building a tiny BDD with one variable per child.
double combineStaticTop(const Dft& tree,
                        const std::vector<double>& childProb) {
  const Element& top = tree.element(tree.top());
  bdd::BddManager manager(static_cast<std::uint32_t>(top.inputs.size()));
  std::vector<bdd::NodeRef> vars;
  for (std::uint32_t i = 0; i < top.inputs.size(); ++i)
    vars.push_back(manager.variable(i));
  bdd::NodeRef f;
  switch (top.type) {
    case ElementType::And: {
      f = bdd::kTrue;
      for (bdd::NodeRef v : vars) f = manager.bddAnd(f, v);
      break;
    }
    case ElementType::Or: {
      f = bdd::kFalse;
      for (bdd::NodeRef v : vars) f = manager.bddOr(f, v);
      break;
    }
    case ElementType::Voting:
      f = manager.atLeast(vars, top.votingThreshold);
      break;
    default:
      throw UnsupportedError("combineStaticTop: top is not static");
  }
  return manager.probability(f, childProb);
}

double solveModule(const Dft& tree, double t, ModularResult& out) {
  const Element& top = tree.element(tree.top());
  ModularSolveInfo info;
  info.moduleName = top.name;

  if (!tree.isDynamic()) {
    // Pure static module: BDD over the basic events.
    std::vector<double> probs(tree.size(), 0.0);
    for (ElementId id = 0; id < tree.size(); ++id)
      if (tree.element(id).isBasicEvent())
        probs[id] = erlangCdf(tree.element(id).be.phases,
                              tree.element(id).be.lambda, t);
    info.dynamic = false;
    info.probability = staticUnreliability(tree, probs);
    out.modules.push_back(info);
    return info.probability;
  }

  // Dynamic somewhere below.  If the top is static and all children are
  // independent modules, solve them separately and combine — this is the
  // "replace a module by a BE with a constant failure probability under a
  // static parent" rule.
  if (top.type == ElementType::And || top.type == ElementType::Or ||
      top.type == ElementType::Voting) {
    std::vector<dft::ModuleInfo> modules = dft::independentModules(tree);
    auto isModuleRoot = [&](ElementId id) {
      return std::any_of(modules.begin(), modules.end(),
                         [&](const dft::ModuleInfo& m) { return m.root == id; });
    };
    if (std::all_of(top.inputs.begin(), top.inputs.end(), isModuleRoot)) {
      std::vector<double> childProb;
      for (ElementId child : top.inputs)
        childProb.push_back(
            solveModule(dft::extractModule(tree, child), t, out));
      info.dynamic = true;
      info.probability = combineStaticTop(tree, childProb);
      out.modules.push_back(info);
      return info.probability;
    }
  }

  // Dynamic module that cannot be decomposed further: whole-module Markov
  // chain, the DIFTree way.
  MonolithicResult mc = generateMonolithic(tree);
  info.dynamic = true;
  info.mcStates = mc.numStates;
  info.mcTransitions = mc.numTransitions;
  info.probability = ctmc::probabilityOfLabelAt(mc.chain, "down", t);
  out.largestMcStates = std::max(out.largestMcStates, mc.numStates);
  out.largestMcTransitions =
      std::max(out.largestMcTransitions, mc.numTransitions);
  out.modules.push_back(info);
  return info.probability;
}

}  // namespace

ModularResult modularAnalysis(const Dft& dft, double missionTime) {
  checkClassic(dft);
  ModularResult out;
  out.unreliability =
      solveModule(dft::extractModule(dft, dft.top()), missionTime, out);
  return out;
}

}  // namespace imcdft::diftree
