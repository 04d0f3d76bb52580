#include "analysis/symmetry.hpp"

#include <algorithm>

#include "semantics/signals.hpp"

namespace imcdft::analysis {

std::optional<std::unordered_map<std::string, std::string>>
liftElementRenaming(const dft::Dft& module,
                    const std::vector<std::string>& oldNames,
                    const std::vector<std::string>& newNames) {
  if (oldNames.size() != newNames.size() || module.size() != oldNames.size())
    return std::nullopt;
  std::unordered_map<std::string, std::string> lift;
  lift.reserve(5 * oldNames.size());
  bool ambiguous = false;
  auto add = [&](std::string from, const std::string& to) {
    auto [it, fresh] = lift.try_emplace(std::move(from), to);
    if (!fresh && it->second != to) ambiguous = true;
  };
  for (std::size_t i = 0; i < oldNames.size(); ++i) {
    const std::string& o = oldNames[i];
    const std::string& n = newNames[i];
    add(semantics::firingSignal(o), semantics::firingSignal(n));
    add(semantics::isolatedFiringSignal(o), semantics::isolatedFiringSignal(n));
    add(semantics::activationSignal(o), semantics::activationSignal(n));
    add(semantics::repairSignal(o), semantics::repairSignal(n));
  }
  // Claim signals name a (slot, gate) pair; the conversion only emits them
  // for the slots of spare-like gates, so only those pairs are lifted.
  for (dft::ElementId g = 0; g < module.size(); ++g) {
    const dft::Element& e = module.element(g);
    if (e.type != dft::ElementType::Spare && e.type != dft::ElementType::Seq)
      continue;
    for (dft::ElementId slot : e.inputs)
      add(semantics::claimSignal(oldNames[slot], oldNames[g]),
          semantics::claimSignal(newNames[slot], newNames[g]));
  }
  if (ambiguous) return std::nullopt;
  return lift;
}

bool orderPreserving(std::vector<ActionIdPair>& pairs) {
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i].first == pairs[i - 1].first) return false;
    if (pairs[i].second <= pairs[i - 1].second) return false;
  }
  return true;
}

}  // namespace imcdft::analysis
