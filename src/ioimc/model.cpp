#include "ioimc/model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace imcdft::ioimc {

bool Signature::contains(const std::vector<ActionId>& v, ActionId a) {
  return std::binary_search(v.begin(), v.end(), a);
}

void Signature::insertSorted(std::vector<ActionId>& v, ActionId a) {
  auto it = std::lower_bound(v.begin(), v.end(), a);
  if (it == v.end() || *it != a) v.insert(it, a);
}

void Signature::eraseSorted(std::vector<ActionId>& v, ActionId a) {
  auto it = std::lower_bound(v.begin(), v.end(), a);
  if (it != v.end() && *it == a) v.erase(it);
}

void Signature::add(ActionId action, ActionKind kind) {
  if (hasAction(action)) {
    require(kindOf(action) == kind,
            "Signature: action already present with a different role");
    return;
  }
  switch (kind) {
    case ActionKind::Input:
      insertSorted(inputs_, action);
      break;
    case ActionKind::Output:
      insertSorted(outputs_, action);
      break;
    case ActionKind::Internal:
      insertSorted(internals_, action);
      break;
  }
}

ActionKind Signature::kindOf(ActionId action) const {
  if (isInput(action)) return ActionKind::Input;
  if (isOutput(action)) return ActionKind::Output;
  require(isInternal(action), "Signature: action not in signature");
  return ActionKind::Internal;
}

bool Signature::hasAction(ActionId action) const {
  return isInput(action) || isOutput(action) || isInternal(action);
}

void Signature::hideOutput(ActionId action) {
  require(isOutput(action), "Signature: can only hide output actions");
  eraseSorted(outputs_, action);
  insertSorted(internals_, action);
}

namespace {

template <class Transition>
CsrTransitions<Transition> flatten(
    std::vector<std::vector<Transition>> rows) {
  CsrTransitions<Transition> csr;
  std::size_t total = 0;
  for (const auto& row : rows) total += row.size();
  csr.offsets.reserve(rows.size() + 1);
  csr.data.reserve(total);
  for (const auto& row : rows) {
    csr.beginState();
    csr.data.insert(csr.data.end(), row.begin(), row.end());
  }
  csr.finish();
  return csr;
}

}  // namespace

IOIMC::IOIMC(std::string name, SymbolTablePtr symbols, Signature signature,
             StateId initial,
             std::vector<std::vector<InteractiveTransition>> inter,
             std::vector<std::vector<MarkovianTransition>> markov,
             std::vector<std::uint32_t> labelMasks,
             std::vector<std::string> labelNames)
    : IOIMC(std::move(name), std::move(symbols), std::move(signature), initial,
            flatten(std::move(inter)), flatten(std::move(markov)),
            std::move(labelMasks), std::move(labelNames)) {}

IOIMC::IOIMC(std::string name, SymbolTablePtr symbols, Signature signature,
             StateId initial, CsrInteractive inter, CsrMarkovian markov,
             std::vector<std::uint32_t> labelMasks,
             std::vector<std::string> labelNames)
    : name_(std::move(name)),
      symbols_(std::move(symbols)),
      signature_(std::move(signature)),
      initial_(initial),
      inter_(std::move(inter)),
      markov_(std::move(markov)),
      labelMasks_(std::move(labelMasks)),
      labelNames_(std::move(labelNames)) {
  validate();
}

IOIMC IOIMC::withSignature(Signature signature) && {
  return IOIMC(std::move(name_), std::move(symbols_), std::move(signature),
               initial_, std::move(inter_), std::move(markov_),
               std::move(labelMasks_), std::move(labelNames_));
}

void IOIMC::validate() const {
  // Error messages are built only on the failing path: this runs once per
  // constructed model over every transition, and eagerly concatenating the
  // model name per check dominated the whole analysis pipeline.
  auto fail = [this](const char* what) {
    require(false, "IOIMC '" + name_ + "': " + what);
  };
  require(symbols_ != nullptr, "IOIMC: missing symbol table");
  const std::size_t n = labelMasks_.size();
  if (inter_.offsets.size() != n + 1 || markov_.offsets.size() != n + 1)
    fail("inconsistent state arrays");
  if (n == 0) fail("no states");
  if (initial_ >= n) fail("initial state out of range");
  if (labelNames_.size() > 32) fail("more than 32 labels");
  if (inter_.offsets.front() != 0 ||
      inter_.offsets.back() != inter_.data.size() ||
      !std::is_sorted(inter_.offsets.begin(), inter_.offsets.end()) ||
      markov_.offsets.front() != 0 ||
      markov_.offsets.back() != markov_.data.size() ||
      !std::is_sorted(markov_.offsets.begin(), markov_.offsets.end()))
    fail("malformed CSR offsets");
  // One table lookup per transition instead of three signature searches.
  std::vector<std::uint8_t> declared(symbols_->size(), 0);
  for (const auto* actions :
       {&signature_.inputs(), &signature_.outputs(), &signature_.internals()})
    for (ActionId a : *actions)
      if (a < declared.size()) declared[a] = 1;
  for (const auto& t : inter_.data) {
    if (t.to >= n) fail("transition target out of range");
    if (t.action >= declared.size() || !declared[t.action])
      require(false, "IOIMC '" + name_ + "': transition uses action '" +
                         symbols_->name(t.action) + "' missing from signature");
  }
  for (const auto& t : markov_.data) {
    if (t.to >= n) fail("transition target out of range");
    if (!(t.rate > 0.0)) fail("non-positive rate");
  }
}

bool IOIMC::isStable(StateId s) const {
  for (const auto& t : interactive(s))
    if (signature_.isInternal(t.action)) return false;
  return true;
}

bool IOIMC::isClosed() const {
  return signature_.inputs().empty() && signature_.outputs().empty();
}

int IOIMC::labelIndex(const std::string& label) const {
  for (std::size_t i = 0; i < labelNames_.size(); ++i)
    if (labelNames_[i] == label) return static_cast<int>(i);
  return -1;
}

std::vector<ActionRole> actionRoles(const IOIMC& m) {
  std::vector<ActionRole> roles(m.symbols()->size(), ActionRole::None);
  for (ActionId a : m.signature().inputs()) roles[a] = ActionRole::Input;
  for (ActionId a : m.signature().outputs()) roles[a] = ActionRole::Output;
  for (ActionId a : m.signature().internals())
    roles[a] = ActionRole::Internal;
  return roles;
}

}  // namespace imcdft::ioimc
