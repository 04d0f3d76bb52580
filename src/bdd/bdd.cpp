#include "bdd/bdd.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace imcdft::bdd {

namespace {

std::uint64_t tripleKey(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  // 21 bits per component is ample for our node counts.
  return (static_cast<std::uint64_t>(a) << 42) |
         (static_cast<std::uint64_t>(b) << 21) | c;
}

}  // namespace

BddManager::BddManager(std::uint32_t numVars) : numVars_(numVars) {
  // Terminal sentinels: var index beyond every real variable so that the
  // top-variable computation in ite() treats them as "bottom".
  nodes_.push_back({numVars_, kFalse, kFalse});  // 0
  nodes_.push_back({numVars_, kTrue, kTrue});    // 1
}

std::uint32_t BddManager::varOf(NodeRef f) const { return nodes_[f].var; }

NodeRef BddManager::mkNode(std::uint32_t var, NodeRef low, NodeRef high) {
  if (low == high) return low;  // reduction rule
  std::uint64_t key = tripleKey(var, low, high);
  auto [it, inserted] =
      uniqueTable_.try_emplace(key, static_cast<NodeRef>(nodes_.size()));
  if (inserted) nodes_.push_back({var, low, high});
  return it->second;
}

NodeRef BddManager::variable(std::uint32_t var) {
  require(var < numVars_, "BddManager: variable index out of range");
  return mkNode(var, kFalse, kTrue);
}

NodeRef BddManager::ite(NodeRef f, NodeRef g, NodeRef h) {
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  std::uint64_t key = tripleKey(f, g, h);
  auto cached = iteCache_.find(key);
  if (cached != iteCache_.end()) return cached->second;

  std::uint32_t top = std::min({varOf(f), varOf(g), varOf(h)});
  auto cofactor = [&](NodeRef x, bool positive) {
    if (varOf(x) != top) return x;
    return positive ? nodes_[x].high : nodes_[x].low;
  };
  NodeRef high = ite(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  NodeRef low =
      ite(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  NodeRef result = mkNode(top, low, high);
  iteCache_.emplace(key, result);
  return result;
}

NodeRef BddManager::bddNot(NodeRef f) { return ite(f, kFalse, kTrue); }
NodeRef BddManager::bddAnd(NodeRef f, NodeRef g) { return ite(f, g, kFalse); }
NodeRef BddManager::bddOr(NodeRef f, NodeRef g) { return ite(f, kTrue, g); }

NodeRef BddManager::atLeast(const std::vector<NodeRef>& fs, std::uint32_t k) {
  require(k <= fs.size(), "BddManager::atLeast: threshold exceeds inputs");
  // Dynamic programming over "at least j of the first i inputs".
  // row[j] = BDD for "at least j of the inputs seen so far".
  std::vector<NodeRef> row(k + 1, kFalse);
  row[0] = kTrue;
  for (NodeRef f : fs) {
    for (std::uint32_t j = k; j >= 1; --j)
      row[j] = ite(f, row[j - 1], row[j]);
  }
  return row[k];
}

std::size_t BddManager::size(NodeRef f) const {
  std::unordered_set<NodeRef> seen;
  std::vector<NodeRef> stack{f};
  while (!stack.empty()) {
    NodeRef n = stack.back();
    stack.pop_back();
    if (n <= kTrue || !seen.insert(n).second) continue;
    stack.push_back(nodes_[n].low);
    stack.push_back(nodes_[n].high);
  }
  return seen.size();
}

double BddManager::probability(NodeRef f,
                               const std::vector<double>& varProbs) const {
  require(varProbs.size() == numVars_,
          "BddManager::probability: wrong number of variable probabilities");
  std::unordered_map<NodeRef, double> memo;
  // Iterative post-order to avoid deep recursion on large BDDs.
  std::vector<NodeRef> stack{f};
  while (!stack.empty()) {
    NodeRef n = stack.back();
    if (n == kFalse || n == kTrue) {
      memo[n] = n == kTrue ? 1.0 : 0.0;
      stack.pop_back();
      continue;
    }
    if (memo.count(n)) {
      stack.pop_back();
      continue;
    }
    NodeRef lo = nodes_[n].low, hi = nodes_[n].high;
    auto itLo = memo.find(lo), itHi = memo.find(hi);
    if (itLo != memo.end() && itHi != memo.end()) {
      double p = varProbs[nodes_[n].var];
      memo[n] = p * itHi->second + (1.0 - p) * itLo->second;
      stack.pop_back();
    } else {
      if (itHi == memo.end()) stack.push_back(hi);
      if (itLo == memo.end()) stack.push_back(lo);
    }
  }
  return memo[f];
}

}  // namespace imcdft::bdd
