#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

/// \file bdd.hpp
/// A small reduced ordered binary decision diagram (ROBDD) package.
///
/// DIFTree (the paper's baseline, [11]) solves *static* fault tree modules
/// with binary decision diagrams; this is the substrate that reproduces
/// that part of the pipeline.  Supports the usual apply-style boolean
/// operators via ITE with a computed-table and top-event probability
/// evaluation by Shannon expansion.

namespace imcdft::bdd {

/// Index into the manager's node array.  0 and 1 are the terminals.
using NodeRef = std::uint32_t;

inline constexpr NodeRef kFalse = 0;
inline constexpr NodeRef kTrue = 1;

class BddManager {
 public:
  /// Creates a manager for \p numVars variables ordered by index.
  explicit BddManager(std::uint32_t numVars);

  std::uint32_t numVars() const { return numVars_; }

  /// The BDD for variable \p var.
  NodeRef variable(std::uint32_t var);

  NodeRef bddNot(NodeRef f);
  NodeRef bddAnd(NodeRef f, NodeRef g);
  NodeRef bddOr(NodeRef f, NodeRef g);
  /// If-then-else: the universal connective all others reduce to.
  NodeRef ite(NodeRef f, NodeRef g, NodeRef h);

  /// BDD of "at least k of the given variables/functions are true"
  /// (the K/M voting gate).
  NodeRef atLeast(const std::vector<NodeRef>& fs, std::uint32_t k);

  /// Number of nodes reachable from \p f (terminals excluded).
  std::size_t size(NodeRef f) const;

  /// P(f = 1) when variable v is true independently with probability
  /// \p varProbs[v]; computed by Shannon expansion with memoization.
  double probability(NodeRef f, const std::vector<double>& varProbs) const;

  /// Total number of live nodes (for benchmarks).
  std::size_t numNodes() const { return nodes_.size(); }

 private:
  struct Node {
    std::uint32_t var;
    NodeRef low;
    NodeRef high;
  };

  NodeRef mkNode(std::uint32_t var, NodeRef low, NodeRef high);
  std::uint32_t varOf(NodeRef f) const;

  std::uint32_t numVars_;
  std::vector<Node> nodes_;  // nodes_[0], nodes_[1] are terminal sentinels
  std::unordered_map<std::uint64_t, NodeRef> uniqueTable_;
  mutable std::unordered_map<std::uint64_t, NodeRef> iteCache_;
};

}  // namespace imcdft::bdd
