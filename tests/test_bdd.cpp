#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "common/error.hpp"

namespace imcdft::bdd {
namespace {

TEST(Bdd, TerminalIdentities) {
  BddManager m(2);
  NodeRef x = m.variable(0);
  EXPECT_EQ(m.bddAnd(x, kTrue), x);
  EXPECT_EQ(m.bddAnd(x, kFalse), kFalse);
  EXPECT_EQ(m.bddOr(x, kFalse), x);
  EXPECT_EQ(m.bddOr(x, kTrue), kTrue);
  EXPECT_EQ(m.bddNot(kTrue), kFalse);
}

TEST(Bdd, HashConsingSharesNodes) {
  BddManager m(2);
  NodeRef a = m.bddAnd(m.variable(0), m.variable(1));
  NodeRef b = m.bddAnd(m.variable(0), m.variable(1));
  EXPECT_EQ(a, b);
}

TEST(Bdd, DoubleNegation) {
  BddManager m(3);
  NodeRef f = m.bddOr(m.variable(0), m.bddAnd(m.variable(1), m.variable(2)));
  EXPECT_EQ(m.bddNot(m.bddNot(f)), f);
}

TEST(Bdd, DeMorgan) {
  BddManager m(2);
  NodeRef x = m.variable(0), y = m.variable(1);
  EXPECT_EQ(m.bddNot(m.bddAnd(x, y)), m.bddOr(m.bddNot(x), m.bddNot(y)));
}

TEST(Bdd, ProbabilityOfAndOr) {
  BddManager m(2);
  NodeRef x = m.variable(0), y = m.variable(1);
  std::vector<double> p{0.3, 0.5};
  EXPECT_NEAR(m.probability(m.bddAnd(x, y), p), 0.15, 1e-12);
  EXPECT_NEAR(m.probability(m.bddOr(x, y), p), 0.3 + 0.5 - 0.15, 1e-12);
  EXPECT_DOUBLE_EQ(m.probability(kTrue, p), 1.0);
  EXPECT_DOUBLE_EQ(m.probability(kFalse, p), 0.0);
}

TEST(Bdd, ProbabilityOfSharedVariable) {
  // f = x AND (x OR y) == x: the BDD must not double-count x.
  BddManager m(2);
  NodeRef x = m.variable(0), y = m.variable(1);
  NodeRef f = m.bddAnd(x, m.bddOr(x, y));
  std::vector<double> p{0.3, 0.9};
  EXPECT_NEAR(m.probability(f, p), 0.3, 1e-12);
}

TEST(Bdd, AtLeastMatchesBinomialEnumeration) {
  const std::uint32_t n = 5;
  BddManager m(n);
  std::vector<NodeRef> vars;
  for (std::uint32_t i = 0; i < n; ++i) vars.push_back(m.variable(i));
  std::vector<double> p{0.1, 0.2, 0.3, 0.4, 0.5};
  for (std::uint32_t k = 0; k <= n; ++k) {
    NodeRef f = m.atLeast(vars, k);
    // Brute-force enumeration over the 2^5 assignments.
    double expected = 0.0;
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::uint32_t ones = static_cast<std::uint32_t>(__builtin_popcount(mask));
      if (ones < k) continue;
      double w = 1.0;
      for (std::uint32_t i = 0; i < n; ++i)
        w *= ((mask >> i) & 1u) ? p[i] : 1.0 - p[i];
      expected += w;
    }
    EXPECT_NEAR(m.probability(f, p), expected, 1e-12) << "k=" << k;
  }
}

TEST(Bdd, AtLeastZeroIsTrue) {
  BddManager m(2);
  EXPECT_EQ(m.atLeast({m.variable(0), m.variable(1)}, 0), kTrue);
}

TEST(Bdd, AtLeastTooManyThrows) {
  BddManager m(2);
  std::vector<NodeRef> vars{m.variable(0)};
  EXPECT_THROW(m.atLeast(vars, 2), ModelError);
}

TEST(Bdd, SizeCountsInternalNodes) {
  BddManager m(3);
  NodeRef x = m.variable(0);
  EXPECT_EQ(m.size(kTrue), 0u);
  EXPECT_EQ(m.size(x), 1u);
  NodeRef f = m.bddAnd(x, m.variable(1));
  EXPECT_EQ(m.size(f), 2u);
}

TEST(Bdd, VariableOutOfRangeThrows) {
  BddManager m(1);
  EXPECT_THROW(m.variable(1), ModelError);
}

}  // namespace
}  // namespace imcdft::bdd
