#include <gtest/gtest.h>

#include <set>

#include "analysis/converter.hpp"
#include "common/error.hpp"
#include "dft/galileo.hpp"
#include "dft/generate.hpp"
#include "dft/hash.hpp"

/// The random-DFT generator is the input side of the fuzzing harness; its
/// contracts — determinism, total validity, arm-mask respect, printer
/// round-trips — are what make a failing seed a repro.

namespace imcdft::dft {
namespace {

/// Structural equality via the canonical fingerprint plus the exact
/// attribute set (canonicalKey covers structure, names and attributes).
void expectSameTree(const Dft& a, const Dft& b) {
  EXPECT_EQ(canonicalKey(a), canonicalKey(b));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.top(), b.top());
  ASSERT_EQ(a.inhibitions().size(), b.inhibitions().size());
}

TEST(Generator, DeterministicAcrossCalls) {
  for (std::uint64_t seed : {0ull, 1ull, 17ull, 123456789ull}) {
    Dft first = generateDft(seed);
    Dft second = generateDft(seed);
    expectSameTree(first, second);
  }
}

TEST(Generator, DistinctSeedsDiffer) {
  // Not a hard guarantee for any single pair, but across 20 consecutive
  // seeds a collision means the seed is not feeding the stream.
  std::set<std::string> keys;
  for (std::uint64_t seed = 0; seed < 20; ++seed)
    keys.insert(canonicalKey(generateDft(seed)));
  EXPECT_GT(keys.size(), 15u);
}

TEST(Generator, EverySeedValidAndConvertible) {
  // The generator's core contract: seed -> tree is total, and every tree
  // passes the full conversion pipeline's structural certification.
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    Dft tree = generateDft(seed);
    EXPECT_NO_THROW(analysis::checkConvertible(tree)) << "seed " << seed;
    EXPECT_NO_THROW(analysis::activationContexts(tree)) << "seed " << seed;
  }
}

TEST(Generator, RespectsElementBudget) {
  GeneratorOptions opts;
  opts.maxElements = 10;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Dft tree = generateDft(seed, opts);
    // The budget is soft: every gate still open when the cap is reached
    // tops up its minimum inputs, and the FDEP pass adds elements of its
    // own — but the overshoot is bounded by the nesting, not unbounded.
    EXPECT_LE(tree.size(), 2 * opts.maxElements) << "seed " << seed;
  }
}

TEST(Generator, StaticArmsStayStatic) {
  GeneratorOptions opts;
  opts.arms = kStaticArms;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Dft tree = generateDft(seed, opts);
    EXPECT_FALSE(tree.isDynamic()) << "seed " << seed;
    EXPECT_FALSE(tree.isRepairable()) << "seed " << seed;
    for (ElementId id = 0; id < tree.size(); ++id)
      EXPECT_EQ(tree.element(id).be.phases, 1u) << "seed " << seed;
  }
}

TEST(Generator, ArmMaskGatesFeatures) {
  GeneratorOptions noPand;
  noPand.arms = kAllArms & ~(ArmPand | ArmSpare | ArmFdep);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Dft tree = generateDft(seed, noPand);
    for (ElementId id = 0; id < tree.size(); ++id) {
      EXPECT_NE(tree.element(id).type, ElementType::Pand) << "seed " << seed;
      EXPECT_NE(tree.element(id).type, ElementType::Spare) << "seed " << seed;
      EXPECT_NE(tree.element(id).type, ElementType::Fdep) << "seed " << seed;
    }
  }
}

TEST(Generator, FullVocabularyIsReached) {
  // Over a seed block the generator must actually exercise every feature
  // arm — a silent arm is a silent coverage hole in the whole harness.
  bool sawPand = false, sawSpare = false, sawVoting = false, sawFdep = false,
       sawRepair = false, sawErlang = false, sawInhibition = false,
       sawColdSpare = false, sawWarmSpare = false, sawShared = false;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Dft tree = generateDft(seed);
    sawRepair = sawRepair || tree.isRepairable();
    sawInhibition = sawInhibition || !tree.inhibitions().empty();
    for (ElementId id = 0; id < tree.size(); ++id) {
      const Element& e = tree.element(id);
      sawPand = sawPand || e.type == ElementType::Pand;
      sawVoting = sawVoting || e.type == ElementType::Voting;
      sawFdep = sawFdep || e.type == ElementType::Fdep;
      sawErlang = sawErlang || e.be.phases > 1;
      sawShared = sawShared || tree.parents(id).size() > 1;
      if (e.type == ElementType::Spare) {
        sawSpare = true;
        sawColdSpare = sawColdSpare || e.spareKind == SpareKind::Cold;
        sawWarmSpare = sawWarmSpare || e.spareKind == SpareKind::Warm;
      }
    }
  }
  EXPECT_TRUE(sawPand);
  EXPECT_TRUE(sawSpare);
  EXPECT_TRUE(sawVoting);
  EXPECT_TRUE(sawFdep);
  EXPECT_TRUE(sawRepair);
  EXPECT_TRUE(sawErlang);
  EXPECT_TRUE(sawInhibition);
  EXPECT_TRUE(sawColdSpare);
  EXPECT_TRUE(sawWarmSpare);
  EXPECT_TRUE(sawShared);
}

TEST(Generator, ArmParsingRoundTrips) {
  EXPECT_EQ(parseArms("all"), kAllArms);
  EXPECT_EQ(parseArms("static"), kStaticArms);
  EXPECT_EQ(parseArms("pand,spare"), ArmPand | ArmSpare);
  EXPECT_EQ(parseArms(describeArms(kAllArms)), kAllArms);
  EXPECT_EQ(parseArms(describeArms(ArmFdep | ArmMutex)), ArmFdep | ArmMutex);
  EXPECT_THROW(parseArms("bogus"), Error);
  EXPECT_THROW(parseArms(""), Error);
}

// --- Galileo printer round-trip property (parse . print = id) -----------

/// Full structural + attribute identity after one print/parse cycle.
void expectRoundTrip(const Dft& tree, std::uint64_t seed) {
  const std::string text = printGalileo(tree);
  Dft back = parseGalileo(text);
  ASSERT_EQ(back.size(), tree.size()) << "seed " << seed << "\n" << text;
  EXPECT_EQ(canonicalKey(back), canonicalKey(tree))
      << "seed " << seed << "\n" << text;
  EXPECT_EQ(back.top(), tree.top()) << "seed " << seed;
  for (ElementId id = 0; id < tree.size(); ++id) {
    const Element& a = tree.element(id);
    const Element& b = back.element(id);
    EXPECT_EQ(a.name, b.name) << "seed " << seed;
    EXPECT_EQ(a.type, b.type) << "seed " << seed;
    EXPECT_EQ(a.inputs, b.inputs) << "seed " << seed;
    EXPECT_EQ(a.votingThreshold, b.votingThreshold) << "seed " << seed;
    if (a.type == ElementType::Spare) {
      EXPECT_EQ(a.spareKind, b.spareKind) << "seed " << seed;
    }
    // Bit-exact attributes: the printer uses shortest-round-trip
    // formatting, so even swept dormancies and 3-decimal rates survive.
    EXPECT_EQ(a.be.lambda, b.be.lambda) << "seed " << seed;
    EXPECT_EQ(a.be.dormancy, b.be.dormancy) << "seed " << seed;
    EXPECT_EQ(a.be.repairRate, b.be.repairRate) << "seed " << seed;
    EXPECT_EQ(a.be.phases, b.be.phases) << "seed " << seed;
  }
  ASSERT_EQ(back.inhibitions().size(), tree.inhibitions().size())
      << "seed " << seed;
  for (std::size_t i = 0; i < tree.inhibitions().size(); ++i) {
    EXPECT_EQ(back.inhibitions()[i].inhibitor, tree.inhibitions()[i].inhibitor)
        << "seed " << seed;
    EXPECT_EQ(back.inhibitions()[i].target, tree.inhibitions()[i].target)
        << "seed " << seed;
  }
}

TEST(GalileoRoundTrip, HoldsOnEveryGeneratorOutput) {
  // Coverage accounting: the property must have seen dormancies, repair
  // rates, Erlang phases and inhibitions, or the round-trip guarantee is
  // weaker than advertised.
  bool sawDorm = false, sawMu = false, sawPhases = false, sawInhibit = false;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Dft tree = generateDft(seed);
    expectRoundTrip(tree, seed);
    sawInhibit = sawInhibit || !tree.inhibitions().empty();
    for (ElementId id = 0; id < tree.size(); ++id) {
      const Element& e = tree.element(id);
      sawDorm = sawDorm || (e.isBasicEvent() && e.be.dormancy != 1.0);
      sawMu = sawMu || e.be.repairRate.has_value();
      sawPhases = sawPhases || e.be.phases > 1;
    }
  }
  EXPECT_TRUE(sawDorm);
  EXPECT_TRUE(sawMu);
  EXPECT_TRUE(sawPhases);
  EXPECT_TRUE(sawInhibit);
}

TEST(GalileoRoundTrip, SecondCycleIsTextuallyStable) {
  // print . parse . print must be a fixpoint: byte-identical text.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const std::string once = printGalileo(generateDft(seed));
    EXPECT_EQ(printGalileo(parseGalileo(once)), once) << "seed " << seed;
  }
}

}  // namespace
}  // namespace imcdft::dft
