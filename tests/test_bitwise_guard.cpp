#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/cancel.hpp"
#include "dft/corpus.hpp"
#include "dft/generate.hpp"
#include "model_digest.hpp"

/// \file test_bitwise_guard.cpp
/// Pins the exact bytes of closed models across versions: the FNV-1a
/// digest of ioimc::serializeModel of every request's closed model, on
/// paper models, parametric families and generated trees, with static
/// combination off (so every merge step runs).  A kernel change that
/// keeps the measures but moves one state, one transition or one rate bit
/// fails here.  hecs and voter_4x2 include steps whose canonical
/// renumbering is incomplete (the quotient keeps the refiner's class
/// numbering), so they pin that numbering as well.  A digest of 0 marks a
/// request that trips its live-state cap.

namespace imcdft {
namespace {

using analysis::AnalysisRequest;
using analysis::Analyzer;

constexpr std::uint64_t kTrip = 0;

/// The closed model's digest of one cold request, kTrip when it trips.
std::uint64_t closedDigest(const dft::Dft& tree, std::size_t maxLiveStates) {
  analysis::Budget budget;
  budget.maxLiveStates = maxLiveStates;
  AnalysisRequest request = AnalysisRequest::forDft(tree).withBudget(budget);
  request.options.engine.staticCombine = false;
  try {
    return test::modelDigest(
        Analyzer({.cache = false}).analyze(request).analysis->closedModel);
  } catch (const BudgetExceeded&) {
    return kTrip;
  }
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(BitwiseGuard, CorpusClosedModelsKeepTheirBytes) {
  const struct {
    const char* name;
    dft::Dft tree;
    std::uint64_t digest;
  } cases[] = {
      {"cas", dft::corpus::cas(),
       0x1563816fbd8659e4ull},
      {"cps", dft::corpus::cps(),
       0xc8179a8565fbd586ull},
      {"hecs", dft::corpus::hecs(),
       0x3977b95f59e5958eull},
      {"voter_4x2", dft::corpus::voterFarm(4, 2),
       0x0e552765c65362c9ull},
      {"sensors_4x2", dft::corpus::sensorBanks(4, 2),
       0x0259d01d98b2bcb4ull},
      {"pand_4x3", dft::corpus::cascadedPand(4, 3),
       0x494a558ceeff80c0ull},
      {"cps_8x10", dft::corpus::cascadedPands(8, 10),
       0xe4829ea16de5a556ull},
  };
  for (const auto& c : cases)
    EXPECT_EQ(hex(closedDigest(c.tree, 0)), hex(c.digest)) << c.name;
}

TEST(BitwiseGuard, GeneratedClosedModelsKeepTheirBytes) {
  // Seeds 0-74 under a 30,000 live-state cap.
  const std::vector<std::uint64_t> digests = {
      0x96904b122ce17fd3ull, 0xadfa04d866bc81ebull, 0xe717c1167f026de6ull,  // 0-2
      0x70d1f836cd7fa83bull, 0x4e0ea32c7f3a694aull, kTrip,  // 3-5
      0x6e87f84a22a7c2a1ull, 0x8183b24903857003ull, 0xeadbcf2c4682ee31ull,  // 6-8
      0x032f1060be4a0e9eull, 0xe05f1e1b37c2d6d5ull, kTrip,  // 9-11
      0x9e744a6abf0f849dull, 0xdfb8af1b8d7959cdull, 0xc7277459e5406a8aull,  // 12-14
      0x1970ecad96e2b6fdull, 0x968d1b604a9f0863ull, 0x802d7336bfacb08dull,  // 15-17
      0xa7a0317e696cae17ull, 0xbaa43fa4b4b7708dull, 0x72f05fac5a8cd284ull,  // 18-20
      0x9f283018e61d641full, 0x1e423b824edcc049ull, 0x8fcf1ea3c1867842ull,  // 21-23
      0x8a6acc88efe8dafcull, 0x59c950ec15ead971ull, 0x64f7254e930009c4ull,  // 24-26
      0x31ad3432c267e012ull, 0x74f6188b2fd5ec8cull, 0x2ccae0177303a399ull,  // 27-29
      0xf66a35de24b0d4f3ull, 0x5dc00ff9037fa227ull, 0x6f8ea2fe40101ad7ull,  // 30-32
      0x05f4fa7c2ed04e20ull, 0x92d6a9f941569b7full, 0xfec61b2893eaae12ull,  // 33-35
      0xc7e3fb1c38cec4a6ull, 0xb4937db5b0032996ull, 0x2d5972820e001eb3ull,  // 36-38
      0x6179f40001fa3ea2ull, 0x00a699937016192aull, 0x13b486ce259acdf9ull,  // 39-41
      0x72f01b3248baff8bull, 0x2fd932cbd32c28d9ull, 0xdb5e5cac1ddb29fbull,  // 42-44
      0xceac0fadb4a707b9ull, 0xd59a3f2dfd03b176ull, 0xe49ebc0d466f8da2ull,  // 45-47
      0xc600a473ebee76b4ull, 0x1a246e37775349b8ull, 0x173fdb9dab11f383ull,  // 48-50
      0xabc232045bc0336eull, 0x71678e5bf9725c6eull, 0x103e59142ac031c7ull,  // 51-53
      0x9d812678b6ba4e51ull, 0xa4f28edf20e99a0full, 0x042d7c01162e4035ull,  // 54-56
      0x6a0732f31ad64628ull, 0x0ecc8751c47ba963ull, 0x247ca868b4dd3f3eull,  // 57-59
      0x65afa4c5f7d5466cull, 0xeed2fd2f5315cfd1ull, 0xb01fb38e696d97faull,  // 60-62
      0xbc8bec82ba6cedfbull, 0xe971907b27b80a4bull, 0x5f7177ee6fdd1914ull,  // 63-65
      0x8e464dc00e471a21ull, 0x82018fb2ebfdff58ull, 0x0571a944887098a4ull,  // 66-68
      0x8d0bdc940690a44aull, 0x5d755171ad98f104ull, 0x8d6da163be67a80aull,  // 69-71
      0x37dac67b9b16614bull, 0x0663aa297bc356bdull, 0x6150aa8545081ed9ull,  // 72-74
  };
  ASSERT_EQ(digests.size(), 75u);
  for (std::uint64_t seed = 0; seed < digests.size(); ++seed)
    EXPECT_EQ(hex(closedDigest(dft::generateDft(seed), 30000)),
              hex(digests[seed]))
        << "seed " << seed;
}

}  // namespace
}  // namespace imcdft
