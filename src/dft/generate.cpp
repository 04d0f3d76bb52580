#include "dft/generate.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

// The generator certifies its outputs against the conversion pipeline's
// structural rules (checkConvertible, activation contexts) so every tree
// it emits is analyzable by all three backends.  This reaches up into
// analysis/ from dft/ — acceptable inside the one static library, and
// exactly the coupling the certification is about.
#include "analysis/converter.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "dft/builder.hpp"

namespace imcdft::dft {

namespace {

/// Everything one generation attempt accumulates.
struct GenState {
  SplitMix64 rng;
  GeneratorOptions opts;
  bool repairable = false;
  std::uint32_t elements = 0;  ///< elements created so far
  std::uint32_t beCounter = 0;
  std::uint32_t gateCounter = 0;
  DftBuilder builder;
  /// Basic events reusable as extra gate inputs (never spare slots).
  std::vector<std::string> shareableBes;
  /// Basic events attached as spares (reusable as *shared* spares only).
  std::vector<std::string> sparePool;
  /// Every element name in creation order, gates flagged (FDEP triggers).
  std::vector<std::pair<std::string, bool>> all;  ///< (name, isGate)
  std::vector<std::string> fdepDependents;
  std::vector<std::string> inhibited;

  explicit GenState(std::uint64_t streamSeed, const GeneratorOptions& o)
      : rng(streamSeed), opts(o) {}

  bool armed(std::uint32_t arm) const { return (opts.arms & arm) != 0; }
  bool budgetLeft() const { return elements < opts.maxElements; }

  double randomRate(double lo, double hi) {
    // 3-decimal rounding keeps Galileo repro files short and exact.
    return std::round((lo + (hi - lo) * rng.uniform()) * 1000.0) / 1000.0;
  }

  std::string newBasicEvent(bool shareable, double dormancy = 1.0,
                            bool dormancyExplicit = false) {
    std::string name = indexedName("e", beCounter++);
    double lambda = randomRate(opts.lambdaMin, opts.lambdaMax);
    std::optional<double> mu;
    if (repairable && armed(ArmRepair) && rng.chance(0.7))
      mu = randomRate(0.5, 3.0);
    std::uint32_t phases = 1;
    if (armed(ArmErlang) && rng.chance(0.15))
      phases = static_cast<std::uint32_t>(rng.range(2, 3));
    builder.basicEvent(name, lambda,
                       dormancyExplicit ? std::optional<double>(dormancy)
                                        : std::nullopt,
                       mu, phases);
    ++elements;
    all.emplace_back(name, false);
    if (shareable) shareableBes.push_back(name);
    return name;
  }

  std::string newGateName() { return indexedName("g", gateCounter++); }
};

/// The gate vocabulary available at this tree's settings.
std::vector<ElementType> gateVocabulary(const GenState& s) {
  std::vector<ElementType> vocab;
  if (s.armed(ArmAnd)) vocab.push_back(ElementType::And);
  if (s.armed(ArmOr)) vocab.push_back(ElementType::Or);
  if (s.armed(ArmVoting)) vocab.push_back(ElementType::Voting);
  if (!s.repairable) {
    if (s.armed(ArmPand)) vocab.push_back(ElementType::Pand);
    if (s.armed(ArmSpare)) vocab.push_back(ElementType::Spare);
  }
  // Every mask yields at least AND/OR so generation always terminates in
  // valid structure (the arm mask is a vocabulary *restriction*).
  if (vocab.empty()) {
    vocab.push_back(ElementType::And);
    vocab.push_back(ElementType::Or);
  }
  return vocab;
}

std::string genSubtree(GenState& s, std::uint32_t depth);

/// A leaf input: fresh basic event, or (ArmShare) a previously created
/// shared one.  Sharing stays outside spare slots — slot subtrees must be
/// structurally independent (Section 6.1).
std::string genLeaf(GenState& s) {
  if (s.armed(ArmShare) && !s.shareableBes.empty() &&
      s.rng.chance(s.opts.shareProbability)) {
    return s.shareableBes[s.rng.below(s.shareableBes.size())];
  }
  return s.newBasicEvent(/*shareable=*/true);
}

std::string genGate(GenState& s, std::uint32_t depth) {
  const std::vector<ElementType> vocab = gateVocabulary(s);
  const ElementType type = vocab[s.rng.below(vocab.size())];
  const std::string name = s.newGateName();
  ++s.elements;

  if (type == ElementType::Spare) {
    // Primary: a dedicated fresh basic event (a primary may belong to
    // exactly one spare gate and never doubles as a spare).  Spares:
    // fresh events with an explicit dormancy from the warm/cold sweep, or
    // a shared spare from another gate's pool (the CAS pump-unit shape).
    const std::uint64_t kindDraw = s.rng.below(3);
    const SpareKind kind = kindDraw == 0   ? SpareKind::Cold
                           : kindDraw == 1 ? SpareKind::Warm
                                           : SpareKind::Hot;
    std::vector<std::string> inputs;
    inputs.push_back(s.newBasicEvent(/*shareable=*/false));
    const std::uint64_t spares = s.rng.range(1, 2);
    for (std::uint64_t i = 0; i < spares; ++i) {
      if (s.armed(ArmShare) && !s.sparePool.empty() && s.rng.chance(0.4)) {
        const std::string& shared =
            s.sparePool[s.rng.below(s.sparePool.size())];
        if (std::find(inputs.begin(), inputs.end(), shared) == inputs.end()) {
          inputs.push_back(shared);
          continue;
        }
      }
      // Dormancy sweep: cold pins 0, hot pins 1, warm sweeps the middle.
      double dorm = kind == SpareKind::Cold   ? 0.0
                    : kind == SpareKind::Hot  ? 1.0
                                              : 0.1 + 0.2 * s.rng.below(5);
      std::string spare =
          s.newBasicEvent(/*shareable=*/false, dorm, /*explicit=*/true);
      s.sparePool.push_back(spare);
      inputs.push_back(spare);
    }
    s.builder.spareGate(name, kind, inputs);
    s.all.emplace_back(name, true);
    return name;
  }

  // Input lists must be duplicate-free; sharing can offer the same event
  // twice, so collect into an order-preserving set.
  auto addUnique = [](std::vector<std::string>& v, std::string in) {
    if (std::find(v.begin(), v.end(), in) == v.end())
      v.push_back(std::move(in));
  };
  std::uint64_t want =
      type == ElementType::Pand
          ? s.rng.range(2, std::min<std::uint64_t>(3, s.opts.maxChildren))
          : s.rng.range(2, s.opts.maxChildren);
  std::vector<std::string> inputs;
  for (std::uint64_t i = 0; i < want; ++i)
    addUnique(inputs, genSubtree(s, depth));
  while (inputs.size() < 2) addUnique(inputs, s.newBasicEvent(true));

  switch (type) {
    case ElementType::And:
      s.builder.andGate(name, inputs);
      break;
    case ElementType::Or:
      s.builder.orGate(name, inputs);
      break;
    case ElementType::Voting:
      s.builder.votingGate(
          name, static_cast<std::uint32_t>(s.rng.range(1, inputs.size())),
          inputs);
      break;
    case ElementType::Pand:
      s.builder.pandGate(name, inputs);
      break;
    default:
      s.builder.andGate(name, inputs);
      break;
  }
  s.all.emplace_back(name, true);
  return name;
}

std::string genSubtree(GenState& s, std::uint32_t depth) {
  if (depth == 0 || !s.budgetLeft() || s.rng.chance(0.35)) return genLeaf(s);
  return genGate(s, depth - 1);
}

bool isListed(const std::vector<std::string>& v, const std::string& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// FDEP pass: triggers are arbitrary existing elements, dependents are
/// existing basic events (occasionally a gate, Fig. 10.c).  Multi-
/// dependent triggers are kept on purpose: simultaneous kills are the
/// paper's Section 4.4 source of nondeterminism and the oracle must
/// handle them (bounds comparison).
void addFdeps(GenState& s) {
  if (s.repairable || !s.armed(ArmFdep) || !s.rng.chance(0.5)) return;
  const std::uint64_t count = s.rng.range(1, 2);
  for (std::uint64_t f = 0; f < count; ++f) {
    const auto& trigger = s.all[s.rng.below(s.all.size())];
    std::vector<std::string> dependents;
    const std::uint64_t want = s.rng.range(1, 2);
    for (std::uint64_t d = 0; d < want; ++d) {
      const bool allowGate = s.rng.chance(0.15);
      // Rejection-sample a dependent distinct from the trigger.
      for (int tries = 0; tries < 8; ++tries) {
        const auto& cand = s.all[s.rng.below(s.all.size())];
        if (cand.second && !allowGate) continue;
        if (cand.first == trigger.first) continue;
        if (isListed(dependents, cand.first)) continue;
        dependents.push_back(cand.first);
        break;
      }
    }
    if (dependents.empty()) continue;
    s.builder.fdep(indexedName("f", f), trigger.first, dependents);
    for (const std::string& d : dependents) s.fdepDependents.push_back(d);
  }
}

/// Inhibition/mutex pass over shared-vocabulary basic events.  FDEP
/// dependents are excluded (auxiliary stacking is undefined in the
/// paper), as are repairable trees (no repairable inhibitions).
void addInhibitions(GenState& s) {
  if (s.repairable) return;
  auto pickPlain = [&]() -> std::string {
    for (int tries = 0; tries < 8; ++tries) {
      const std::string& cand =
          s.shareableBes[s.rng.below(s.shareableBes.size())];
      if (isListed(s.fdepDependents, cand)) continue;
      return cand;
    }
    return "";
  };
  if (s.armed(ArmInhibit) && s.shareableBes.size() >= 2 && s.rng.chance(0.3)) {
    std::string inhibitor = pickPlain();
    std::string target = pickPlain();
    if (!inhibitor.empty() && !target.empty() && inhibitor != target) {
      s.builder.inhibition(inhibitor, target);
      s.inhibited.push_back(target);
    }
  }
  if (s.armed(ArmMutex) && s.shareableBes.size() >= 2 && s.rng.chance(0.2)) {
    std::vector<std::string> group;
    const std::uint64_t want = s.rng.range(2, 3);
    for (std::uint64_t i = 0; i < want; ++i) {
      std::string cand = pickPlain();
      if (!cand.empty() && !isListed(group, cand)) group.push_back(cand);
    }
    if (group.size() >= 2) s.builder.mutex(group);
  }
}

/// One full generation attempt.  Throws (Error subclasses) when a random
/// structural clash slips through; the caller retries with tamer arms.
Dft attempt(std::uint64_t streamSeed, GeneratorOptions opts) {
  GenState s(streamSeed, opts);
  s.repairable =
      s.armed(ArmRepair) && s.rng.chance(opts.repairableProbability);
  (void)genGate(s, std::max<std::uint32_t>(1, opts.maxDepth));
  s.builder.top(s.all.back().first);
  addFdeps(s);
  addInhibitions(s);
  Dft tree = s.builder.build();
  // Certify the tree against the full conversion pipeline's structural
  // rules so every backend accepts it.
  analysis::checkConvertible(tree);
  (void)analysis::activationContexts(tree);
  return tree;
}

}  // namespace

Dft generateDft(std::uint64_t seed, const GeneratorOptions& opts) {
  // Each attempt draws from its own derived stream, so a retry never
  // shifts the randomness of other seeds and the mapping stays total.
  // Attempt 1 drops sharing (the one mechanism that can produce
  // structural clashes across modules); attempt 2 falls back to the
  // always-valid static vocabulary.
  for (int a = 0; a < 3; ++a) {
    GeneratorOptions tuned = opts;
    if (a >= 1) tuned.arms &= ~static_cast<std::uint32_t>(ArmShare);
    if (a >= 2) tuned.arms &= kStaticArms | ArmErlang | ArmRepair;
    try {
      return attempt(splitmix64(seed, static_cast<std::uint64_t>(a)), tuned);
    } catch (const Error&) {
      if (a == 2) throw;  // static attempts cannot clash; surface the bug
    }
  }
  throw Error("generateDft: unreachable");
}

std::uint32_t parseArms(const std::string& text) {
  static const std::pair<const char*, std::uint32_t> kNames[] = {
      {"and", ArmAnd},        {"or", ArmOr},       {"voting", ArmVoting},
      {"pand", ArmPand},      {"spare", ArmSpare}, {"fdep", ArmFdep},
      {"repair", ArmRepair},  {"inhibit", ArmInhibit},
      {"mutex", ArmMutex},    {"erlang", ArmErlang},
      {"share", ArmShare},    {"all", kAllArms},   {"static", kStaticArms},
  };
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string word = text.substr(pos, comma - pos);
    if (!word.empty()) {
      bool found = false;
      for (const auto& [name, bit] : kNames)
        if (word == name) {
          mask |= bit;
          found = true;
          break;
        }
      require(found, "parseArms: unknown arm '" + word + "'");
    }
    pos = comma + 1;
  }
  require(mask != 0, "parseArms: empty arm list");
  return mask;
}

std::string describeArms(std::uint32_t mask) {
  static const std::pair<const char*, std::uint32_t> kNames[] = {
      {"and", ArmAnd},       {"or", ArmOr},           {"voting", ArmVoting},
      {"pand", ArmPand},     {"spare", ArmSpare},     {"fdep", ArmFdep},
      {"repair", ArmRepair}, {"inhibit", ArmInhibit}, {"mutex", ArmMutex},
      {"erlang", ArmErlang}, {"share", ArmShare},
  };
  std::string out;
  for (const auto& [name, bit] : kNames)
    if (mask & bit) {
      if (!out.empty()) out += ',';
      out += name;
    }
  return out;
}

}  // namespace imcdft::dft
