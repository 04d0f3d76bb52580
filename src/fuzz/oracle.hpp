#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dft/model.hpp"

/// \file oracle.hpp
/// The three-way differential oracle of the fuzzing harness: one tree is
/// analyzed through every engine this repo ships and the answers are
/// cross-checked.
///
/// Agreement contract (also documented in docs/ARCHITECTURE.md):
///
///  * *Bitwise* among the exact composition configurations — Production
///    on 1 thread with symmetry off (analysis::Reference; the classic
///    chain on every merge whose product fits the cap) is the reference,
///    and the fused engine on every step (FusedChain), the multi-threaded
///    module pool and the symmetry reduction are all engineered to be
///    bit-identical to it.
///    Any differing bit is a bug by definition.
///  * *1e-9-relative* against the static-combine numeric path, which is
///    exact only up to CTMC transient tolerances (the E14 ctest
///    StaticCombine.WideFamiliesStayAtModuleSize enforces the same band).  Where the tree is ineligible the numeric request
///    falls back to composition internally and the comparison tightens to
///    bitwise for free.
///  * *Statistical coverage* against the Monte-Carlo simulator: the
///    observed hit count must be plausible under the exact probability —
///    an exact binomial tail test at the ~5-sigma level implied by
///    OracleOptions::simZ.  (Not Wilson containment: its far-tail
///    coverage is poor enough that rare events false-alarm at fuzzing
///    volume.)  A fleet of 10^4 seeds has a negligible false-alarm rate
///    while real semantic divergences (which shift the estimate by whole
///    percentage points) are still caught.
///
/// Nondeterministic models (simultaneous FDEP kills, Section 4.4) are
/// first-class: the exact configurations must agree bitwise on the
/// CTMDP scheduler *bounds*, and the simulator — whose declaration-order
/// resolution is one particular scheduler — must land inside them.
///
/// Each configuration runs in its own fresh Analyzer session on purpose:
/// the session caches are keyed to serve bit-identical results across
/// option sets, and sharing one session would turn most of these
/// comparisons into cache lookups of themselves.

namespace imcdft::fuzz {

struct OracleOptions {
  /// Mission-time grid every backend is evaluated on.
  std::vector<double> times{0.5, 1.5};
  /// Monte-Carlo runs per tree; 0 disables the statistical arm.
  std::uint64_t simRuns = 2000;
  std::uint64_t simSeed = 1;
  /// Sigma level for the binomial tail test; the per-check false-alarm
  /// rate is the one-sided normal tail of this z (4.9 -> ~5e-7).
  double simZ = 4.9;
  /// Agreement band for the static-combine numeric path (E14's band).
  double numericRelTol = 1e-9;
  double numericAbsFloor = 5e-10;
  /// Per-configuration resource budget; a tripped budget yields
  /// Status::Skipped, never a spurious disagreement.  0 = unlimited.
  double deadlineSeconds = 20.0;
  std::size_t maxLiveStates = 0;
  /// Worker threads of the parallel exact configuration.
  unsigned parallelThreads = 4;
};

enum class OracleStatus : std::uint8_t {
  Agree,     ///< every comparison passed
  Disagree,  ///< at least one backend pair diverged (detail says which)
  Skipped,   ///< budget trip or unsupported tree; nothing was compared
};

struct OracleVerdict {
  OracleStatus status = OracleStatus::Agree;
  /// First divergence (config, measure, grid point, both values in
  /// hexfloat) or the skip reason.
  std::string detail;
  bool nondeterministic = false;
  bool repairable = false;
  /// The static-combine path was genuinely eligible (numeric comparison
  /// exercised, not a fallback-to-composition echo).
  bool staticEligible = false;
  /// Exact engine configurations whose reports were compared.
  std::size_t configsCompared = 0;

  bool agreed() const { return status == OracleStatus::Agree; }
  bool disagreed() const { return status == OracleStatus::Disagree; }
};

/// Runs every backend over \p tree and cross-checks the answers.
OracleVerdict crossCheck(const dft::Dft& tree, const OracleOptions& opts = {});

/// The exact command line that replays a repro written to \p reproPath
/// through all three backends from the CLI (composition + static-combine
/// via the Analyzer, the simulator via --simulate), plus the dftfuzz
/// oracle re-check.  Written next to every shrunken repro.
std::string replayCommand(const std::string& reproPath,
                          const OracleOptions& opts);

}  // namespace imcdft::fuzz
