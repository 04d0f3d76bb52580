/// \file dftfuzz.cpp
/// Mass differential fuzzing driver: generate random DFTs from a seed
/// range, cross-check every backend through the three-way oracle
/// (src/fuzz/oracle.hpp), and greedily shrink any disagreeing tree to a
/// minimal repro (src/fuzz/shrink.hpp).
///
///   dftfuzz [options]
///     --seeds A..B      inclusive seed range (default 0..199); a single
///                       number N means 0..N
///     --time T          oracle mission time (repeatable; default 0.5 1.5)
///     --runs N          Monte-Carlo runs per tree (default 2000; 0 turns
///                       the statistical arm off)
///     --sim-seed S      Monte-Carlo master seed (default 1)
///     --arms LIST       generator feature arms: comma-separated subset of
///                       and,or,voting,pand,spare,fdep,repair,inhibit,
///                       mutex,erlang,share, or all / static.  Shrinking a
///                       failing sweep to an arm subset bisects which
///                       feature broke before any tree-level shrinking.
///     --max-depth N     generator depth knob (default 3)
///     --max-elements N  generator size knob (default 18)
///     --jobs N          worker threads over the seed range (default 1;
///                       each oracle already uses threads internally)
///     --deadline SEC    per-configuration analysis budget (default 20)
///     --max-live-states N
///                       per-configuration live-state budget (default off)
///     --max-skips N     fail the sweep when more than N seeds are skipped
///                       (budget trips included; default: no limit)
///     --out DIR         directory for shrunken repro files (default
///                       fuzz-repros, created on demand)
///     --check FILE      replay mode: run the oracle once on FILE and exit
///                       0 (agree) / 1 (disagree) / 3 (skipped) — the
///                       command written into every repro header
///
/// Numeric flags must be whole numbers (whole decimal values for times and
/// seconds); --time must be finite and non-negative.
///
/// Exit status: 0 when every seed agreed (skips are fine up to
/// --max-skips), 1 when any disagreement survived or the sweep skipped more
/// seeds than --max-skips allows, 2 on usage errors.
///
/// A disagreement is shrunk immediately and written to
/// <out>/repro-seed<N>.dft as a self-contained Galileo file whose comment
/// header records the seed, the arms, the divergence and the exact replay
/// command.  The hidden --inject-bug pand-order flag enables the
/// executor's fault-injection hook (dft::setPandOrderMutationForTesting)
/// so CI can drill the whole pipeline end-to-end: the mutated simulator
/// must be caught statistically and shrunk to a tiny PAND tree.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/text.hpp"
#include "common/threads.hpp"
#include "dft/execution.hpp"
#include "dft/galileo.hpp"
#include "dft/generate.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"

namespace {

using imcdft::Error;
namespace dft = imcdft::dft;
namespace fuzz = imcdft::fuzz;

struct CliOptions {
  std::uint64_t seedFirst = 0;
  std::uint64_t seedLast = 199;
  dft::GeneratorOptions generator;
  fuzz::OracleOptions oracle;
  unsigned jobs = 1;
  /// Skipped seeds the sweep tolerates; -1 = no limit.
  long long maxSkips = -1;
  std::string outDir = "fuzz-repros";
  std::string checkPath;
  bool injectPandBug = false;
  std::vector<double> times;  ///< overrides oracle.times when nonempty
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds A..B|N] [--time T]... [--runs N] [--sim-seed S]\n"
      "          [--arms LIST] [--max-depth N] [--max-elements N] "
      "[--jobs N]\n"
      "          [--deadline SEC] [--max-live-states N] [--max-skips N]\n"
      "          [--out DIR]\n"
      "       %s --check FILE.dft\n",
      argv0, argv0);
  std::exit(2);
}

/// Parses the whole of \p text as a T; an empty token, trailing characters
/// or an out-of-range value is a usage error.
template <typename T>
T parseNumber(std::string_view text, const char* argv0) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) usage(argv0);
  return value;
}

CliOptions parseArgs(int argc, char** argv) {
  CliOptions opts;
  opts.oracle.deadlineSeconds = 20.0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto number = [&]<typename T>(T& out) {
      out = parseNumber<T>(next(), argv[0]);
    };
    if (arg == "--seeds") {
      const std::string range = next();
      const std::size_t dots = range.find("..");
      const std::string_view view = range;
      auto seed = [&](std::string_view text) {
        return parseNumber<std::uint64_t>(text, argv[0]);
      };
      if (dots == std::string::npos) {
        opts.seedFirst = 0;
        opts.seedLast = seed(view);
      } else {
        opts.seedFirst = seed(view.substr(0, dots));
        opts.seedLast = seed(view.substr(dots + 2));
        if (opts.seedLast < opts.seedFirst) usage(argv[0]);
      }
    } else if (arg == "--time") {
      const double t = parseNumber<double>(next(), argv[0]);
      if (!std::isfinite(t) || t < 0.0) usage(argv[0]);
      opts.times.push_back(t);
    } else if (arg == "--runs") {
      number(opts.oracle.simRuns);
    } else if (arg == "--sim-seed") {
      number(opts.oracle.simSeed);
    } else if (arg == "--arms") {
      try {
        opts.generator.arms = dft::parseArms(next());
      } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
    } else if (arg == "--max-depth") {
      number(opts.generator.maxDepth);
      if (opts.generator.maxDepth == 0) usage(argv[0]);
    } else if (arg == "--max-elements") {
      number(opts.generator.maxElements);
      if (opts.generator.maxElements < 3) usage(argv[0]);
    } else if (arg == "--jobs") {
      number(opts.jobs);
      if (opts.jobs == 0) usage(argv[0]);
    } else if (arg == "--deadline") {
      number(opts.oracle.deadlineSeconds);
      if (!(opts.oracle.deadlineSeconds >= 0.0)) usage(argv[0]);
    } else if (arg == "--max-live-states") {
      number(opts.oracle.maxLiveStates);
    } else if (arg == "--max-skips") {
      number(opts.maxSkips);
      if (opts.maxSkips < 0) usage(argv[0]);
    } else if (arg == "--out") {
      opts.outDir = next();
    } else if (arg == "--check") {
      opts.checkPath = next();
    } else if (arg == "--inject-bug") {
      const std::string bug = next();
      if (bug == "pand-order")
        opts.injectPandBug = true;
      else
        usage(argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (!opts.times.empty()) opts.oracle.times = opts.times;
  return opts;
}

/// Replay mode: one oracle run over an existing Galileo file.
int runCheck(const CliOptions& opts) {
  try {
    dft::Dft tree = dft::parseGalileo(imcdft::readFile(opts.checkPath));
    const fuzz::OracleVerdict verdict = fuzz::crossCheck(tree, opts.oracle);
    switch (verdict.status) {
      case fuzz::OracleStatus::Agree:
        std::printf("%s: all backends agree (%zu exact configs%s)\n",
                    opts.checkPath.c_str(), verdict.configsCompared,
                    opts.oracle.simRuns > 0 ? " + simulator" : "");
        return 0;
      case fuzz::OracleStatus::Disagree:
        std::printf("%s: DISAGREEMENT: %s\n", opts.checkPath.c_str(),
                    verdict.detail.c_str());
        return 1;
      case fuzz::OracleStatus::Skipped:
        std::printf("%s: skipped: %s\n", opts.checkPath.c_str(),
                    verdict.detail.c_str());
        return 3;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 2;
}

/// Shrinks a disagreeing tree and writes the repro file.  Returns the
/// repro path.
std::string writeRepro(const dft::Dft& failing, std::uint64_t seed,
                       const std::string& firstDetail,
                       const CliOptions& opts) {
  fuzz::ShrinkResult shrunk = fuzz::shrink(
      failing,
      [&](const dft::Dft& candidate) {
        return fuzz::crossCheck(candidate, opts.oracle).disagreed();
      });
  // Re-derive the detail on the minimized tree (the divergence may have
  // moved to a different backend pair while shrinking).
  const fuzz::OracleVerdict recheck =
      fuzz::crossCheck(shrunk.tree, opts.oracle);
  const std::string detail =
      recheck.disagreed() ? recheck.detail : firstDetail;

  std::error_code ec;
  std::filesystem::create_directories(opts.outDir, ec);
  const std::string path =
      (std::filesystem::path(opts.outDir) /
       ("repro-seed" + std::to_string(seed) + ".dft"))
          .string();
  std::ofstream out(path);
  out << "// dftfuzz repro: seed " << seed << ", arms "
      << dft::describeArms(opts.generator.arms) << "\n"
      << "// shrunk to " << shrunk.tree.size() << " element(s) in "
      << shrunk.checks << " oracle check(s)\n"
      << "// disagreement: " << detail << "\n"
      << "// replay: " << fuzz::replayCommand(path, opts.oracle) << "\n"
      << dft::printGalileo(shrunk.tree);
  return path;
}

int runSweep(const CliOptions& opts) {
  const std::uint64_t count = opts.seedLast - opts.seedFirst + 1;
  std::printf("dftfuzz: seeds %llu..%llu, arms %s, %llu sim runs, "
              "%u job(s)\n",
              static_cast<unsigned long long>(opts.seedFirst),
              static_cast<unsigned long long>(opts.seedLast),
              dft::describeArms(opts.generator.arms).c_str(),
              static_cast<unsigned long long>(opts.oracle.simRuns), opts.jobs);

  std::atomic<std::uint64_t> nextIndex{0};
  std::atomic<std::uint64_t> agreed{0}, skipped{0}, disagreed{0};
  std::mutex reportMutex;  // serializes disagreement shrinking + printing
  const auto start = std::chrono::steady_clock::now();

  auto work = [&]() {
    for (std::uint64_t index; (index = nextIndex.fetch_add(1)) < count;) {
      const std::uint64_t seed = opts.seedFirst + index;
      try {
        dft::Dft tree = dft::generateDft(seed, opts.generator);
        const fuzz::OracleVerdict verdict =
            fuzz::crossCheck(tree, opts.oracle);
        if (verdict.agreed()) {
          ++agreed;
          continue;
        }
        if (verdict.status == fuzz::OracleStatus::Skipped) {
          ++skipped;
          std::lock_guard<std::mutex> lock(reportMutex);
          std::printf("seed %llu: skipped (%s)\n",
                      static_cast<unsigned long long>(seed),
                      verdict.detail.c_str());
          continue;
        }
        ++disagreed;
        // Shrink under the lock: disagreements are rare, and interleaved
        // shrink progress from two workers would be unreadable.
        std::lock_guard<std::mutex> lock(reportMutex);
        std::printf("seed %llu: DISAGREEMENT: %s\n",
                    static_cast<unsigned long long>(seed),
                    verdict.detail.c_str());
        std::printf("seed %llu: shrinking...\n",
                    static_cast<unsigned long long>(seed));
        const std::string path =
            writeRepro(tree, seed, verdict.detail, opts);
        std::printf("seed %llu: repro written to %s\n",
                    static_cast<unsigned long long>(seed), path.c_str());
        std::fflush(stdout);
      } catch (const Error& e) {
        // A generator or pipeline exception is itself a finding.
        ++disagreed;
        std::lock_guard<std::mutex> lock(reportMutex);
        std::printf("seed %llu: ERROR: %s\n",
                    static_cast<unsigned long long>(seed), e.what());
      }
    }
  };

  // The main thread is worker 0.
  imcdft::runOnThreads(opts.jobs, count, work);

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("\ndftfuzz summary: %llu seed(s) in %.1fs (%.1f/s): "
              "%llu agreed, %llu skipped, %llu disagreed\n",
              static_cast<unsigned long long>(count), wall,
              wall > 0.0 ? static_cast<double>(count) / wall : 0.0,
              static_cast<unsigned long long>(agreed.load()),
              static_cast<unsigned long long>(skipped.load()),
              static_cast<unsigned long long>(disagreed.load()));
  if (opts.maxSkips >= 0 &&
      skipped.load() > static_cast<std::uint64_t>(opts.maxSkips)) {
    std::printf("dftfuzz: %llu seed(s) skipped, more than --max-skips %lld\n",
                static_cast<unsigned long long>(skipped.load()),
                opts.maxSkips);
    return 1;
  }
  return disagreed.load() > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts = parseArgs(argc, argv);
  if (opts.injectPandBug) {
    std::printf("warning: --inject-bug pand-order enabled; the executor "
                "now evaluates PAND as AND (drill mode)\n");
    dft::setPandOrderMutationForTesting(true);
  }
  if (!opts.checkPath.empty()) return runCheck(opts);
  return runSweep(opts);
}
