/// \file bench_serve.cpp
/// Experiment E16: the persistent quotient store under service load.
///
/// The same 20-variant cardiac-assist sweep as E11 (bench_batch), but
/// served the way a long-running `dftimc --serve` fleet would see it:
/// every round uses a *fresh* session (empty in-memory caches, fresh
/// symbol table), so whatever survives between rounds is the on-disk
/// store alone.  Three rounds are timed:
///
///   no_store   — fresh session, no store directory (the cold baseline);
///   cold_store — fresh session over an empty store (cold + publish I/O);
///   warm_store — fresh session over the now-populated store, where every
///                whole-tree quotient is served from disk and composition
///                is skipped.
///
/// The sweep runs via composition (staticCombine off) so the store holds
/// whole-tree and module quotients — the records that make warm serving
/// cheap.  The reproduction section checks the warm values are *bitwise*
/// identical to the no-store baseline (the store's determinism guarantee)
/// and exits nonzero on any mismatch, then writes requests-per-second for
/// the three rounds to BENCH_serve.json (override the path with the
/// BENCH_SERVE_JSON environment variable).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "dft/corpus.hpp"

namespace {

using namespace imcdft;
using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::MeasureSpec;

constexpr int kVariants = 20;
const std::vector<double> kGrid{0.5, 1.0, 2.0};

/// CAS with the cross-switch rate perturbed (same family as E11): every
/// variant interns the same action-name universe, which keeps fresh
/// sessions bitwise comparable.
std::string casVariant(int i) {
  std::string text = dft::corpus::galileoCas();
  const std::string needle = "\"CS\" lambda=0.2;";
  text.replace(text.find(needle), needle.size(),
               "\"CS\" lambda=" + std::to_string(0.05 + 0.03 * i) + ";");
  return text;
}

std::vector<AnalysisRequest> makeRequests(const std::string& storeDir) {
  std::vector<AnalysisRequest> requests;
  for (int i = 0; i < kVariants; ++i) {
    AnalysisRequest req =
        AnalysisRequest::forGalileo(casVariant(i), "cas#" + std::to_string(i))
            .measure(MeasureSpec::unreliability(kGrid));
    req.options.engine.staticCombine = false;
    req.options.engine.storeDir = storeDir;
    requests.push_back(std::move(req));
  }
  return requests;
}

double seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RoundResult {
  std::vector<AnalysisReport> reports;
  double wallSeconds = 0.0;
  analysis::CacheStats stats;
  double requestsPerSecond() const {
    return wallSeconds > 0.0 ? kVariants / wallSeconds : 0.0;
  }
};

/// One service round: a fresh session (nothing in memory) over \p storeDir.
RoundResult runRound(const std::string& storeDir) {
  RoundResult r;
  analysis::Analyzer session;
  auto start = std::chrono::steady_clock::now();
  r.reports = session.analyzeBatch(makeRequests(storeDir));
  r.wallSeconds = seconds(start);
  r.stats = session.cacheStats();
  return r;
}

/// Bitwise comparison of two rounds' measure values (the store guarantee:
/// a hit is byte-identical to the aggregation it replaced, so the solved
/// numbers match to the last bit — no tolerance).
bool identical(const RoundResult& a, const RoundResult& b) {
  for (int i = 0; i < kVariants; ++i)
    for (std::size_t k = 0; k < kGrid.size(); ++k)
      if (a.reports[i].measures[0].values[k] !=
          b.reports[i].measures[0].values[k])
        return false;
  return true;
}

void writeJson(const RoundResult& noStore, const RoundResult& cold,
               const RoundResult& warm) {
  const char* env = std::getenv("BENCH_SERVE_JSON");
  std::string path = env ? env : "BENCH_serve.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  char buf[1536];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"bench\": \"serve_store_cas_variants\",\n"
      "  \"variants\": %d,\n"
      "  \"time_grid\": %zu,\n"
      "  \"no_store\": {\"wall_seconds\": %.6f, \"req_per_s\": %.3f},\n"
      "  \"cold_store\": {\"wall_seconds\": %.6f, \"req_per_s\": %.3f, "
      "\"store_writes\": %zu},\n"
      "  \"warm_store\": {\"wall_seconds\": %.6f, \"req_per_s\": %.3f, "
      "\"store_hits\": %zu, \"store_misses\": %zu},\n"
      "  \"warm_speedup\": %.3f,\n"
      "  \"warm_bitwise_identical\": %s\n"
      "}\n",
      kVariants, kGrid.size(), noStore.wallSeconds,
      noStore.requestsPerSecond(), cold.wallSeconds, cold.requestsPerSecond(),
      cold.stats.storeWrites, warm.wallSeconds, warm.requestsPerSecond(),
      warm.stats.storeHits, warm.stats.storeMisses,
      warm.requestsPerSecond() / noStore.requestsPerSecond(),
      identical(noStore, warm) ? "true" : "false");
  out << buf;
  std::printf("wrote %s\n", path.c_str());
}

/// Returns false on a correctness failure (warm values not bitwise equal
/// to the no-store baseline).
bool printReproduction() {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "imcq_bench_serve").string();
  fs::remove_all(dir);

  RoundResult noStore = runRound("");
  RoundResult cold = runRound(dir);
  RoundResult warm = runRound(dir);

  std::printf("== E16: quotient store on a %d-variant CAS service sweep ==\n",
              kVariants);
  std::printf("%-28s %-12s %-12s %s\n", "round", "wall [s]", "req/s",
              "store activity");
  std::printf("%-28s %-12.4f %-12.1f %s\n", "no_store", noStore.wallSeconds,
              noStore.requestsPerSecond(), "-");
  std::printf("%-28s %-12.4f %-12.1f %zu write(s)\n", "cold_store",
              cold.wallSeconds, cold.requestsPerSecond(),
              cold.stats.storeWrites);
  std::printf("%-28s %-12.4f %-12.1f %zu hit(s), %zu miss(es)\n",
              "warm_store (fresh session)", warm.wallSeconds,
              warm.requestsPerSecond(), warm.stats.storeHits,
              warm.stats.storeMisses);
  std::printf("%-28s %.2fx\n", "warm speedup over no_store",
              warm.requestsPerSecond() / noStore.requestsPerSecond());

  const bool bitwise = identical(noStore, warm) && identical(noStore, cold);
  std::printf("%-28s %s\n", "warm == no_store (bitwise)",
              bitwise ? "yes" : "NO — BUG");
  if (warm.stats.storeHits == 0)
    std::printf("WARNING: warm round served no records from the store\n");
  if (warm.requestsPerSecond() < 3.0 * noStore.requestsPerSecond())
    std::printf("WARNING: warm round below the 3x req/s target\n");
  std::printf("\n");
  writeJson(noStore, cold, warm);
  std::printf("\n");
  fs::remove_all(dir);
  return bitwise;
}

}  // namespace

int main() { return printReproduction() ? 0 : 1; }
