/// \file bench_batch.cpp
/// Experiment E11: the Analyzer session cache on a scenario sweep.
///
/// 20 perturbed variants of the cardiac assist system (the cross-switch
/// failure rate sweeps over a grid) are analyzed twice: cold — one
/// throwaway session per variant — and as one analyzeBatch() over a shared
/// session, where the motor and pump units are composed once and spliced
/// from the module cache for every later variant.  The reproduction
/// section checks the results agree, reports the compose/aggregate step
/// counts and wall clock for both runs, and writes them to
/// BENCH_batch.json (override the path with the BENCH_BATCH_JSON
/// environment variable).  The binary exits nonzero when a batch value
/// differs from its cold run.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dft/corpus.hpp"

namespace {

using namespace imcdft;
using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::MeasureSpec;

constexpr int kVariants = 20;
const std::vector<double> kGrid{0.5, 1.0, 2.0};

/// CAS with the cross-switch rate perturbed: the CPU unit changes, the
/// motor and pump units stay identical across the sweep.
std::string casVariant(int i) {
  std::string text = dft::corpus::galileoCas();
  const std::string needle = "\"CS\" lambda=0.2;";
  text.replace(text.find(needle), needle.size(),
               "\"CS\" lambda=" + std::to_string(0.05 + 0.03 * i) + ";");
  return text;
}

std::vector<AnalysisRequest> makeRequests() {
  std::vector<AnalysisRequest> requests;
  for (int i = 0; i < kVariants; ++i)
    requests.push_back(
        AnalysisRequest::forGalileo(casVariant(i), "cas#" + std::to_string(i))
            .measure(MeasureSpec::unreliability(kGrid)));
  return requests;
}

double seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SweepResult {
  std::vector<AnalysisReport> reports;
  double wallSeconds = 0.0;
  std::size_t steps = 0;
  std::size_t moduleHits = 0;
};

SweepResult runCold(const std::vector<AnalysisRequest>& requests) {
  SweepResult r;
  auto start = std::chrono::steady_clock::now();
  for (const AnalysisRequest& req : requests)
    r.reports.push_back(benchutil::analyzeCold(req));
  r.wallSeconds = seconds(start);
  for (const AnalysisReport& report : r.reports)
    r.steps += report.cache.stepsRun;
  return r;
}

SweepResult runBatch(const std::vector<AnalysisRequest>& requests) {
  SweepResult r;
  analysis::Analyzer session;
  auto start = std::chrono::steady_clock::now();
  r.reports = session.analyzeBatch(requests);
  r.wallSeconds = seconds(start);
  for (const AnalysisReport& report : r.reports) {
    r.steps += report.cache.stepsRun;
    r.moduleHits += report.cache.moduleHits;
  }
  return r;
}

void writeJson(const SweepResult& cold, const SweepResult& batch) {
  const char* env = std::getenv("BENCH_BATCH_JSON");
  std::string path = env ? env : "BENCH_batch.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"analyzer_batch_cas_variants\",\n"
                "  \"variants\": %d,\n"
                "  \"time_grid\": %zu,\n"
                "  \"cold\": {\"wall_seconds\": %.6f, \"compose_steps\": %zu},\n"
                "  \"batch\": {\"wall_seconds\": %.6f, \"compose_steps\": %zu, "
                "\"module_cache_hits\": %zu},\n"
                "  \"speedup\": %.3f,\n"
                "  \"steps_ratio\": %.3f\n"
                "}\n",
                kVariants, kGrid.size(), cold.wallSeconds, cold.steps,
                batch.wallSeconds, batch.steps, batch.moduleHits,
                cold.wallSeconds / batch.wallSeconds,
                static_cast<double>(cold.steps) /
                    static_cast<double>(batch.steps));
  out << buf;
  std::printf("wrote %s\n", path.c_str());
}

bool printReproduction() {
  std::vector<AnalysisRequest> requests = makeRequests();
  SweepResult cold = runCold(requests);
  SweepResult batch = runBatch(requests);

  std::printf("== E11: session cache on a %d-variant CAS sweep ==\n",
              kVariants);
  std::printf("%-40s %-18s %s\n", "quantity", "cold (20 sessions)",
              "batch (1 session)");
  std::printf("%-40s %-18.4f %.4f\n", "wall clock [s]", cold.wallSeconds,
              batch.wallSeconds);
  std::printf("%-40s %-18zu %zu\n", "compose/aggregate steps", cold.steps,
              batch.steps);
  std::printf("%-40s %-18s %zu\n", "module cache hits", "-", batch.moduleHits);

  // The whole point: same numbers, fewer steps.
  bool agree = true;
  for (int i = 0; i < kVariants; ++i)
    for (std::size_t k = 0; k < kGrid.size(); ++k) {
      double c = cold.reports[i].measures[0].values[k];
      double b = batch.reports[i].measures[0].values[k];
      if (std::abs(c - b) > 1e-12) agree = false;
    }
  std::printf("%-40s %-18s %s\n", "batch == cold (all values)", "-",
              agree ? "yes" : "NO — BUG");
  if (batch.steps >= cold.steps)
    std::printf("WARNING: batch ran no fewer steps than cold runs\n");
  std::printf("\n");
  writeJson(cold, batch);
  std::printf("\n");
  return agree;
}

}  // namespace

int main() { return printReproduction() ? 0 : 1; }
