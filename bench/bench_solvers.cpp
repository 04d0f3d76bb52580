/// \file bench_solvers.cpp
/// Experiment E10b: cost of the numerical substrate — uniformization
/// transient analysis, steady-state power iteration and CTMDP value
/// iteration, over parametric birth-death chains.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"

namespace {

using namespace imcdft;

/// Birth-death chain with n states; the last state is labelled down.
ctmc::Ctmc birthDeath(std::size_t n, double birth, double death) {
  ctmc::Ctmc c;
  c.initial = 0;
  c.rates.resize(n);
  c.labelMasks.assign(n, 0);
  c.labelNames = {"down"};
  for (std::size_t s = 0; s < n; ++s) {
    if (s + 1 < n) c.rates[s].push_back({birth, static_cast<ctmc::StateId>(s + 1)});
    if (s > 0) c.rates[s].push_back({death, static_cast<ctmc::StateId>(s - 1)});
  }
  c.labelMasks[n - 1] = 1;
  return c;
}

void printReproduction() {
  std::printf("== E10b: numerical substrate sanity ==\n");
  ctmc::Ctmc c = birthDeath(64, 2.0, 1.0);
  std::printf("  birth-death(64) transient P(down at 10) = %.6f\n",
              ctmc::probabilityOfLabelAt(c, "down", 10.0));
  std::printf("  birth-death(64) steady-state P(down)    = %.6f\n",
              ctmc::steadyStateLabelProbability(c, "down"));
  std::printf("\n");
}

void BM_Uniformization(benchmark::State& state) {
  ctmc::Ctmc c = birthDeath(static_cast<std::size_t>(state.range(0)), 2.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctmc::probabilityOfLabelAt(c, "down", 10.0));
  }
}
BENCHMARK(BM_Uniformization)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_UniformizationLongHorizon(benchmark::State& state) {
  ctmc::Ctmc c = birthDeath(64, 2.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctmc::probabilityOfLabelAt(c, "down", static_cast<double>(state.range(0))));
  }
}
BENCHMARK(BM_UniformizationLongHorizon)->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

void BM_SteadyState(benchmark::State& state) {
  ctmc::Ctmc c = birthDeath(static_cast<std::size_t>(state.range(0)), 2.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctmc::steadyStateLabelProbability(c, "down"));
  }
}
BENCHMARK(BM_SteadyState)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_CtmdpValueIteration(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ctmdp::Ctmdp m;
  m.initial = 0;
  m.rates.resize(n + 1);
  m.choices.resize(n + 1);
  m.goal.assign(n + 1, false);
  for (std::size_t s = 0; s < n; ++s)
    m.rates[s].push_back({1.5, static_cast<ctmdp::StateId>(s + 1)});
  m.goal[n] = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctmdp::timeBoundedReachability(m, 5.0, true));
  }
}
BENCHMARK(BM_CtmdpValueIteration)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  printReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
