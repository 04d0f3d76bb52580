#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/extract.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "ctmc/fox_glynn.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "dft/corpus.hpp"
#include "dft/generate.hpp"
#include "ioimc/bisimulation.hpp"
#include "ioimc/ops.hpp"

/// \file test_solver_kernels.cpp
/// The solvers run on flat rate tables through one uniformized step kernel
/// whose probabilities are tabulated once per solve, and the CTMDP solver
/// computes both scheduler bounds in one sweep.  These tests keep the
/// row-walk kernels that divided rate / Lambda on every step, and the
/// vector-of-rows extraction they ran on, as references: on the corpus
/// families and generator seeds 0..149 the flat tables must hold the same
/// rows and every solver must return the same bits.

namespace imcdft {
namespace {

using analysis::AnalysisReport;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::Extraction;
using ioimc::IOIMC;

constexpr const char* kDown = "down";

// ---------------------------------------------------------------------------
// Reference: per-state rows and the row-walk kernels over them.

struct RowChain {
  ctmc::StateId initial = 0;
  std::vector<std::vector<ctmc::Transition>> rates;
  std::vector<std::uint32_t> labelMasks;
};

struct RowMdp {
  ctmdp::StateId initial = 0;
  std::vector<std::vector<ctmdp::Transition>> rates;
  std::vector<std::vector<ctmdp::StateId>> choices;
  std::vector<bool> goal;
  bool isVanishing(ctmdp::StateId s) const { return !choices[s].empty(); }
};

struct RowExtraction {
  bool deterministic = true;
  RowChain chain;
  RowMdp mdp;
};

/// Extraction into per-state rows, as it was before the flat tables.
RowExtraction rowExtract(const IOIMC& closed, const std::string& goalLabel) {
  using ioimc::StateId;
  const std::size_t n = closed.numStates();
  std::vector<std::vector<StateId>> tau(n);
  for (StateId s = 0; s < n; ++s) {
    for (const auto& t : closed.interactive(s)) tau[s].push_back(t.to);
    std::sort(tau[s].begin(), tau[s].end());
    tau[s].erase(std::unique(tau[s].begin(), tau[s].end()), tau[s].end());
  }
  auto vanishing = [&](StateId s) { return !tau[s].empty(); };

  RowExtraction out;
  for (StateId s = 0; s < n; ++s)
    if (tau[s].size() > 1) out.deterministic = false;
  const int goalIdx = closed.labelIndex(goalLabel);

  RowMdp& mdp = out.mdp;
  mdp.initial = closed.initial();
  mdp.rates.resize(n);
  mdp.choices.resize(n);
  mdp.goal.assign(n, false);
  for (StateId s = 0; s < n; ++s) {
    mdp.goal[s] = closed.hasLabel(s, goalIdx);
    if (vanishing(s)) {
      mdp.choices[s] = tau[s];
    } else {
      for (const auto& t : closed.markovian(s))
        mdp.rates[s].push_back({t.rate, t.to});
    }
  }
  if (!out.deterministic) return out;

  std::vector<StateId> resolved(n, static_cast<StateId>(-1));
  for (StateId s = 0; s < n; ++s) {
    if (resolved[s] != static_cast<StateId>(-1)) continue;
    std::vector<StateId> path;
    StateId cur = s;
    while (vanishing(cur) && resolved[cur] == static_cast<StateId>(-1)) {
      path.push_back(cur);
      cur = tau[cur].front();
    }
    StateId target = vanishing(cur) ? resolved[cur] : cur;
    for (StateId p : path) resolved[p] = target;
    resolved[s] = target;
  }
  std::vector<StateId> remap(n, static_cast<StateId>(-1));
  RowChain& chain = out.chain;
  for (StateId s = 0; s < n; ++s) {
    if (vanishing(s)) continue;
    remap[s] = static_cast<StateId>(chain.rates.size());
    chain.rates.emplace_back();
    chain.labelMasks.push_back(closed.labelMask(s));
  }
  for (StateId s = 0; s < n; ++s) {
    if (vanishing(s)) continue;
    for (const auto& t : closed.markovian(s))
      chain.rates[remap[s]].push_back({t.rate, remap[resolved[t.to]]});
  }
  chain.initial = remap[resolved[closed.initial()]];
  return out;
}

double rowMaxExit(const std::vector<std::vector<ctmc::Transition>>& rates) {
  double m = 0.0;
  for (const auto& row : rates) {
    double exit = 0.0;
    for (const auto& t : row) exit += t.rate;
    m = std::max(m, exit);
  }
  return m;
}

void rowStep(const RowChain& chain, double lambda,
             const std::vector<double>& in, std::vector<double>& out) {
  std::fill(out.begin(), out.end(), 0.0);
  for (ctmc::StateId s = 0; s < chain.rates.size(); ++s) {
    double mass = in[s];
    if (mass == 0.0) continue;
    double exit = 0.0;
    for (const auto& t : chain.rates[s]) {
      out[t.to] += mass * (t.rate / lambda);
      exit += t.rate;
    }
    out[s] += mass * (1.0 - exit / lambda);
  }
}

std::vector<double> rowTransient(const RowChain& chain,
                                 std::vector<double> initial, double t) {
  const ctmc::TransientOptions opts;
  const double maxExit = rowMaxExit(chain.rates);
  if (t == 0.0 || maxExit == 0.0) return initial;
  const double lambda = opts.uniformizationSlack * maxExit;
  ctmc::PoissonWeights pw = ctmc::poissonWeights(lambda * t, opts.epsilon);
  const std::size_t n = chain.rates.size();
  std::vector<double> current = std::move(initial), next(n), result(n, 0.0);
  for (std::size_t k = 0; k < pw.left; ++k) {
    rowStep(chain, lambda, current, next);
    std::swap(current, next);
  }
  for (std::size_t i = 0; i < pw.weights.size(); ++i) {
    const double w = pw.weights[i] / pw.totalMass;
    for (ctmc::StateId s = 0; s < n; ++s) result[s] += w * current[s];
    if (i + 1 < pw.weights.size()) {
      rowStep(chain, lambda, current, next);
      std::swap(current, next);
    }
  }
  return result;
}

std::vector<std::vector<double>> rowTransientMulti(
    const RowChain& chain, std::vector<double> initial,
    const std::vector<double>& times) {
  const ctmc::TransientOptions opts;
  const double maxExit = rowMaxExit(chain.rates);
  std::vector<std::vector<double>> out(times.size());
  if (maxExit == 0.0) {
    for (auto& o : out) o = initial;
    return out;
  }
  const double lambda = opts.uniformizationSlack * maxExit;
  const std::size_t n = chain.rates.size();
  std::vector<ctmc::PoissonWeights> windows(times.size());
  std::size_t maxRight = 0;
  bool anyPositive = false;
  for (std::size_t j = 0; j < times.size(); ++j) {
    if (times[j] == 0.0) {
      out[j] = initial;
      continue;
    }
    windows[j] = ctmc::poissonWeights(lambda * times[j], opts.epsilon);
    maxRight = std::max(maxRight, windows[j].right());
    anyPositive = true;
    out[j].assign(n, 0.0);
  }
  if (!anyPositive) return out;
  std::vector<double> current = std::move(initial), next(n);
  for (std::size_t k = 0; true; ++k) {
    for (std::size_t j = 0; j < times.size(); ++j) {
      if (times[j] == 0.0) continue;
      const ctmc::PoissonWeights& pw = windows[j];
      if (k < pw.left || k > pw.right()) continue;
      const double w = pw.weights[k - pw.left] / pw.totalMass;
      for (ctmc::StateId s = 0; s < n; ++s) out[j][s] += w * current[s];
    }
    if (k == maxRight) break;
    rowStep(chain, lambda, current, next);
    std::swap(current, next);
  }
  return out;
}

/// Power iteration; throws NumericalError past \p maxIterations like the
/// solver does.
std::vector<double> rowSteady(const RowChain& chain,
                              const ctmc::SteadyStateOptions& opts) {
  const std::size_t n = chain.rates.size();
  const double maxExit = rowMaxExit(chain.rates);
  if (maxExit == 0.0) {
    std::vector<double> pi(n, 0.0);
    pi[chain.initial] = 1.0;
    return pi;
  }
  const double lambda = opts.uniformizationSlack * maxExit;
  std::vector<double> current(n, 0.0), next(n, 0.0);
  current[chain.initial] = 1.0;
  for (std::size_t iter = 0; iter < opts.maxIterations; ++iter) {
    rowStep(chain, lambda, current, next);
    double diff = 0.0;
    for (ctmc::StateId s = 0; s < n; ++s)
      diff = std::max(diff, std::fabs(next[s] - current[s]));
    std::swap(current, next);
    if (diff < opts.tolerance) return current;
  }
  throw NumericalError("rowSteady: power iteration did not converge");
}

/// The one-sided backward sweep.
double rowReachability(const RowMdp& mdp, double t, bool maximize) {
  const ctmdp::ReachabilityOptions opts;
  const std::size_t n = mdp.rates.size();
  // Reverse-topological order of the vanishing states.
  std::vector<ctmdp::StateId> vanishing;
  std::vector<std::uint8_t> done(n, 0);
  for (ctmdp::StateId root = 0; root < n; ++root) {
    if (!mdp.isVanishing(root) || done[root]) continue;
    std::vector<std::pair<ctmdp::StateId, std::size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto& [v, idx] = stack.back();
      if (idx < mdp.choices[v].size()) {
        ctmdp::StateId w = mdp.choices[v][idx++];
        if (mdp.isVanishing(w) && !done[w]) {
          done[w] = 1;
          stack.emplace_back(w, 0);
        }
      } else {
        vanishing.push_back(v);
        stack.pop_back();
      }
    }
    done[root] = 1;
  }
  std::vector<double> value(n, 0.0);
  auto resolveVanishing = [&]() {
    for (ctmdp::StateId v : vanishing) {
      double best = maximize ? 0.0 : 1.0;
      for (ctmdp::StateId c : mdp.choices[v])
        best = maximize ? std::max(best, value[c]) : std::min(best, value[c]);
      value[v] = best;
    }
  };
  for (ctmdp::StateId s = 0; s < n; ++s) value[s] = mdp.goal[s] ? 1.0 : 0.0;
  resolveVanishing();
  if (t == 0.0) return value[mdp.initial];
  const double maxExit = rowMaxExit(mdp.rates);
  if (maxExit == 0.0) return value[mdp.initial];
  const double lambda = opts.uniformizationSlack * maxExit;
  ctmc::PoissonWeights pw = ctmc::poissonWeights(lambda * t, opts.epsilon);
  std::vector<double> q(n, 0.0);
  for (ctmdp::StateId s = 0; s < n; ++s) value[s] = 0.0;
  for (std::size_t step = pw.left + pw.weights.size(); step-- > 0;) {
    const double w = step >= pw.left
                         ? pw.weights[step - pw.left] / pw.totalMass
                         : 0.0;
    resolveVanishing();
    for (ctmdp::StateId s = 0; s < n; ++s) {
      if (mdp.isVanishing(s)) continue;
      double acc = mdp.goal[s] ? w : 0.0;
      double exit = 0.0;
      for (const auto& tr : mdp.rates[s]) {
        acc += (tr.rate / lambda) * value[tr.to];
        exit += tr.rate;
      }
      acc += (1.0 - exit / lambda) * value[s];
      q[s] = acc;
    }
    for (ctmdp::StateId s = 0; s < n; ++s)
      if (!mdp.isVanishing(s)) value[s] = q[s];
  }
  resolveVanishing();
  return value[mdp.initial];
}

// ---------------------------------------------------------------------------
// Comparisons.

bool sameBits(double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; }

bool sameBits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool sameRows(const ctmc::RateRows& flat,
              const std::vector<std::vector<ctmc::Transition>>& rows) {
  if (flat.numRows() != rows.size()) return false;
  for (ctmc::StateId s = 0; s < rows.size(); ++s) {
    const ctmc::RateRows::Row row = flat.row(s);
    if (row.size() != rows[s].size()) return false;
    for (std::size_t k = 0; k < row.size(); ++k)
      if (row.to[k] != rows[s][k].to || !sameBits(row.rate[k], rows[s][k].rate))
        return false;
  }
  return true;
}

void expectSameExtraction(const Extraction& flat, const RowExtraction& rows) {
  ASSERT_EQ(flat.deterministic, rows.deterministic);
  const ctmdp::Ctmdp& mdp = flat.mdp;
  EXPECT_EQ(mdp.initial, rows.mdp.initial);
  EXPECT_TRUE(sameRows(mdp.rates, rows.mdp.rates)) << "mdp rates differ";
  ASSERT_EQ(mdp.numStates(), rows.mdp.choices.size());
  for (ctmdp::StateId s = 0; s < mdp.numStates(); ++s) {
    const auto choices = mdp.choices(s);
    EXPECT_TRUE(std::equal(choices.begin(), choices.end(),
                           rows.mdp.choices[s].begin(),
                           rows.mdp.choices[s].end()))
        << "choices of state " << s << " differ";
    EXPECT_EQ(mdp.isVanishing(s), rows.mdp.isVanishing(s));
    EXPECT_EQ(mdp.goal[s] != 0, rows.mdp.goal[s]);
  }
  if (!flat.deterministic) return;
  EXPECT_EQ(flat.chain.initial, rows.chain.initial);
  EXPECT_TRUE(sameRows(flat.chain.rates, rows.chain.rates)) << "rates differ";
  EXPECT_EQ(flat.chain.labelMasks, rows.chain.labelMasks);
}

/// Both scheduler bounds, fused and one-sided, against the one-sided
/// row-walk sweep.  Needs absorbing goal states.
void expectSameBounds(const Extraction& flat, const RowExtraction& rows) {
  for (double t : {0.5, 2.0}) {
    const ctmdp::ReachabilityBounds b = ctmdp::reachabilityBounds(flat.mdp, t);
    const double lo = rowReachability(rows.mdp, t, false);
    const double hi = rowReachability(rows.mdp, t, true);
    EXPECT_TRUE(sameBits(b.lower, lo)) << "t=" << t;
    EXPECT_TRUE(sameBits(b.upper, hi)) << "t=" << t;
    EXPECT_TRUE(
        sameBits(ctmdp::timeBoundedReachability(flat.mdp, t, false), lo));
    EXPECT_TRUE(sameBits(ctmdp::timeBoundedReachability(flat.mdp, t, true), hi));
  }
}

/// The CTMC solvers on a deterministic extraction against their row-walk
/// references.
void expectSameChainSolves(const Extraction& flat, const RowExtraction& rows,
                           bool steady) {
  if (!flat.deterministic) return;
  const ctmc::Ctmc& chain = flat.chain;
  std::vector<double> initial(chain.numStates(), 0.0);
  initial[chain.initial] = 1.0;
  EXPECT_TRUE(sameBits(ctmc::transientDistribution(chain, initial, 1.0),
                       rowTransient(rows.chain, initial, 1.0)));
  const std::vector<double> times{0.5, 1.0, 2.0};
  const auto multi = ctmc::transientDistributions(chain, initial, times);
  const auto rowMulti = rowTransientMulti(rows.chain, initial, times);
  ASSERT_EQ(multi.size(), rowMulti.size());
  for (std::size_t j = 0; j < times.size(); ++j)
    EXPECT_TRUE(sameBits(multi[j], rowMulti[j])) << "t=" << times[j];

  if (!steady) return;
  ctmc::SteadyStateOptions opts;
  opts.maxIterations = 20000;
  std::vector<double> reference;
  bool converged = true;
  try {
    reference = rowSteady(rows.chain, opts);
  } catch (const NumericalError&) {
    converged = false;
  }
  if (converged)
    EXPECT_TRUE(sameBits(ctmc::steadyStateDistribution(chain, opts), reference));
  else
    EXPECT_THROW(ctmc::steadyStateDistribution(chain, opts), NumericalError);
}

/// Analyzes \p tree under the perfbench fuzz budget (30,000 live states)
/// and checks the closed model's extraction and the failure-absorbed one
/// against the row references.  Returns false when the budget tripped.
bool checkAgainstRowKernels(const dft::Dft& tree, const std::string& label) {
  AnalysisRequest request = AnalysisRequest::forDft(tree, label);
  request.options.engine.staticCombine = false;
  request.budget.maxLiveStates = 30000;
  AnalysisReport report;
  try {
    report = Analyzer().analyze(request);
  } catch (const BudgetExceeded&) {
    return false;
  }
  SCOPED_TRACE(label);
  const analysis::DftAnalysis& a = *report.analysis;
  const IOIMC absorbed =
      ioimc::aggregate(ioimc::makeLabelAbsorbing(a.closedModel, kDown));
  for (const IOIMC* model : {&a.closedModel, &absorbed}) {
    const Extraction flat = analysis::extract(*model, kDown);
    const RowExtraction rows = rowExtract(*model, kDown);
    expectSameExtraction(flat, rows);
    if (model == &absorbed) expectSameBounds(flat, rows);
    // Steady state only on the repairable trees' unabsorbed chains; an
    // absorbing chain drains slowly and says nothing new.
    expectSameChainSolves(flat, rows, a.repairable && model == &a.closedModel);
  }
  return true;
}

TEST(SolverKernels, CorpusFamiliesMatchRowKernels) {
  const std::vector<std::pair<std::string, dft::Dft>> trees = {
      {"cas", dft::corpus::cas()},
      {"cps", dft::corpus::cps()},
      {"hecs", dft::corpus::hecs()},
      {"pand_4x3", dft::corpus::cascadedPand(4, 3)},
      {"rep-and", dft::corpus::repairableAnd()},
  };
  for (const auto& [name, tree] : trees)
    EXPECT_TRUE(checkAgainstRowKernels(tree, name)) << name << " tripped";
}

/// Generator seeds 0..149 in blocks of 25, so a sanitizer build stays
/// inside the per-test timeout.
class SolverKernelsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SolverKernelsFuzz, SeedsMatchRowKernels) {
  std::size_t checked = 0;
  for (std::uint64_t seed = GetParam() * 25; seed < (GetParam() + 1) * 25u;
       ++seed)
    if (checkAgainstRowKernels(dft::generateDft(seed),
                               "seed " + std::to_string(seed)))
      ++checked;
  // A few seeds trip the live-state cap; most must get through.
  EXPECT_GE(checked, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverKernelsFuzz, ::testing::Range(0, 6));

TEST(SolverKernels, NondeterministicSeedsAreCovered) {
  // The bounds comparison above must see real scheduler choices.
  AnalysisRequest request = AnalysisRequest::forDft(dft::generateDft(24));
  request.options.engine.staticCombine = false;
  AnalysisReport report = Analyzer().analyze(request);
  ASSERT_TRUE(report.analysis->nondeterministic);
  const ctmdp::ReachabilityBounds b =
      ctmdp::reachabilityBounds(report.analysis->absorbed.mdp, 1.0);
  EXPECT_LT(b.lower, b.upper);
}

TEST(SolverKernels, UnavailabilityGridMatchesPerPointCalls) {
  const std::vector<double> grid{0.5, 1.0, 0.0, 2.0};
  for (const dft::Dft& tree :
       {dft::generateDft(126), dft::generateDft(67),
        dft::corpus::repairableAnd()}) {
    AnalysisRequest request = AnalysisRequest::forDft(tree);
    request.options.engine.staticCombine = false;
    request.measure(analysis::MeasureSpec::unavailability(grid));
    AnalysisReport report = Analyzer().analyze(request);
    ASSERT_EQ(report.measures.size(), 1u);
    const analysis::MeasureResult& m = report.measures.front();
    ASSERT_TRUE(m.ok) << m.error;
    ASSERT_EQ(m.values.size(), grid.size());
    for (std::size_t j = 0; j < grid.size(); ++j)
      EXPECT_TRUE(sameBits(
          m.values[j],
          ctmc::probabilityOfLabelAt(
              analysis::fullExtraction(*report.analysis).chain, kDown,
              grid[j])))
          << "t=" << grid[j];
  }
}

}  // namespace
}  // namespace imcdft
