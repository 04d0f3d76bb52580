#pragma once

#include <vector>

#include "ctmc/ctmc.hpp"

/// \file uniformized.hpp
/// The uniformized DTMC of a rate table, built once per solve and shared by
/// every uniformization-based solver: transient analysis, steady state and
/// the CTMDP scheduler bounds.  With Lambda = slack * (largest exit rate),
/// each transition carries P(s, s') = rate(s, s') / Lambda and each state
/// its self-loop weight stay(s) = 1 - exit(s) / Lambda, exit(s) summed in
/// row order.  The solvers' iterations only multiply and add; the divisions
/// happen here, once per transition and state per solve.

namespace imcdft::ctmc {

class Uniformized {
 public:
  /// Tabulates \p rows (which must outlive the table) at Lambda =
  /// \p slack times the largest exit rate.  When every row is empty
  /// (maxExitRate() == 0) there is nothing to tabulate and no solver may
  /// step.
  Uniformized(const RateRows& rows, double slack);

  double maxExitRate() const { return maxExit_; }
  double lambda() const { return lambda_; }
  std::size_t numStates() const { return stay_.size(); }

  /// P of every transition, parallel to RateRows::targets.
  const std::vector<double>& probabilities() const { return prob_; }
  /// Self-loop weight of every state.
  const std::vector<double>& stay() const { return stay_; }
  const RateRows& rows() const { return rows_; }

  /// The uniformized step out = in * P: every state pushes its mass along
  /// its row and keeps the stay() share.  States without mass are skipped.
  void step(const std::vector<double>& in, std::vector<double>& out) const;

 private:
  const RateRows& rows_;
  double maxExit_ = 0.0;
  double lambda_ = 0.0;
  std::vector<double> prob_;
  std::vector<double> stay_;
};

}  // namespace imcdft::ctmc
