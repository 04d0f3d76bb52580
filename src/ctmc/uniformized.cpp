#include "ctmc/uniformized.hpp"

#include <algorithm>

namespace imcdft::ctmc {

Uniformized::Uniformized(const RateRows& rows, double slack)
    : rows_(rows), stay_(rows.numRows()) {
  // stay_ holds the exit rates until Lambda is known.
  for (StateId s = 0; s < stay_.size(); ++s) {
    stay_[s] = rows.exitRate(s);
    maxExit_ = std::max(maxExit_, stay_[s]);
  }
  if (maxExit_ == 0.0) return;
  lambda_ = slack * maxExit_;
  prob_.resize(rows.numTransitions());
  for (std::size_t i = 0; i < prob_.size(); ++i)
    prob_[i] = rows.rates[i] / lambda_;
  for (double& d : stay_) d = 1.0 - d / lambda_;
}

void Uniformized::step(const std::vector<double>& in,
                       std::vector<double>& out) const {
  std::fill(out.begin(), out.end(), 0.0);
  const std::uint32_t* offsets = rows_.offsets.data();
  const StateId* to = rows_.targets.data();
  const double* p = prob_.data();
  for (StateId s = 0; s < stay_.size(); ++s) {
    const double mass = in[s];
    if (mass == 0.0) continue;
    for (std::uint32_t i = offsets[s]; i < offsets[s + 1]; ++i)
      out[to[i]] += mass * p[i];
    out[s] += mass * stay_[s];
  }
}

}  // namespace imcdft::ctmc
