#include "uwb/frontend.hpp"

#include <algorithm>
#include <cmath>

#include "base/units.hpp"

namespace uwbams::uwb {

Amplifier::Amplifier(const double* input, double gain_db, double sat,
                     double bw)
    : in_(input), gain_db_(gain_db),
      gain_lin_(units::db_to_lin(gain_db)), sat_(sat), bw_(bw),
      pole_(1.0, 2.0 * units::pi * (bw > 0.0 ? bw : 1.0)) {}

void Amplifier::set_gain_db(double gain_db) {
  gain_db_ = gain_db;
  gain_lin_ = units::db_to_lin(gain_db);
}

void Amplifier::step_block(const double* /*t*/, double dt, int n) {
  // The pole recurrence is inherently serial; the unlimited-bandwidth
  // branch is a pure vectorizable map.
  const double* in = in_;
  const double g = gain_lin_;
  const double sat = sat_;
  if (bw_ > 0.0) {
    for (int i = 0; i < n; ++i) {
      const double v = pole_.step(g * in[i], dt);
      out_[i] = std::clamp(v, -sat, sat);
    }
  } else {
    for (int i = 0; i < n; ++i) out_[i] = std::clamp(g * in[i], -sat, sat);
  }
}

SummingJunction::SummingJunction(std::vector<const double*> inputs)
    : in_(std::move(inputs)) {}

void SummingJunction::step_block(const double* /*t*/, double /*dt*/, int n) {
  // Sources outer, samples inner, accumulating in source order: each
  // sample's sum is built in registration order whatever the batch size.
  for (int i = 0; i < n; ++i) out_[i] = 0.0;
  for (const double* src : in_)
    for (int i = 0; i < n; ++i) out_[i] += src[i];
}

Squarer::Squarer(const double* input, double k) : in_(input), k_(k) {}

void Squarer::step_block(const double* /*t*/, double /*dt*/, int n) {
  const double* in = in_;
  const double k = k_;
  for (int i = 0; i < n; ++i) out_[i] = k * in[i] * in[i];
}

}  // namespace uwbams::uwb
