#include "uwb/integrator.hpp"

#include <algorithm>
#include <cmath>

#include "base/units.hpp"

namespace uwbams::uwb {

// ---------------------------------------------------------- IdealIntegrator

IdealIntegrator::IdealIntegrator(const double* input, double k)
    : in_(input), state_(k) {}

void IdealIntegrator::set_mode(Mode mode) {
  mode_ = mode;
  if (mode == Mode::kDump) state_.reset();
}

void IdealIntegrator::step_block(const double* /*t*/, double dt, int n) {
  switch (mode_) {
    case Mode::kIntegrate:
      for (int i = 0; i < n; ++i) state_.step(in_[i], dt);
      break;
    case Mode::kDump:
      state_.reset();  // idempotent: one reset == n per-sample resets
      break;
    case Mode::kHold:
      break;  // value frozen
  }
}

// -------------------------------------------------------- TwoPoleIntegrator

TwoPoleIntegrator::TwoPoleIntegrator(const double* input,
                                     const TwoPoleParams& params)
    : in_(input), params_(params),
      state_(units::db_to_lin(params.dc_gain_db),
             2.0 * units::pi * params.f_pole1,
             2.0 * units::pi * params.f_pole2) {}

void TwoPoleIntegrator::set_mode(Mode mode) {
  mode_ = mode;
  if (mode == Mode::kDump) state_.reset();
}

void TwoPoleIntegrator::step_block(const double* /*t*/, double dt, int n) {
  switch (mode_) {
    case Mode::kIntegrate: {
      const double clamp = params_.input_clamp;
      if (clamp > 0.0) {
        for (int i = 0; i < n; ++i)
          state_.step(std::clamp(in_[i], -clamp, clamp), dt);
      } else {
        for (int i = 0; i < n; ++i) state_.step(in_[i], dt);
      }
      break;
    }
    case Mode::kDump:
      // The paper's "else vo_q==0.0; vo==0.0"; idempotent, so one reset
      // equals n per-sample resets.
      state_.reset();
      break;
    case Mode::kHold:
      break;
  }
}

// --------------------------------------------------------- SpiceIntegrator

SpiceIntegrator::SpiceIntegrator(const double* input,
                                 const spice::ItdSizing& sizing,
                                 spice::TransientOptions options)
    : in_(input), vdd_(sizing.vdd),
      decim_(std::max(1, options.cosim_decimation)) {
  auto circuit = std::make_unique<spice::Circuit>();
  const auto tb = spice::build_itd_testbench(*circuit, sizing);
  input_cm_ = tb.input_cm;
  vinp_ = input_cm_;
  vinm_ = input_cm_;
  ctrlp_ = vdd_;  // start in dump: switches closed, reset on
  ctrlm_ = vdd_;

  bridge_ = std::make_unique<ams::SpiceBridge>(std::move(circuit), options);
  bridge_->bind_input("vinp", &vinp_);
  bridge_->bind_input("vinm", &vinm_);
  // Control rails slew at 3.6 V/ns (~0.5 ns edges), matching an on-chip
  // driver rather than an unphysical step.
  bridge_->bind_input("vctrlp", &ctrlp_, 3.6);
  bridge_->bind_input("vctrlm", &ctrlm_, 3.6);
  // The fully differential cell inverts; reading (Out_intm - Out_intp)
  // normalizes the output polarity to match the behavioral variants.
  out_ = bridge_->bind_output("Out_intm", "Out_intp");
}

void SpiceIntegrator::set_mode(Mode mode) {
  // Pending decimated samples belong to the outgoing control phase: flush
  // them before the rails move so window edges stay sample-accurate.
  flush_pending();
  mode_ = mode;
  switch (mode) {
    case Mode::kDump:
      ctrlp_ = vdd_;
      ctrlm_ = vdd_;
      break;
    case Mode::kIntegrate:
      ctrlp_ = vdd_;
      ctrlm_ = 0.0;
      break;
    case Mode::kHold:
      ctrlp_ = 0.0;
      ctrlm_ = 0.0;
      break;
  }
}

void SpiceIntegrator::flush_pending() {
  if (pend_n_ == 0) return;
  const double span = pend_dt_ * pend_n_;
  pend_n_ = 0;
  bridge_->step_block(&pend_t_, span, 1);
}

void SpiceIntegrator::step_block(const double* t, double dt, int n) {
  for (int i = 0; i < n; ++i) {
    const double u = in_[i];
    vinp_ = input_cm_ + 0.5 * u;
    vinm_ = input_cm_ - 0.5 * u;
    if (decim_ <= 1) {
      bridge_->step_block(&t[i], dt, 1);
      continue;
    }
    // Multirate: hold the drive and solve once per decim_ samples over the
    // combined span. White-noise inputs keep their per-sample statistics
    // under sample-and-hold (an averaging prefilter would halve the noise
    // energy the detector integrates — a ~3 dB bias the stat gate rejects).
    pend_t_ = t[i];
    pend_dt_ = dt;
    if (++pend_n_ >= decim_) flush_pending();
  }
}

}  // namespace uwbams::uwb
