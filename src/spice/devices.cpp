#include "spice/devices.hpp"

#include <cmath>
#include <stdexcept>

#include "base/units.hpp"

namespace uwbams::spice {

namespace {
using std::complex;
const complex<double> kJ{0.0, 1.0};
}  // namespace

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, int n1, int n2, double ohms)
    : Device(std::move(name)), a_(mna_index(n1)), b_(mna_index(n2)), ohms_(ohms),
      g_(1.0 / ohms) {
  if (ohms_ <= 0.0) throw std::invalid_argument("Resistor: non-positive value");
}

void Resistor::stamp(Mna<double>& mna, const StampArgs&) const {
  mna.stamp_conductance(a_, b_, g_);
}

void Resistor::footprint(MnaPattern& pattern) const {
  pattern.add_block({a_, b_});
}

void Resistor::residual(std::vector<double>& f, const StampArgs& args) const {
  const std::vector<double>& x = *args.x;
  const double i = g_ * (v_at(x, a_) - v_at(x, b_));
  if (a_ >= 0) f[static_cast<std::size_t>(a_)] += i;
  if (b_ >= 0) f[static_cast<std::size_t>(b_)] -= i;
}

void Resistor::stamp_ac(Mna<complex<double>>& mna, const std::vector<double>&,
                        double) const {
  mna.stamp_conductance(a_, b_, complex<double>{1.0 / ohms_, 0.0});
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, int n1, int n2, double farads)
    : Device(std::move(name)), a_(mna_index(n1)), b_(mna_index(n2)),
      farads_(farads) {
  if (farads_ <= 0.0) throw std::invalid_argument("Capacitor: non-positive value");
}

void Capacitor::stamp(Mna<double>& mna, const StampArgs& args) const {
  if (args.mode == AnalysisMode::kOp) return;  // open in DC
  const bool trap = args.method == Integrator::kTrapezoidal;
  const double geq = (trap ? 2.0 : 1.0) * farads_ * args.inv_dt;
  const double ieq = trap ? (-geq * v_prev_ - i_prev_) : (-geq * v_prev_);
  mna.stamp_conductance(a_, b_, geq);
  mna.stamp_current(a_, b_, ieq);
}

void Capacitor::footprint(MnaPattern& pattern) const {
  pattern.add_block({a_, b_});
}

void Capacitor::residual(std::vector<double>& f, const StampArgs& args) const {
  if (args.mode == AnalysisMode::kOp) return;  // open in DC
  const std::vector<double>& x = *args.x;
  const bool trap = args.method == Integrator::kTrapezoidal;
  const double geq = (trap ? 2.0 : 1.0) * farads_ * args.inv_dt;
  const double ieq = trap ? (-geq * v_prev_ - i_prev_) : (-geq * v_prev_);
  const double i = geq * (v_at(x, a_) - v_at(x, b_)) + ieq;
  if (a_ >= 0) f[static_cast<std::size_t>(a_)] += i;
  if (b_ >= 0) f[static_cast<std::size_t>(b_)] -= i;
}

void Capacitor::stamp_ac(Mna<complex<double>>& mna, const std::vector<double>&,
                         double omega) const {
  mna.stamp_conductance(a_, b_, kJ * omega * farads_);
}

void Capacitor::init_state(const std::vector<double>& op) {
  v_prev_ = v_at(op, a_) - v_at(op, b_);
  i_prev_ = 0.0;
}

void Capacitor::commit(const std::vector<double>& x, double, double dt) {
  const double v = v_at(x, a_) - v_at(x, b_);
  const double geq = 2.0 * farads_ / dt;
  // Trapezoidal current update; also valid history for a BE step start.
  i_prev_ = geq * (v - v_prev_) - i_prev_;
  v_prev_ = v;
}

void Capacitor::save_state(std::vector<double>& out) const {
  out.push_back(v_prev_);
  out.push_back(i_prev_);
}

const double* Capacitor::load_state(const double* in) {
  v_prev_ = in[0];
  i_prev_ = in[1];
  return in + 2;
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, int n1, int n2, double henries)
    : Device(std::move(name)), a_(mna_index(n1)), b_(mna_index(n2)),
      henries_(henries) {
  if (henries_ <= 0.0) throw std::invalid_argument("Inductor: non-positive value");
}

void Inductor::stamp(Mna<double>& mna, const StampArgs& args) const {
  const int ib = branch_base();
  mna.add(a_, ib, 1.0);
  mna.add(b_, ib, -1.0);
  mna.add(ib, a_, 1.0);
  mna.add(ib, b_, -1.0);
  if (args.mode == AnalysisMode::kOp) {
    // Short in DC: v(a) - v(b) = 0, nothing else on the branch row.
    return;
  }
  const bool trap = args.method == Integrator::kTrapezoidal;
  const double req = (trap ? 2.0 : 1.0) * henries_ * args.inv_dt;
  mna.add(ib, ib, -req);
  const double rhs = trap ? (-req * i_prev_ - v_prev_) : (-req * i_prev_);
  mna.add_rhs(ib, rhs);
}

void Inductor::footprint(MnaPattern& pattern) const {
  pattern.add_block({a_, b_, branch_base()});
}

void Inductor::residual(std::vector<double>& f, const StampArgs& args) const {
  const std::vector<double>& x = *args.x;
  const int ib = branch_base();
  const double i_br = v_at(x, ib);
  const double vab = v_at(x, a_) - v_at(x, b_);
  if (a_ >= 0) f[static_cast<std::size_t>(a_)] += i_br;
  if (b_ >= 0) f[static_cast<std::size_t>(b_)] -= i_br;
  if (args.mode == AnalysisMode::kOp) {
    f[static_cast<std::size_t>(ib)] += vab;  // short in DC
    return;
  }
  const bool trap = args.method == Integrator::kTrapezoidal;
  const double req = (trap ? 2.0 : 1.0) * henries_ * args.inv_dt;
  const double rhs = trap ? (-req * i_prev_ - v_prev_) : (-req * i_prev_);
  f[static_cast<std::size_t>(ib)] += vab - req * i_br - rhs;
}

void Inductor::stamp_ac(Mna<complex<double>>& mna, const std::vector<double>&,
                        double omega) const {
  const int ib = branch_base();
  mna.add(a_, ib, complex<double>{1.0, 0.0});
  mna.add(b_, ib, complex<double>{-1.0, 0.0});
  mna.add(ib, a_, complex<double>{1.0, 0.0});
  mna.add(ib, b_, complex<double>{-1.0, 0.0});
  mna.add(ib, ib, -kJ * omega * henries_);
}

void Inductor::init_state(const std::vector<double>& op) {
  i_prev_ = v_at(op, branch_base());
  v_prev_ = 0.0;  // OP forces zero voltage across the inductor
}

void Inductor::commit(const std::vector<double>& x, double, double) {
  i_prev_ = v_at(x, branch_base());
  v_prev_ = v_at(x, a_) - v_at(x, b_);
}

void Inductor::save_state(std::vector<double>& out) const {
  out.push_back(i_prev_);
  out.push_back(v_prev_);
}

const double* Inductor::load_state(const double* in) {
  i_prev_ = in[0];
  v_prev_ = in[1];
  return in + 2;
}

// ---------------------------------------------------------------- Waveform

Waveform Waveform::dc(double v) {
  Waveform w;
  w.kind_ = Kind::kDc;
  w.p_[0] = v;
  return w;
}

Waveform Waveform::pulse(double v1, double v2, double delay, double rise,
                         double fall, double width, double period) {
  Waveform w;
  w.kind_ = Kind::kPulse;
  w.p_[0] = v1;
  w.p_[1] = v2;
  w.p_[2] = delay;
  w.p_[3] = rise;
  w.p_[4] = fall;
  w.p_[5] = width;
  w.p_[6] = period;
  return w;
}

Waveform Waveform::sine(double offset, double amplitude, double freq,
                        double delay) {
  Waveform w;
  w.kind_ = Kind::kSin;
  w.p_[0] = offset;
  w.p_[1] = amplitude;
  w.p_[2] = freq;
  w.p_[3] = delay;
  return w;
}

Waveform Waveform::pwl(std::vector<double> times, std::vector<double> values) {
  if (times.size() != values.size() || times.empty())
    throw std::invalid_argument("Waveform::pwl: bad point list");
  Waveform w;
  w.kind_ = Kind::kPwl;
  w.pwl_t_ = std::move(times);
  w.pwl_v_ = std::move(values);
  return w;
}

double Waveform::value(double t) const {
  switch (kind_) {
    case Kind::kDc:
      return p_[0];
    case Kind::kPulse: {
      const double v1 = p_[0], v2 = p_[1], td = p_[2], tr = p_[3], tf = p_[4],
                   pw = p_[5], per = p_[6];
      if (t < td) return v1;
      double tl = t - td;
      if (per > 0.0) tl = std::fmod(tl, per);
      if (tl < tr) return v1 + (v2 - v1) * (tr > 0 ? tl / tr : 1.0);
      tl -= tr;
      if (tl < pw) return v2;
      tl -= pw;
      if (tl < tf) return v2 + (v1 - v2) * (tf > 0 ? tl / tf : 1.0);
      return v1;
    }
    case Kind::kSin: {
      const double vo = p_[0], va = p_[1], f = p_[2], td = p_[3];
      if (t < td) return vo;
      return vo + va * std::sin(2.0 * units::pi * f * (t - td));
    }
    case Kind::kPwl: {
      if (t <= pwl_t_.front()) return pwl_v_.front();
      if (t >= pwl_t_.back()) return pwl_v_.back();
      for (std::size_t i = 1; i < pwl_t_.size(); ++i) {
        if (t <= pwl_t_[i]) {
          const double f =
              (t - pwl_t_[i - 1]) / (pwl_t_[i] - pwl_t_[i - 1]);
          return pwl_v_[i - 1] + f * (pwl_v_[i] - pwl_v_[i - 1]);
        }
      }
      return pwl_v_.back();
    }
  }
  return 0.0;
}

// ----------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(std::string name, int n1, int n2, Waveform wf,
                             double ac_mag, double ac_phase_deg)
    : Device(std::move(name)), a_(mna_index(n1)), b_(mna_index(n2)),
      wf_(wf), ac_mag_(ac_mag), ac_phase_deg_(ac_phase_deg) {}

double VoltageSource::value(double t) const {
  return has_override_ ? override_ : wf_.value(t);
}

void VoltageSource::save_state(std::vector<double>& out) const {
  out.push_back(override_);
  out.push_back(has_override_ ? 1.0 : 0.0);
}

const double* VoltageSource::load_state(const double* in) {
  override_ = in[0];
  has_override_ = in[1] != 0.0;
  return in + 2;
}

double VoltageSource::current_in(const std::vector<double>& x) const {
  return v_at(x, branch_base());
}

void VoltageSource::stamp(Mna<double>& mna, const StampArgs& args) const {
  const int ib = branch_base();
  mna.add(a_, ib, 1.0);
  mna.add(b_, ib, -1.0);
  mna.add(ib, a_, 1.0);
  mna.add(ib, b_, -1.0);
  const double t = args.mode == AnalysisMode::kOp ? 0.0 : args.t;
  mna.add_rhs(ib, value(t) * args.source_scale);
}

void VoltageSource::footprint(MnaPattern& pattern) const {
  const int ib = branch_base();
  pattern.add(a_, ib);
  pattern.add(b_, ib);
  pattern.add(ib, a_);
  pattern.add(ib, b_);
}

void VoltageSource::residual(std::vector<double>& f,
                             const StampArgs& args) const {
  const std::vector<double>& x = *args.x;
  const int ib = branch_base();
  const double i_br = v_at(x, ib);
  if (a_ >= 0) f[static_cast<std::size_t>(a_)] += i_br;
  if (b_ >= 0) f[static_cast<std::size_t>(b_)] -= i_br;
  const double t = args.mode == AnalysisMode::kOp ? 0.0 : args.t;
  f[static_cast<std::size_t>(ib)] +=
      v_at(x, a_) - v_at(x, b_) - value(t) * args.source_scale;
}

void VoltageSource::stamp_ac(Mna<complex<double>>& mna,
                             const std::vector<double>&, double) const {
  const int ib = branch_base();
  mna.add(a_, ib, complex<double>{1.0, 0.0});
  mna.add(b_, ib, complex<double>{-1.0, 0.0});
  mna.add(ib, a_, complex<double>{1.0, 0.0});
  mna.add(ib, b_, complex<double>{-1.0, 0.0});
  const double ph = ac_phase_deg_ * units::pi / 180.0;
  mna.add_rhs(ib, ac_mag_ * complex<double>{std::cos(ph), std::sin(ph)});
}

// ----------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string name, int n1, int n2, Waveform wf,
                             double ac_mag)
    : Device(std::move(name)), a_(mna_index(n1)), b_(mna_index(n2)),
      wf_(wf), ac_mag_(ac_mag) {}

void CurrentSource::stamp(Mna<double>& mna, const StampArgs& args) const {
  const double t = args.mode == AnalysisMode::kOp ? 0.0 : args.t;
  mna.stamp_current(a_, b_, wf_.value(t) * args.source_scale);
}

void CurrentSource::footprint(MnaPattern& pattern) const {
  // Pure RHS stamp; declare the diagonal of both terminals so a current
  // source alone never leaves a structurally empty matrix row.
  pattern.add(a_, a_);
  pattern.add(b_, b_);
}

void CurrentSource::residual(std::vector<double>& f,
                             const StampArgs& args) const {
  const double t = args.mode == AnalysisMode::kOp ? 0.0 : args.t;
  const double cur = wf_.value(t) * args.source_scale;
  if (a_ >= 0) f[static_cast<std::size_t>(a_)] += cur;
  if (b_ >= 0) f[static_cast<std::size_t>(b_)] -= cur;
}

void CurrentSource::stamp_ac(Mna<complex<double>>& mna,
                             const std::vector<double>&, double) const {
  mna.stamp_current(a_, b_, complex<double>{ac_mag_, 0.0});
}

// --------------------------------------------------------------------- Vcvs

Vcvs::Vcvs(std::string name, int n1, int n2, int nc1, int nc2, double gain)
    : Device(std::move(name)), a_(mna_index(n1)), b_(mna_index(n2)),
      ca_(mna_index(nc1)), cb_(mna_index(nc2)), gain_(gain) {}

void Vcvs::stamp(Mna<double>& mna, const StampArgs&) const {
  const int ib = branch_base();
  mna.add(a_, ib, 1.0);
  mna.add(b_, ib, -1.0);
  mna.add(ib, a_, 1.0);
  mna.add(ib, b_, -1.0);
  mna.add(ib, ca_, -gain_);
  mna.add(ib, cb_, gain_);
}

void Vcvs::residual(std::vector<double>& f, const StampArgs& args) const {
  const std::vector<double>& x = *args.x;
  const int ib = branch_base();
  const double i_br = v_at(x, ib);
  if (a_ >= 0) f[static_cast<std::size_t>(a_)] += i_br;
  if (b_ >= 0) f[static_cast<std::size_t>(b_)] -= i_br;
  f[static_cast<std::size_t>(ib)] += v_at(x, a_) - v_at(x, b_) -
                                     gain_ * (v_at(x, ca_) - v_at(x, cb_));
}

void Vcvs::footprint(MnaPattern& pattern) const {
  const int ib = branch_base();
  pattern.add(a_, ib);
  pattern.add(b_, ib);
  pattern.add(ib, a_);
  pattern.add(ib, b_);
  pattern.add(ib, ca_);
  pattern.add(ib, cb_);
}

void Vcvs::stamp_ac(Mna<complex<double>>& mna, const std::vector<double>&,
                    double) const {
  const int ib = branch_base();
  mna.add(a_, ib, complex<double>{1.0, 0.0});
  mna.add(b_, ib, complex<double>{-1.0, 0.0});
  mna.add(ib, a_, complex<double>{1.0, 0.0});
  mna.add(ib, b_, complex<double>{-1.0, 0.0});
  mna.add(ib, ca_, complex<double>{-gain_, 0.0});
  mna.add(ib, cb_, complex<double>{gain_, 0.0});
}

// --------------------------------------------------------------------- Vccs

Vccs::Vccs(std::string name, int n1, int n2, int nc1, int nc2, double gm)
    : Device(std::move(name)), a_(mna_index(n1)), b_(mna_index(n2)),
      ca_(mna_index(nc1)), cb_(mna_index(nc2)), gm_(gm) {}

void Vccs::stamp(Mna<double>& mna, const StampArgs&) const {
  mna.add(a_, ca_, gm_);
  mna.add(a_, cb_, -gm_);
  mna.add(b_, ca_, -gm_);
  mna.add(b_, cb_, gm_);
}

void Vccs::residual(std::vector<double>& f, const StampArgs& args) const {
  const std::vector<double>& x = *args.x;
  const double i = gm_ * (v_at(x, ca_) - v_at(x, cb_));
  if (a_ >= 0) f[static_cast<std::size_t>(a_)] += i;
  if (b_ >= 0) f[static_cast<std::size_t>(b_)] -= i;
}

void Vccs::footprint(MnaPattern& pattern) const {
  pattern.add(a_, ca_);
  pattern.add(a_, cb_);
  pattern.add(b_, ca_);
  pattern.add(b_, cb_);
}

void Vccs::stamp_ac(Mna<complex<double>>& mna, const std::vector<double>&,
                    double) const {
  mna.add(a_, ca_, complex<double>{gm_, 0.0});
  mna.add(a_, cb_, complex<double>{-gm_, 0.0});
  mna.add(b_, ca_, complex<double>{-gm_, 0.0});
  mna.add(b_, cb_, complex<double>{gm_, 0.0});
}

}  // namespace uwbams::spice
