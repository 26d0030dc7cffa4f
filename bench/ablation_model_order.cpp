// ablation_model_order — how much Phase-IV model fidelity is enough?
//
// The paper's model carries the DC gain and two poles, and its Fig. 5
// transient visibly deviates from ELDO because the input linear range is
// not modeled. This ablation quantifies the end-of-integration error vs
// the netlist for four model orders across input amplitudes:
//   ideal K/s  ->  one pole  ->  two poles (paper)  ->  two poles + clamp.
#include <cmath>

#include "base/table.hpp"
#include "base/units.hpp"
#include "core/characterize.hpp"
#include "core/memo.hpp"
#include "runner/runner.hpp"
#include "uwb/integrator.hpp"

using namespace uwbams;

namespace {

double integrate_value(uwb::IntegrateAndDump& itd, double& input, double vin,
                       double t_int) {
  const double dt = 0.2e-9;
  double t = 0.0;
  auto run = [&](uwb::IntegrateAndDump::Mode m, double dur) {
    itd.set_mode(m);
    for (const double end = t + dur; t < end - dt / 2; t += dt)
      itd.step_block(&t, dt, 1);
  };
  input = 0.0;
  run(uwb::IntegrateAndDump::Mode::kDump, 40e-9);
  input = vin;
  run(uwb::IntegrateAndDump::Mode::kIntegrate, t_int);
  return itd.output();
}

}  // namespace

REGISTER_SCENARIO(model_order, "ablation",
                  "A2 — Phase-IV model order vs ELDO integration error") {
  const auto ch = core::memo::characterize_itd_cached();
  const auto cal = core::to_behavioral_params(ch, false);
  auto cal_clamp = core::to_behavioral_params(ch, true);

  base::Table t("End-of-integration error vs ELDO (100 ns window)");
  t.set_header({"vin [mV]", "ideal K/s", "1-pole", "2-pole (paper)",
                "2-pole + clamp", "ELDO [V]"});

  for (double vin : {0.01, 0.03, 0.06, 0.10, 0.20, 0.40}) {
    double in0 = 0, in1 = 0, in2 = 0, in3 = 0, in4 = 0;
    uwb::IdealIntegrator m_ideal(&in0, units::db_to_lin(cal.dc_gain_db) * 2 *
                                           units::pi * cal.f_pole1);
    uwb::TwoPoleParams one_pole = cal;
    one_pole.f_pole2 = 1e12;  // push the second pole out of the picture
    uwb::TwoPoleIntegrator m_1p(&in1, one_pole);
    uwb::TwoPoleIntegrator m_2p(&in2, cal);
    uwb::TwoPoleIntegrator m_2pc(&in3, cal_clamp);
    uwb::SpiceIntegrator m_spice(&in4);

    const double t_int = 100e-9;
    const double v_ref = integrate_value(m_spice, in4, vin, t_int);
    auto err = [&](uwb::IntegrateAndDump& m, double& in) {
      const double v = integrate_value(m, in, vin, t_int);
      return 100.0 * (v - v_ref) / std::max(std::abs(v_ref), 1e-9);
    };
    t.add_row({base::Table::num(vin * 1e3, 0),
               base::Table::num(err(m_ideal, in0), 1) + " %",
               base::Table::num(err(m_1p, in1), 1) + " %",
               base::Table::num(err(m_2p, in2), 1) + " %",
               base::Table::num(err(m_2pc, in3), 1) + " %",
               base::Table::num(v_ref, 4)});
    ctx.sink.notef("vin = %.0f mV done", vin * 1e3);
  }
  ctx.sink.note("");
  ctx.sink.table(t, "model_order_error");

  ctx.sink.notef(
      "Reading: the paper's linear two-pole model is accurate in the linear\n"
      "range and drifts for vin beyond ~%.0f mV (its Fig. 5 mismatch); adding\n"
      "the characterized input clamp — the refinement the paper lists as\n"
      "future work — removes most of the remaining error at large drive.",
      ch.input_linear_range * 1e3);
  return 0;
}
