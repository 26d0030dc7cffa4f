// fig5_transient — reproduces Fig. 5: "Integrators transient responses".
//
// Identical stimulus (integrate a differential step, hold, dump) through
// the three I&D fidelities. The VHDL-AMS (linear two-pole) model matches
// ELDO for small inputs and deviates for large ones — "distortions caused
// by the limited linear input range of the circuit not contemplated in the
// model" (paper §5).
#include <string>

#include "base/table.hpp"
#include "base/trace.hpp"
#include "core/block_variant.hpp"
#include "core/characterize.hpp"
#include "core/memo.hpp"
#include "runner/runner.hpp"
#include "uwb/integrator.hpp"

using namespace uwbams;

namespace {

base::Trace run_cycle(uwb::IntegrateAndDump& itd, double& input,
                      double vin_diff, const char* name) {
  base::Trace trace(name, 4);
  const double dt = 0.2e-9;
  double t = 0.0;
  auto run = [&](uwb::IntegrateAndDump::Mode m, double dur) {
    itd.set_mode(m);
    for (const double end = t + dur; t < end - dt / 2; t += dt) {
      itd.step_block(&t, dt, 1);
      trace.record(t, itd.output());
    }
  };
  input = 0.0;
  run(uwb::IntegrateAndDump::Mode::kDump, 40e-9);
  input = vin_diff;
  run(uwb::IntegrateAndDump::Mode::kIntegrate, 300e-9);
  input = 0.0;
  run(uwb::IntegrateAndDump::Mode::kHold, 150e-9);
  run(uwb::IntegrateAndDump::Mode::kDump, 60e-9);
  return trace;
}

}  // namespace

REGISTER_SCENARIO(fig5_transient, "bench",
                  "Fig. 5 — integrate/hold/dump transients at 3 fidelities") {
  // Phase IV model calibrated from the netlist (the paper's flow).
  const auto ch = core::memo::characterize_itd_cached();
  const auto cal = core::to_behavioral_params(ch, /*with_clamp=*/false);
  uwb::SystemConfig sys = ctx.spec().system();

  for (double vin : {0.02, 0.08}) {
    double in_ideal = 0, in_model = 0, in_spice = 0;
    uwb::IdealIntegrator ideal(&in_ideal, sys.integrator_k);
    uwb::TwoPoleIntegrator model(&in_model, cal);
    uwb::SpiceIntegrator spice_itd(&in_spice);

    auto tr_i = run_cycle(ideal, in_ideal, vin, "IDEAL");
    auto tr_m = run_cycle(model, in_model, vin, "VHDL-AMS");
    auto tr_s = run_cycle(spice_itd, in_spice, vin, "ELDO");

    const std::string mv = base::Table::num(vin * 1e3, 0);
    base::Series series("Fig 5. transient responses, vin = " + mv + " mV",
                        "t_ns");
    series.add_column("IDEAL");
    series.add_column("VHDL-AMS");
    series.add_column("ELDO");
    for (std::size_t i = 0; i < tr_i.times().size(); i += 8) {
      const double t = tr_i.times()[i];
      series.add_row(t * 1e9, {tr_i.values()[i], tr_m.at(t), tr_s.at(t)});
    }
    ctx.sink.series(series, "transient_" + mv + "mv", 6, /*print_rows=*/false);
    ctx.sink.plot(series, 70, 18);

    // End-of-integration values and the model-vs-netlist mismatch.
    const double t_eoi = 40e-9 + 300e-9 - 1e-9;
    const double vi = tr_i.at(t_eoi), vm = tr_m.at(t_eoi), vs = tr_s.at(t_eoi);
    base::Table t("End-of-integration value, vin = " + mv + " mV");
    t.set_header({"Model", "V_out [V]", "vs ELDO"});
    t.add_row({"IDEAL", base::Table::num(vi, 4),
               base::Table::num(100.0 * (vi - vs) / vs, 1) + " %"});
    t.add_row({"VHDL-AMS", base::Table::num(vm, 4),
               base::Table::num(100.0 * (vm - vs) / vs, 1) + " %"});
    t.add_row({"ELDO", base::Table::num(vs, 4), "-"});
    ctx.sink.table(t, "end_of_integration_" + mv + "mv");
    ctx.sink.metric("eoi_ideal_" + mv + "mv_v", vi);
    ctx.sink.metric("eoi_model_" + mv + "mv_v", vm);
    ctx.sink.metric("eoi_eldo_" + mv + "mv_v", vs);
  }

  ctx.sink.notef(
      "Shape check (paper Fig. 5): the linear VHDL-AMS model tracks ELDO for\n"
      "small inputs; at large inputs the netlist compresses (limited ~%.0f mV\n"
      "linear input range) and the mismatch grows — the deficiency the paper\n"
      "uses to motivate refining the Phase-IV model.",
      ch.input_linear_range * 1e3);
  return 0;
}
