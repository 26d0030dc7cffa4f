// spice_playground — the transistor-level simulator standalone.
//
// Loads the shipped Integrate & Dump netlist through the SPICE-dialect
// parser, solves its operating point, runs an AC sweep and a short
// transient — the ELDO-role substrate without any of the system layers.
#include "base/table.hpp"
#include "runner/runner.hpp"
#include "spice/ac.hpp"
#include "spice/itd_builder.hpp"
#include "spice/netlist_parser.hpp"
#include "spice/op.hpp"
#include "spice/transient.hpp"

using namespace uwbams;

REGISTER_SCENARIO(spice_playground, "example",
                  "The shipped I&D netlist standalone: OP, AC, transient") {
  spice::Circuit ckt;
  spice::parse_netlist_file(spice::itd_netlist_path(), ckt);
  ctx.sink.notef("loaded %s\n  devices: %zu (%zu MOSFETs), nodes: %zu\n",
                 spice::itd_netlist_path().c_str(), ckt.device_count(),
                 ckt.count_devices_with_prefix("Xitd.M"), ckt.node_count());

  // Operating point.
  const auto op = spice::solve_op(ckt);
  ctx.sink.notef("operating point: %s in %d iterations (strategy: %s)",
                 op.converged ? "converged" : "FAILED", op.iterations,
                 op.strategy.c_str());
  base::Table t("Key bias nodes");
  t.set_header({"node", "V"});
  for (const char* n : {"Xitd.Vbias1", "Xitd.Vref", "Xitd.Outp", "Xitd.Outm",
                        "Xitd.Vcmfb"}) {
    t.add_row({n, base::Table::num(ckt.voltage_in(op.x, ckt.find_node(n)), 4)});
  }
  ctx.sink.table(t, "bias_nodes");
  ctx.sink.metric("op_converged", op.converged ? "yes" : "no");
  ctx.sink.metric("op_iterations", static_cast<std::uint64_t>(op.iterations));

  // AC sweep (the probe sources in the netlist carry the AC stimulus).
  const auto freqs = spice::log_frequency_grid(1e4, 10e9, 3);
  const auto sweep = spice::run_ac(ckt, op.x, freqs, ckt.find_node("Out_intp"),
                                   ckt.find_node("Out_intm"));
  base::Series series("AC response |H| (diff out / diff in)", "freq_hz");
  series.add_column("mag_db");
  for (std::size_t i = 0; i < sweep.points.size(); ++i)
    series.add_row(sweep.points[i].freq, {sweep.mag_db(i)});
  ctx.sink.note("\nAC response |H| (differential output / differential input):");
  ctx.sink.series(series, "ac_response", 4, /*print_rows=*/false);
  ctx.sink.plot(series, 64, 16);

  // Short transient: integrate a 30 mV differential step for 100 ns.
  spice::TransientOptions topts;
  topts.dt = 0.2e-9;
  spice::TransientSession sim(ckt, topts);
  sim.source("Vctrlm").set_override(1.8);  // dump first
  sim.run_until(30e-9);
  sim.source("Vctrlm").set_override(0.0);
  sim.source("Vinp").set_override(0.915);
  sim.source("Vinm").set_override(0.885);
  sim.run_until(130e-9);
  const double vout = sim.v("Out_intm") - sim.v("Out_intp");
  ctx.sink.notef(
      "\ntransient: 30 mV differential input integrated for 100 ns\n"
      "  v(Out_intm) - v(Out_intp) = %.4f V\n"
      "  (%llu steps, %.2f Newton iterations/step)",
      vout, static_cast<unsigned long long>(sim.stats().steps),
      static_cast<double>(sim.stats().newton_iterations) /
          static_cast<double>(sim.stats().steps));
  ctx.sink.metric("transient_vout_v", vout);
  return op.converged ? 0 : 1;
}
