// Tests for the netlist writer round trip and extra device property
// sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/devices.hpp"
#include "spice/itd_builder.hpp"
#include "spice/mosfet.hpp"
#include "spice/netlist_parser.hpp"
#include "spice/netlist_writer.hpp"
#include "spice/op.hpp"

namespace {

using namespace uwbams::spice;

TEST(NetlistWriter, RoundTripDivider) {
  Circuit c;
  const auto in = c.node("in"), mid = c.node("mid");
  c.add<VoltageSource>("V1", in, c.ground(), Waveform::dc(5.0));
  c.add<Resistor>("R1", in, mid, 3e3);
  c.add<Resistor>("R2", mid, c.ground(), 1e3);
  const std::string text = write_netlist(c);

  Circuit c2;
  parse_netlist(text, c2);
  const auto op = solve_op(c2);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(c2.voltage_in(op.x, c2.find_node("mid")), 1.25, 1e-9);
}

TEST(NetlistWriter, RoundTripItdCellMatchesOp) {
  // Export the programmatic 31-transistor cell, re-parse it, and compare
  // operating points — the full-circle interoperability check.
  Circuit built;
  const auto tb = build_itd_testbench(built);
  const auto op1 = solve_op(built);
  ASSERT_TRUE(op1.converged);

  const std::string text = write_netlist(built, "itd round trip");
  Circuit reparsed;
  parse_netlist(text, reparsed);
  EXPECT_EQ(reparsed.count_devices_with_prefix("M"), 31u);
  const auto op2 = solve_op(reparsed);
  ASSERT_TRUE(op2.converged);

  for (const char* n : {"Outp", "Outm", "Vbias1", "Vref", "Vcmfb"}) {
    const double v1 = built.voltage_in(op1.x, built.find_node(n));
    const double v2 = reparsed.voltage_in(op2.x, reparsed.find_node(n));
    EXPECT_NEAR(v1, v2, 1e-6) << n;
  }
  (void)tb;
}

TEST(NetlistWriter, EmitsModelCards) {
  Circuit c;
  c.add<VoltageSource>("Vd", c.node("d"), c.ground(), Waveform::dc(1.8));
  c.add<Mosfet>("M1", c.node("d"), c.node("d"), c.ground(), c.ground(),
                builtin_model("nmos_lv"), 1e-6, 0.18e-6);
  const std::string text = write_netlist(c);
  EXPECT_NE(text.find(".model nmos_lv nmos"), std::string::npos);
  EXPECT_NE(text.find("W=1e-06"), std::string::npos);
}

// Property sweep: MOSFET saturation current quadratic in overdrive.
class MosQuadratic : public ::testing::TestWithParam<double> {};

TEST_P(MosQuadratic, SaturationLaw) {
  const double vov = GetParam();
  Circuit c;
  Mosfet m("M1", c.node("d"), c.node("g"), c.node("s"), c.node("b"),
           builtin_model("nmos"), 2e-6, 0.36e-6);
  const auto mod = builtin_model("nmos");
  const auto e = m.evaluate(1.8, mod.vt0 + vov, 0.0, 0.0);
  ASSERT_EQ(e.region, MosEval::Region::kSaturation);
  const double leff = 0.36e-6 - 2 * mod.ld;
  const double expect =
      0.5 * mod.kp * (2e-6 / leff) * vov * vov * (1 + mod.lambda * 1.8);
  EXPECT_NEAR(e.ids, expect, 1e-9 + expect * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Overdrives, MosQuadratic,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8));

// AC property: RC low-pass magnitude follows the one-pole law across
// frequency decades.
class RcLowPassDecades : public ::testing::TestWithParam<double> {};

TEST_P(RcLowPassDecades, OnePoleLaw) {
  const double f = GetParam();
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.add<VoltageSource>("V1", in, c.ground(), Waveform::dc(0.0), 1.0);
  c.add<Resistor>("R1", in, out, 1e3);
  c.add<Capacitor>("C1", out, c.ground(), 1e-9);
  const auto op = solve_op(c);
  const auto sweep = run_ac(c, op.x, std::vector<double>{f}, out);
  const double fc = 1.0 / (2 * 3.14159265358979 * 1e-6);
  const double expect_db = -10.0 * std::log10(1.0 + (f / fc) * (f / fc));
  EXPECT_NEAR(sweep.mag_db(0), expect_db, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Decades, RcLowPassDecades,
                         ::testing::Values(1e3, 1e4, 1e5, 1e6, 1e7, 1e8));

}  // namespace
