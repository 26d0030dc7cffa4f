// Device-level tests: stamps checked against closed-form circuit solutions,
// MOSFET region equations, waveform shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/units.hpp"
#include "spice/circuit.hpp"
#include "spice/devices.hpp"
#include "spice/mosfet.hpp"
#include "spice/op.hpp"

namespace {

using namespace uwbams;
using namespace uwbams::spice;

TEST(Circuit, NodeNamesCaseInsensitiveGround) {
  Circuit c;
  EXPECT_EQ(c.node("0"), 0);
  EXPECT_EQ(c.node("gnd"), 0);
  EXPECT_EQ(c.node("GND"), 0);
  const NodeId a = c.node("A");
  EXPECT_EQ(c.node("a"), a);
  EXPECT_EQ(c.find_node("missing"), -1);
}

TEST(Circuit, DuplicateDeviceNameRejected) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add<Resistor>("R1", a, c.ground(), 1e3);
  EXPECT_THROW(c.add<Resistor>("r1", a, c.ground(), 2e3), std::invalid_argument);
}

TEST(Op, VoltageDivider) {
  Circuit c;
  const NodeId in = c.node("in"), mid = c.node("mid");
  c.add<VoltageSource>("V1", in, c.ground(), Waveform::dc(10.0));
  c.add<Resistor>("R1", in, mid, 3e3);
  c.add<Resistor>("R2", mid, c.ground(), 1e3);
  const auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(c.voltage_in(r.x, mid), 2.5, 1e-9);
  EXPECT_NEAR(c.voltage_in(r.x, in), 10.0, 1e-9);
}

TEST(Op, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  // 1 mA flowing from ground into n (source from n=- terminal ordering).
  c.add<CurrentSource>("I1", c.ground(), n, Waveform::dc(1e-3));
  c.add<Resistor>("R1", n, c.ground(), 2e3);
  const auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(c.voltage_in(r.x, n), 2.0, 1e-9);
}

TEST(Op, VsourceBranchCurrent) {
  Circuit c;
  const NodeId in = c.node("in");
  auto& v = c.add<VoltageSource>("V1", in, c.ground(), Waveform::dc(5.0));
  c.add<Resistor>("R1", in, c.ground(), 1e3);
  const auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  // Positive branch current flows from + through the source: here the source
  // delivers 5 mA into R1, so the branch current is -5 mA.
  EXPECT_NEAR(v.current_in(r.x), -5e-3, 1e-9);
}

TEST(Op, VcvsGain) {
  Circuit c;
  const NodeId in = c.node("in"), out = c.node("out");
  c.add<VoltageSource>("V1", in, c.ground(), Waveform::dc(0.5));
  c.add<Vcvs>("E1", out, c.ground(), in, c.ground(), 8.0);
  c.add<Resistor>("RL", out, c.ground(), 1e3);
  const auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(c.voltage_in(r.x, out), 4.0, 1e-9);
}

TEST(Op, VccsTransconductance) {
  Circuit c;
  const NodeId in = c.node("in"), out = c.node("out");
  c.add<VoltageSource>("V1", in, c.ground(), Waveform::dc(1.0));
  // i = gm*v(in) flowing from out to ground => v(out) = -gm*R*v(in).
  c.add<Vccs>("G1", out, c.ground(), in, c.ground(), 2e-3);
  c.add<Resistor>("RL", out, c.ground(), 1e3);
  const auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(c.voltage_in(r.x, out), -2.0, 1e-9);
}

TEST(Op, InductorIsDcShort) {
  Circuit c;
  const NodeId in = c.node("in"), mid = c.node("mid");
  c.add<VoltageSource>("V1", in, c.ground(), Waveform::dc(1.0));
  c.add<Resistor>("R1", in, mid, 1e3);
  c.add<Inductor>("L1", mid, c.ground(), 1e-6);
  const auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(c.voltage_in(r.x, mid), 0.0, 1e-9);
}

TEST(Waveform, PulseShape) {
  const auto w = Waveform::pulse(0.0, 1.8, 10e-9, 1e-9, 2e-9, 5e-9, 20e-9);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(9.9e-9), 0.0);
  EXPECT_NEAR(w.value(10.5e-9), 0.9, 1e-9);     // mid-rise
  EXPECT_DOUBLE_EQ(w.value(13e-9), 1.8);        // flat top
  EXPECT_NEAR(w.value(17e-9), 0.9, 1e-9);       // mid-fall
  EXPECT_DOUBLE_EQ(w.value(19.5e-9), 0.0);      // back to v1
  EXPECT_DOUBLE_EQ(w.value(33e-9), 1.8);        // periodic repeat
}

TEST(Waveform, SineAndPwl) {
  const auto s = Waveform::sine(1.0, 0.5, 1e6);
  EXPECT_NEAR(s.value(0.0), 1.0, 1e-12);
  EXPECT_NEAR(s.value(0.25e-6), 1.5, 1e-9);
  const auto p = Waveform::pwl({0.0, 1.0, 2.0}, {0.0, 10.0, 10.0});
  EXPECT_NEAR(p.value(0.5), 5.0, 1e-12);
  EXPECT_NEAR(p.value(1.5), 10.0, 1e-12);
  EXPECT_NEAR(p.value(5.0), 10.0, 1e-12);
}

TEST(Waveform, OverrideTakesPrecedence) {
  Circuit c;
  const NodeId n = c.node("n");
  auto& v = c.add<VoltageSource>("V1", n, c.ground(), Waveform::dc(1.0));
  c.add<Resistor>("R1", n, c.ground(), 1.0);
  v.set_override(7.0);
  auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(c.voltage_in(r.x, n), 7.0, 1e-9);
  v.clear_override();
  r = solve_op(c);
  EXPECT_NEAR(c.voltage_in(r.x, n), 1.0, 1e-9);
}

// ---------------------------------------------------------------- MOSFET

Mosfet make_nmos(Circuit& c, double w = 1e-6, double l = 0.18e-6) {
  return Mosfet("M1", c.node("d"), c.node("g"), c.node("s"), c.node("b"),
                builtin_model("nmos"), w, l);
}

TEST(Mosfet, CutoffBelowThreshold) {
  Circuit c;
  const auto m = make_nmos(c);
  const auto e = m.evaluate(1.0, 0.3, 0.0, 0.0);  // vgs < vt0
  EXPECT_EQ(e.region, MosEval::Region::kCutoff);
  EXPECT_DOUBLE_EQ(e.ids, 0.0);
}

TEST(Mosfet, SaturationCurrentMatchesLevel1) {
  Circuit c;
  const auto m = make_nmos(c, 1.8e-6, 0.18e-6);
  const MosModel mod = builtin_model("nmos");
  const double vgs = 0.9, vds = 1.5;
  const auto e = m.evaluate(vds, vgs, 0.0, 0.0);
  EXPECT_EQ(e.region, MosEval::Region::kSaturation);
  const double leff = 0.18e-6 - 2 * mod.ld;
  const double beta = mod.kp * 1.8e-6 / leff;
  const double vov = vgs - mod.vt0;
  const double expect = 0.5 * beta * vov * vov * (1 + mod.lambda * vds);
  EXPECT_NEAR(e.ids, expect, expect * 1e-9);
  EXPECT_NEAR(e.gm, beta * vov * (1 + mod.lambda * vds), e.gm * 1e-9);
}

TEST(Mosfet, TriodeCurrentMatchesLevel1) {
  Circuit c;
  const auto m = make_nmos(c, 1.8e-6, 0.18e-6);
  const MosModel mod = builtin_model("nmos");
  const double vgs = 1.2, vds = 0.2;  // vds < vov
  const auto e = m.evaluate(vds, vgs, 0.0, 0.0);
  EXPECT_EQ(e.region, MosEval::Region::kTriode);
  const double leff = 0.18e-6 - 2 * mod.ld;
  const double beta = mod.kp * 1.8e-6 / leff;
  const double vov = vgs - mod.vt0;
  const double expect =
      beta * (vov * vds - 0.5 * vds * vds) * (1 + mod.lambda * vds);
  EXPECT_NEAR(e.ids, expect, expect * 1e-9);
}

TEST(Mosfet, BodyEffectRaisesThreshold) {
  Circuit c;
  const auto m = make_nmos(c);
  const auto e0 = m.evaluate(1.0, 1.0, 0.0, 0.0);
  // Source 0.5 V above bulk: vsb = 0.5 raises vth.
  const auto e1 = m.evaluate(1.5, 1.5, 0.5, 0.0);
  EXPECT_GT(e1.vth, e0.vth);
  EXPECT_LT(e1.ids, e0.ids);  // same vgs/vds but higher vth
}

TEST(Mosfet, SourceDrainSymmetry) {
  Circuit c;
  const auto m = make_nmos(c);
  const auto fwd = m.evaluate(0.1, 1.0, 0.0, 0.0);
  // Swap drain/source: current magnitude must match (bulk at the low side).
  const auto rev = m.evaluate(0.0, 1.0, 0.1, 0.0);
  EXPECT_NEAR(fwd.ids, rev.ids, std::abs(fwd.ids) * 0.05);
}

TEST(Mosfet, PmosPolarityMirrorsNmos) {
  Circuit c;
  Mosfet p("MP", c.node("d"), c.node("g"), c.node("s"), c.node("b"),
           builtin_model("pmos"), 1e-6, 0.18e-6);
  // Source at 1.8 V (as in a real PMOS), gate 0.9 V, drain 0.5 V.
  const auto e = p.evaluate(0.5, 0.9, 1.8, 1.8);
  EXPECT_EQ(e.region, MosEval::Region::kSaturation);
  EXPECT_GT(e.ids, 0.0);
  EXPECT_GT(e.gm, 0.0);
}

TEST(Mosfet, DiodeConnectedOp) {
  // Vdd -- R -- (d=g) M1 -- gnd: classic bias diode; check the OP current.
  Circuit c;
  const NodeId vdd = c.node("vdd"), n = c.node("n");
  c.add<VoltageSource>("V1", vdd, c.ground(), Waveform::dc(1.8));
  c.add<Resistor>("R1", vdd, n, 748e3);
  c.add<Mosfet>("M1", n, n, c.ground(), c.ground(), builtin_model("nmos"),
                0.36e-6, 0.18e-6);
  const auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  const double vn = c.voltage_in(r.x, n);
  EXPECT_GT(vn, 0.45);  // above vt0
  EXPECT_LT(vn, 0.75);
  const double i = (1.8 - vn) / 748e3;
  EXPECT_NEAR(i, 1.7e-6, 0.4e-6);  // the bias-network design current
}

TEST(Mosfet, InverterTransfersRailToRail) {
  Circuit c;
  const NodeId vdd = c.node("vdd"), in = c.node("in"), out = c.node("out");
  c.add<VoltageSource>("Vdd", vdd, c.ground(), Waveform::dc(1.8));
  auto& vin = c.add<VoltageSource>("Vin", in, c.ground(), Waveform::dc(0.0));
  c.add<Mosfet>("MN", out, in, c.ground(), c.ground(), builtin_model("nmos"),
                0.36e-6, 0.18e-6);
  c.add<Mosfet>("MP", out, in, vdd, vdd, builtin_model("pmos"), 0.72e-6,
                0.18e-6);
  auto r = solve_op(c);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(c.voltage_in(r.x, out), 1.75);  // input low -> output high
  vin.set_override(1.8);
  r = solve_op(c);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(c.voltage_in(r.x, out), 0.05);  // input high -> output low
}

TEST(Mosfet, OutputCharacteristicMonotoneAndFlatInSaturation) {
  // NMOS output characteristic at fixed vgs, traced as a chain of warm-
  // started operating points: the drain current (sensed across a 1 ohm
  // source resistor) must rise monotonically with vds and flatten in
  // saturation.
  Circuit c;
  const NodeId d = c.node("d"), g = c.node("g"), s = c.node("s");
  c.add<VoltageSource>("Vg", g, c.ground(), Waveform::dc(1.0));
  auto& vd = c.add<VoltageSource>("Vd", d, c.ground(), Waveform::dc(0.0));
  c.add<Resistor>("Rs", s, c.ground(), 1.0);
  c.add<Mosfet>("M1", d, g, s, c.ground(), builtin_model("nmos"), 2e-6,
                0.18e-6);
  const int steps = 14;
  OpOptions opts;
  std::vector<double> id;
  for (int i = 0; i <= steps; ++i) {
    vd.set_override(0.05 + (1.8 - 0.05) * i / steps);
    const auto r = solve_op(c, opts);
    ASSERT_TRUE(r.converged) << "vds point " << i;
    id.push_back(c.voltage_in(r.x, s));
    opts.initial_guess = r.x;
  }
  for (std::size_t i = 1; i < id.size(); ++i)
    EXPECT_GE(id[i], id[i - 1] - 1e-9) << "vds point " << i;
  EXPECT_NEAR(id.back(), id[id.size() - 2], 0.05 * id.back());
}

// Parameterized region sweep: for a grid of (vgs, vds) the reported region
// must satisfy the Level-1 region inequalities and gm/gds must be
// consistent with finite differences of ids.
struct BiasPoint {
  double vgs, vds;
};

class MosfetRegionSweep : public ::testing::TestWithParam<BiasPoint> {};

TEST_P(MosfetRegionSweep, DerivativesMatchFiniteDifference) {
  Circuit c;
  const auto m = make_nmos(c, 2e-6, 0.18e-6);
  const auto [vgs, vds] = GetParam();
  const auto e = m.evaluate(vds, vgs, 0.0, 0.0);
  const double h = 1e-6;
  const auto eg = m.evaluate(vds, vgs + h, 0.0, 0.0);
  const auto ed = m.evaluate(vds + h, vgs, 0.0, 0.0);
  EXPECT_NEAR(e.gm, (eg.ids - e.ids) / h, std::max(1e-9, e.gm * 1e-3));
  EXPECT_NEAR(e.gds, (ed.ids - e.ids) / h, std::max(1e-9, e.gds * 1e-3));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MosfetRegionSweep,
    ::testing::Values(BiasPoint{0.6, 0.05}, BiasPoint{0.6, 0.5},
                      BiasPoint{0.6, 1.5}, BiasPoint{0.9, 0.1},
                      BiasPoint{0.9, 0.9}, BiasPoint{1.2, 0.3},
                      BiasPoint{1.2, 1.7}, BiasPoint{1.8, 0.6}));

}  // namespace
