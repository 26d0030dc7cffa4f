// Tests for the fast-path transient engine: structure-locked MNA workspace
// and device footprints, factorization reuse (pivot reuse + chord
// iterations), the linear single-factorization path, exact session
// checkpoints, and the step() input checks and Newton failure diagnostics.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/devices.hpp"
#include "spice/engine_counters.hpp"
#include "spice/itd_builder.hpp"
#include "spice/mosfet.hpp"
#include "spice/transient.hpp"

namespace {

using namespace uwbams;
using spice::Capacitor;
using spice::Circuit;
using spice::Inductor;
using spice::Resistor;
using spice::TransientOptions;
using spice::TransientSession;
using spice::VoltageSource;
using spice::Waveform;

// Simple RC lowpass: 1 kOhm / 1 pF (tau = 1 ns) driven by a 1 V step-ish
// pulse.
Circuit make_rc() {
  Circuit ckt;
  const int in = ckt.node("in");
  const int out = ckt.node("out");
  ckt.add<Resistor>("r1", in, out, 1e3);
  ckt.add<Capacitor>("c1", out, 0, 1e-12);
  ckt.add<VoltageSource>(
      "vin", in, 0,
      Waveform::pulse(0.0, 1.0, 1e-9, 0.05e-9, 0.05e-9, 100e-9, 200e-9));
  return ckt;
}

// A small nonlinear circuit: common-source NMOS with resistive load.
Circuit make_mos_amp() {
  Circuit ckt;
  const int vdd = ckt.node("vdd");
  const int drain = ckt.node("d");
  const int gate = ckt.node("g");
  ckt.add<VoltageSource>("vdd", vdd, 0, Waveform::dc(1.8));
  ckt.add<VoltageSource>("vg", gate, 0, Waveform::dc(0.9));
  ckt.add<Resistor>("rl", vdd, drain, 20e3);
  ckt.add<Capacitor>("cl", drain, 0, 50e-15);
  ckt.add<spice::Mosfet>("m1", drain, gate, 0, 0, spice::builtin_model("nmos"),
                         1e-6, 0.18e-6);
  return ckt;
}

TEST(FastPath, LinearCircuitUsesSingleFactorization) {
  Circuit ckt = make_rc();
  TransientSession s(ckt, {});
  ASSERT_TRUE(ckt.linear());
  for (int i = 0; i < 200; ++i) s.step(0.1e-9);
  // One factorization for the whole fixed-step transient, zero Newton
  // iterations beyond the single exact solve per step.
  EXPECT_EQ(s.stats().factorizations, 1u);
  EXPECT_EQ(s.stats().refactorizations, 0u);
  EXPECT_EQ(s.stats().newton_iterations, 200u);
  // Physics check: the cap charges toward 1 V with tau = 1 ns. After 19 ns
  // past the 1 ns delay, v_out ~ 1 - e^-19.
  EXPECT_NEAR(s.v("out"), 1.0, 1e-4);
}

TEST(FastPath, LinearCircuitRefactorsOnDtChange) {
  Circuit ckt = make_rc();
  TransientSession s(ckt, {});
  s.step(0.1e-9);
  s.step(0.1e-9);
  EXPECT_EQ(s.stats().factorizations, 1u);
  EXPECT_EQ(s.stats().refactorizations, 0u);
  // dt change -> companion conductances rescale -> pivot-order-reusing
  // refactor, not a fresh factorization.
  s.step(0.05e-9);
  EXPECT_EQ(s.stats().factorizations, 1u);
  EXPECT_EQ(s.stats().refactorizations, 1u);
  s.step(0.05e-9);  // cached again
  EXPECT_EQ(s.stats().refactorizations, 1u);
}

// Steps one circuit through the chord fast path (defaults: lazy Jacobian +
// pivot reuse) and through the classic per-iteration full-Newton engine in
// lockstep. `drive(session, i)` sets a session's sources for step i;
// `probe(session)` must agree to `tol` at every committed step, and the
// fast path must actually have reused factorizations.
template <class Build, class Drive, class Probe>
void expect_fast_matches_classic(Build build, Drive drive, Probe probe,
                                 int steps, double dt, double tol) {
  Circuit fast_ckt = build();
  Circuit classic_ckt = build();
  TransientOptions classic;
  classic.lazy_jacobian = false;
  classic.reuse_factorization = false;
  TransientSession fast_s(fast_ckt, {});
  TransientSession classic_s(classic_ckt, classic);
  for (int i = 0; i < steps; ++i) {
    drive(fast_s, i);
    drive(classic_s, i);
    fast_s.step(dt);
    classic_s.step(dt);
    ASSERT_NEAR(probe(fast_s), probe(classic_s), tol)
        << "diverged at step " << i;
  }
  EXPECT_LT(fast_s.stats().factorizations + fast_s.stats().refactorizations,
            classic_s.stats().factorizations / 2);
}

TEST(FastPath, ChordMatchesClassicNewtonWaveform) {
  // A common-source amplifier under a noisy sinusoidal gate drive.
  std::vector<double> vg(500);
  std::mt19937_64 rng(42);
  std::normal_distribution<double> noise(0.0, 0.02);
  for (std::size_t i = 0; i < vg.size(); ++i)
    vg[i] = 0.9 + 0.2 * std::sin(2e9 * 6.28 * 0.05e-9 * i) + noise(rng);
  expect_fast_matches_classic(
      [] { return make_mos_amp(); },
      [&](TransientSession& s, int i) {
        s.source("vg").set_override(vg[static_cast<std::size_t>(i)]);
      },
      [](const TransientSession& s) { return s.v("d"); }, 500, 0.05e-9,
      5e-4);
}

TEST(FastPath, ItdChordMatchesClassicNewtonWaveform) {
  // The 31-MOSFET integrate-and-dump testbench under the receiver's control
  // cycle (integrate, dump every 300 steps) and a seeded noisy
  // differential input: the embedded-netlist inner loop of fig6_ber.
  std::vector<double> u(3000);
  std::mt19937_64 rng(1);
  std::normal_distribution<double> noise(0.0, 0.01);
  for (double& x : u) x = noise(rng);
  spice::ItdTerminals t;
  expect_fast_matches_classic(
      [&] {
        Circuit ckt;
        t = spice::build_itd_testbench(ckt, {}).t;
        return ckt;
      },
      [&](TransientSession& s, int i) {
        const double x = u[static_cast<std::size_t>(i)];
        s.source("vinp").set_override(0.9 + 0.5 * x);
        s.source("vinm").set_override(0.9 - 0.5 * x);
        if (i == 0) s.source("vctrlp").set_override(1.8);
        if (i % 300 == 250)
          s.source("vctrlm").set_override(1.8);  // dump
        else if (i % 300 == 0)
          s.source("vctrlm").set_override(0.0);  // integrate
      },
      [&](const TransientSession& s) {
        return s.v(t.out_intp) - s.v(t.out_intm);
      },
      // The differential output swings a few mV; 50 uV is ~1% of that.
      static_cast<int>(u.size()), 0.2e-9, 5e-5);
}

TEST(FastPath, ReusedPivotMatchesFreshLuClosely) {
  // reuse_factorization only (no chord): identical iteration scheme to the
  // classic engine, so solutions agree to 1e-10 per step.
  Circuit a_ckt = make_mos_amp();
  Circuit b_ckt = make_mos_amp();
  TransientOptions reuse;
  reuse.lazy_jacobian = false;
  reuse.reuse_factorization = true;
  TransientOptions fresh;
  fresh.lazy_jacobian = false;
  fresh.reuse_factorization = false;
  TransientSession sa(a_ckt, reuse);
  TransientSession sb(b_ckt, fresh);
  auto& va = sa.source("vg");
  auto& vb = sb.source("vg");
  for (int i = 0; i < 200; ++i) {
    const double vg = 0.9 + 0.3 * std::sin(1e9 * 6.28 * sa.time());
    va.set_override(vg);
    vb.set_override(vg);
    sa.step(0.05e-9);
    sb.step(0.05e-9);
    ASSERT_NEAR(sa.v("d"), sb.v("d"), 1e-10) << "diverged at step " << i;
  }
  EXPECT_GT(sa.stats().refactorizations, 0u);
  EXPECT_EQ(sb.stats().refactorizations, 0u);
}

TEST(FastPath, FootprintCoversEveryStampedEntry) {
  // Assemble a circuit containing every device type and check that all
  // nonzero matrix entries fall inside the declared footprint pattern, in
  // both OP and transient mode — the invariant the sparse reset and the
  // symbolic elimination rely on.
  Circuit ckt;
  const int n1 = ckt.node("n1"), n2 = ckt.node("n2"), n3 = ckt.node("n3"),
            n4 = ckt.node("n4");
  ckt.add<VoltageSource>("v1", n1, 0, Waveform::dc(1.0));
  ckt.add<Resistor>("r1", n1, n2, 1e3);
  ckt.add<Capacitor>("c1", n2, 0, 1e-12);
  ckt.add<spice::Inductor>("l1", n2, n3, 1e-9);
  ckt.add<spice::CurrentSource>("i1", n3, 0, Waveform::dc(1e-3));
  ckt.add<spice::Vcvs>("e1", n4, 0, n2, 0, 2.0);
  ckt.add<spice::Vccs>("g1", n3, 0, n4, 0, 1e-3);
  ckt.add<spice::Mosfet>("m1", n3, n2, 0, 0, spice::builtin_model("nmos"), 1e-6,
                         0.18e-6);
  ckt.prepare();
  const auto pattern = ckt.stamp_pattern();
  ASSERT_NE(pattern, nullptr);

  std::vector<double> x(ckt.unknown_count(), 0.3);
  for (const auto mode :
       {spice::AnalysisMode::kOp, spice::AnalysisMode::kTransient}) {
    spice::Mna<double> mna(ckt.unknown_count());
    spice::StampArgs args;
    args.mode = mode;
    args.method = spice::Integrator::kTrapezoidal;
    args.x = &x;
    args.t = 1e-9;
    args.dt = 0.1e-9;
    args.inv_dt = 1.0 / args.dt;
    args.gmin = 1e-12;
    for (const auto& dev : ckt.devices()) dev->stamp(mna, args);
    for (std::size_t r = 0; r < mna.size(); ++r)
      for (std::size_t c = 0; c < mna.size(); ++c)
        if (mna.matrix()(r, c) != 0.0) {
          EXPECT_TRUE(pattern->contains(static_cast<int>(r),
                                        static_cast<int>(c)))
              << "entry (" << r << "," << c << ") outside footprint";
        }
  }
}

TEST(FastPath, PatternLockedResetMatchesDenseClear) {
  Circuit ckt = make_mos_amp();
  ckt.prepare();
  std::vector<double> x(ckt.unknown_count(), 0.4);
  spice::StampArgs args;
  args.mode = spice::AnalysisMode::kTransient;
  args.x = &x;
  args.dt = 0.1e-9;
  args.inv_dt = 1.0 / args.dt;
  args.gmin = 1e-12;

  spice::Mna<double> dense(ckt.unknown_count());
  spice::Mna<double> locked(*ckt.stamp_pattern());
  for (int round = 0; round < 3; ++round) {
    dense.clear();
    locked.reset();
    for (const auto& dev : ckt.devices()) {
      dev->stamp(dense, args);
      dev->stamp(locked, args);
    }
    for (std::size_t r = 0; r < dense.size(); ++r) {
      EXPECT_DOUBLE_EQ(dense.rhs()[r], locked.rhs()[r]);
      for (std::size_t c = 0; c < dense.size(); ++c)
        EXPECT_DOUBLE_EQ(dense.matrix()(r, c), locked.matrix()(r, c));
    }
  }
}

TEST(FastPath, ResidualMatchesStampLinearization) {
  // F(x) computed by Device::residual must equal A(x)x - b(x) from the
  // device's stamp, for every device of the full ITD testbench.
  Circuit ckt;
  (void)spice::build_itd_testbench(ckt, {});
  TransientSession s(ckt, {});
  for (int i = 0; i < 20; ++i) s.step(0.2e-9);
  std::vector<double> x = s.solution();
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> d(-0.03, 0.03);
  for (auto& v : x) v += d(rng);
  spice::StampArgs args;
  args.mode = spice::AnalysisMode::kTransient;
  args.x = &x;
  args.t = s.time() + 0.2e-9;
  args.dt = 0.2e-9;
  args.inv_dt = 1.0 / args.dt;
  args.gmin = 1e-12;
  for (const auto& dev : ckt.devices()) {
    ASSERT_TRUE(dev->supports_residual()) << dev->name();
    spice::Mna<double> mna(ckt.unknown_count());
    dev->stamp(mna, args);
    const auto ax = mna.matrix().multiply(x);
    std::vector<double> f(ckt.unknown_count(), 0.0);
    dev->residual(f, args);
    for (std::size_t i = 0; i < f.size(); ++i)
      EXPECT_NEAR(f[i], ax[i] - mna.rhs()[i], 1e-9)
          << dev->name() << " row " << i;
  }
}

TEST(Diagnostics, StepRejectsNonFiniteAndNonPositiveDt) {
  // A bad dt is a caller error: it must throw before any Newton work, so
  // neither the clock nor the engine statistics (which feed the
  // process-wide counters) record a failed step.
  Circuit ckt = make_mos_amp();
  TransientSession s(ckt, {});
  for (int i = 0; i < 5; ++i) s.step(0.1e-9);
  const double t0 = s.time();
  const std::vector<double> x0 = s.solution();
  const spice::TransientStats st0 = s.stats();
  for (const double dt : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(), -0.0}) {
    EXPECT_THROW(s.step(dt), std::invalid_argument) << dt;
    EXPECT_EQ(s.time(), t0) << dt;
    EXPECT_EQ(s.solution(), x0) << dt;
    const auto& st = s.stats();
    EXPECT_EQ(st.steps, st0.steps) << dt;
    EXPECT_EQ(st.accepted_steps, st0.accepted_steps) << dt;
    EXPECT_EQ(st.rejected_steps, st0.rejected_steps) << dt;
    EXPECT_EQ(st.fallback_steps, st0.fallback_steps) << dt;
    EXPECT_EQ(st.newton_iterations, st0.newton_iterations) << dt;
    EXPECT_EQ(st.factorizations, st0.factorizations) << dt;
    EXPECT_EQ(st.refactorizations, st0.refactorizations) << dt;
    EXPECT_EQ(st.solves, st0.solves) << dt;
    EXPECT_EQ(st.singular_failures, st0.singular_failures) << dt;
    EXPECT_EQ(st.nonconverged_failures, st0.nonconverged_failures) << dt;
    EXPECT_EQ(st.last_failure, st0.last_failure) << dt;
  }
  // The session is still usable afterwards.
  s.step(0.1e-9);
  EXPECT_EQ(s.stats().steps, st0.steps + 1);
}

TEST(Diagnostics, NonconvergenceIsRecordedWithReason) {
  Circuit ckt = make_mos_amp();
  TransientOptions topts;
  topts.max_newton = 1;  // force Newton failures on any real movement
  topts.lazy_jacobian = false;
  TransientSession s(ckt, topts);
  auto& vg = s.source("vg");
  bool threw = false;
  try {
    for (int i = 0; i < 50; ++i) {
      vg.set_override(i % 2 ? 1.6 : 0.2);  // violent swings
      s.step(0.5e-9);
    }
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("Newton"), std::string::npos);
  }
  const auto& st = s.stats();
  // Whether or not the rescue ladder saved every step, the failure path
  // must have recorded diagnostics.
  if (st.nonconverged_failures > 0) {
    EXPECT_FALSE(st.last_failure.empty());
    EXPECT_NE(st.last_failure.find("did not converge"), std::string::npos);
    EXPECT_GT(st.last_failure_pivot_ratio, 0.0);
  }
  EXPECT_TRUE(threw || st.fallback_steps > 0 || st.nonconverged_failures == 0);
}

TEST(Diagnostics, EngineCountersAccumulateOnSessionDestruction) {
  const auto before = spice::engine_counters::snapshot();
  {
    Circuit ckt = make_rc();
    TransientSession s(ckt, {});
    for (int i = 0; i < 10; ++i) s.step(0.1e-9);
  }
  const auto after = spice::engine_counters::snapshot();
  EXPECT_EQ(after.sessions, before.sessions + 1);
  EXPECT_EQ(after.steps, before.steps + 10);
  EXPECT_GE(after.op_solves, before.op_solves + 1);
}

TEST(Diagnostics, ItdSessionStatsAreCoherent) {
  Circuit ckt;
  (void)spice::build_itd_testbench(ckt, {});
  TransientSession s(ckt, {});
  for (int i = 0; i < 500; ++i) s.step(0.2e-9);
  const auto& st = s.stats();
  EXPECT_EQ(st.steps, 500u);
  EXPECT_EQ(st.solves, st.newton_iterations);
  // The whole run must be served by a handful of fresh factorizations.
  EXPECT_LT(st.factorizations, 20u);
  EXPECT_GT(st.newton_iterations, 0u);
  EXPECT_EQ(st.singular_failures, 0u);
}

// ---------------------------------------------------------------- Checkpoint

using Trace = std::vector<std::vector<double>>;

// The committed solution after every step until t_stop.
Trace record_until(TransientSession& s, double t_stop) {
  Trace out;
  while (s.time() < t_stop - 0.5 * s.options().dt) {
    s.step();
    out.push_back(s.solution());
  }
  return out;
}

// Bitwise, step by step: == would let -0.0 pass for +0.0.
void expect_bitwise_equal(const Trace& got, const Trace& want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what;
    ASSERT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          got[i].size() * sizeof(double)),
              0)
        << what << ": first difference at step " << i;
  }
}

// The characterization's use of a checkpoint on the I&D testbench: dump
// once, checkpoint, then drive A, restore, drive B, restore, drive A again.
// Every pass must match, step for step and bit for bit, a fresh session
// that ran the same dump and drive. Pass B also opens the integration
// switches (vctrlp) and pass A leaves them alone, so only a restored
// source override closes them again.
void expect_itd_checkpoint_exact(TransientOptions opts) {
  opts.dt = 0.2e-9;
  const double a = 0.05, b = 0.6;
  auto dump = [](TransientSession& s) {
    s.source("vctrlp").set_override(1.8);
    s.source("vctrlm").set_override(1.8);
    s.run_until(30e-9);
  };
  auto drive = [](TransientSession& s, double vdiff, bool open_switches) {
    if (open_switches) s.source("vctrlp").set_override(0.0);
    s.source("vctrlm").set_override(0.0);
    s.source("vinp").set_override(0.9 + 0.5 * vdiff);
    s.source("vinm").set_override(0.9 - 0.5 * vdiff);
    return record_until(s, 80e-9);
  };
  auto fresh = [&](double vdiff, bool open_switches) {
    Circuit ckt;
    (void)spice::build_itd_testbench(ckt, {});
    TransientSession s(ckt, opts);
    dump(s);
    return drive(s, vdiff, open_switches);
  };

  Circuit ckt;
  (void)spice::build_itd_testbench(ckt, {});
  TransientSession s(ckt, opts);
  dump(s);
  const auto cp = s.checkpoint();
  const double t_cp = s.time();
  const Trace a1 = drive(s, a, false);
  s.restore(cp);
  EXPECT_EQ(s.time(), t_cp);
  const Trace b1 = drive(s, b, true);
  s.restore(cp);
  const Trace a2 = drive(s, a, false);

  expect_bitwise_equal(a1, fresh(a, false), "A vs fresh dump + A");
  expect_bitwise_equal(b1, fresh(b, true), "B vs fresh dump + B");
  expect_bitwise_equal(a2, a1, "A after B vs first A");
  ASSERT_FALSE(a1.empty());
  EXPECT_NE(a1.back(), b1.back());  // the drives really differ
  // Stats count the work done, restores included: one dump + three drives.
  EXPECT_EQ(s.stats().steps, 150u + 3u * 250u);
}

TEST(Checkpoint, ItdRestoreIsExactDefaultEngine) {
  expect_itd_checkpoint_exact({});
}

TEST(Checkpoint, ItdRestoreIsExactStatEquivProfile) {
  TransientOptions opts;
  spice::apply_stat_equiv_profile(&opts);
  expect_itd_checkpoint_exact(opts);
}

// A series RLC driven through a source override: the linear path (one
// cached factorization per (dt, method)) and the inductor's history.
TEST(Checkpoint, RlcRestoreIsExact) {
  auto make_rlc = [] {
    Circuit ckt;
    const int in = ckt.node("in"), mid = ckt.node("mid"),
              out = ckt.node("out");
    ckt.add<VoltageSource>("vin", in, 0, Waveform::dc(0.0));
    ckt.add<Resistor>("r1", in, mid, 50.0);
    ckt.add<Inductor>("l1", mid, out, 10e-9);
    ckt.add<Capacitor>("c1", out, 0, 1e-12);
    return ckt;
  };
  auto warm = [](TransientSession& s) {
    s.source("vin").set_override(1.0);
    s.run_until(2e-9);
  };
  auto drive = [](TransientSession& s, double v) {
    s.source("vin").set_override(v);
    return record_until(s, 6e-9);
  };
  TransientOptions opts;
  opts.dt = 0.02e-9;
  auto fresh = [&](double v) {
    Circuit ckt = make_rlc();
    TransientSession s(ckt, opts);
    warm(s);
    return drive(s, v);
  };

  Circuit ckt = make_rlc();
  TransientSession s(ckt, opts);
  ASSERT_TRUE(ckt.linear());
  warm(s);
  const auto cp = s.checkpoint();
  const Trace a1 = drive(s, 0.3);
  s.restore(cp);
  const Trace b1 = drive(s, -0.7);
  s.restore(cp);
  const Trace a2 = drive(s, 0.3);
  expect_bitwise_equal(a1, fresh(0.3), "A vs fresh warm-up + A");
  expect_bitwise_equal(b1, fresh(-0.7), "B vs fresh warm-up + B");
  expect_bitwise_equal(a2, a1, "A after B vs first A");
  EXPECT_NE(a1.back(), b1.back());
}

// Under the fused commit a MOSFET's next Meyer caps come from the region
// of its last evaluation, so that region is part of its saved state.
TEST(Checkpoint, MosfetStateCarriesTheFusedCommitRegion) {
  Circuit ckt = make_mos_amp();
  ckt.prepare();
  std::vector<double> x_off(ckt.unknown_count(), 0.0);
  std::vector<double> x_sat = x_off;
  x_sat[static_cast<std::size_t>(ckt.node_index(ckt.find_node("vdd")))] = 1.8;
  x_sat[static_cast<std::size_t>(ckt.node_index(ckt.find_node("d")))] = 1.2;
  x_sat[static_cast<std::size_t>(ckt.node_index(ckt.find_node("g")))] = 0.9;
  std::vector<double> f(ckt.unknown_count(), 0.0);
  spice::StampArgs args;
  args.mode = spice::AnalysisMode::kTransient;
  args.dt = 0.05e-9;
  args.inv_dt = 1.0 / args.dt;

  // State after init at x_off, one evaluation at `eval`, commit at x_off.
  auto committed = [&](const std::vector<double>& eval) {
    Circuit c = make_mos_amp();
    c.prepare();
    auto& m = dynamic_cast<spice::Mosfet&>(*c.find_device("m1"));
    m.set_fused_commit(true);
    m.init_state(x_off);
    args.x = &eval;
    m.residual(f, args);
    m.commit(x_off, args.dt, args.dt);
    std::vector<double> state;
    m.save_state(state);
    return state;
  };
  const auto want = committed(x_sat);
  ASSERT_NE(want, committed(x_off));  // the region decides the caps

  auto& m = dynamic_cast<spice::Mosfet&>(*ckt.find_device("m1"));
  m.set_fused_commit(true);
  m.init_state(x_off);
  args.x = &x_sat;
  m.residual(f, args);
  std::vector<double> saved;
  m.save_state(saved);
  args.x = &x_off;
  m.residual(f, args);  // a later evaluation moves the region on...
  EXPECT_EQ(m.load_state(saved.data()), saved.data() + saved.size());
  m.commit(x_off, args.dt, args.dt);  // ...and the restore brings it back
  std::vector<double> got;
  m.save_state(got);
  EXPECT_EQ(got, want);
}

TEST(Checkpoint, RestoreRejectsAnotherSessionsCheckpoint) {
  Circuit c1 = make_rc(), c2 = make_rc();
  TransientSession s1(c1, {}), s2(c2, {});
  const auto cp = s1.checkpoint();
  EXPECT_THROW(s2.restore(cp), std::invalid_argument);
}

}  // namespace
