// Phase-I cross-validation: the independent reference detector must agree
// with theory, and the full AMS chain must agree with the reference — the
// paper's "BER curves perfectly overlapped the Matlab ones" check.
#include <gtest/gtest.h>

#include "core/block_variant.hpp"
#include "reference_rx.hpp"
#include "uwb/ber.hpp"

namespace {

using namespace uwbams;
using namespace uwbams::uwb;

TEST(ReferenceRx, ErrorFreeAtHighSnr) {
  SystemConfig sys;
  sys.dt = 0.2e-9;
  const auto r = reference_ber(sys, 24.0, 300, 1);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.bits, 300u);
}

TEST(ReferenceRx, MonotoneInSnr) {
  SystemConfig sys;
  sys.dt = 0.2e-9;
  const auto lo = reference_ber(sys, 2.0, 1500, 2);
  const auto mid = reference_ber(sys, 8.0, 1500, 2);
  const auto hi = reference_ber(sys, 14.0, 1500, 2);
  EXPECT_GT(lo.ber(), mid.ber());
  EXPECT_GT(mid.ber(), hi.ber());
}

TEST(ReferenceRx, TracksTheoryWhenBandlimited) {
  // With the reference bandlimited like the chain's VGA, its BER must land
  // near the chi-square Gaussian approximation.
  SystemConfig sys;
  sys.dt = 0.2e-9;
  const double tw = receiver_tw_product(sys);
  for (double ebn0 : {6.0, 10.0}) {
    const auto r = reference_ber(sys, ebn0, 4000, 3, sys.vga_bandwidth);
    const double th = energy_detection_ber_theory(ebn0, tw);
    EXPECT_GT(r.ber(), th / 2.5) << ebn0;
    EXPECT_LT(r.ber(), th * 2.5) << ebn0;
  }
}

TEST(ReferenceRx, PhaseOneCrossValidation) {
  // The paper's Phase-I claim, at reproduction scale: the AMS-chain BER and
  // the reference BER overlap within Monte-Carlo confidence.
  BerConfig cfg;
  cfg.sys.dt = 0.2e-9;
  cfg.sys.multipath = false;
  cfg.sys.distance = 1.0;
  cfg.sys.preamble_symbols = 0;
  cfg.ebn0_db = {8.0};
  cfg.max_bits = 3000;
  cfg.min_errors = 60;
  const auto chain = run_ber_sweep(
      cfg,
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys))[0];
  const auto ref = reference_ber(cfg.sys, 8.0, 4000, 11, cfg.sys.vga_bandwidth);
  // Same detector physics: agreement within ~2x (front-end saturation and
  // quantization differ slightly).
  EXPECT_GT(chain.ber, ref.ber() / 2.0);
  EXPECT_LT(chain.ber, ref.ber() * 2.0);
}

TEST(ReferenceRx, Reproducible) {
  SystemConfig sys;
  sys.dt = 0.2e-9;
  const auto a = reference_ber(sys, 6.0, 500, 9);
  const auto b = reference_ber(sys, 6.0, 500, 9);
  EXPECT_EQ(a.errors, b.errors);
}

}  // namespace
