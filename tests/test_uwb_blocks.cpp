// Tests for the UWB building blocks: pulses, packets, transmitter, channel,
// front end, ADC/DAC, demodulator, NE/PS, AGC.
#include <gtest/gtest.h>

#include <cmath>

#include "base/random.hpp"
#include "base/stats.hpp"
#include "base/units.hpp"
#include "uwb/adc.hpp"
#include "uwb/agc.hpp"
#include "uwb/channel.hpp"
#include "uwb/demodulator.hpp"
#include "uwb/frontend.hpp"
#include "uwb/packet.hpp"
#include "uwb/preamble_sense.hpp"
#include "uwb/pulse.hpp"
#include "uwb/transmitter.hpp"

namespace {

using namespace uwbams;
using namespace uwbams::uwb;

// Advances a block by one sample at time t, as Kernel::step() does; its
// plain-double input is then read at element 0 only.
void step_one(ams::AnalogBlock& block, double t, double dt) {
  block.step_block(&t, dt, 1);
}

TEST(Pulse, PeakEqualsAmplitude) {
  const GaussianMonocycle p(2, 0.7e-9, 0.5);
  EXPECT_NEAR(p.value(0.0), 0.5, 1e-12);
  // Order-1 peak at t = sigma.
  const GaussianMonocycle p1(1, 0.7e-9, 0.5);
  EXPECT_NEAR(p1.value(0.7e-9), 0.5, 1e-9);
}

TEST(Pulse, EnergyClosedFormMatchesNumeric) {
  for (int order : {1, 2}) {
    const GaussianMonocycle p(order, 0.7e-9, 0.3);
    const double dt = 1e-12;
    double e_num = 0.0;
    for (double t = -6e-9; t <= 6e-9; t += dt) e_num += p.value(t) * p.value(t) * dt;
    EXPECT_NEAR(p.energy(), e_num, p.energy() * 1e-3) << "order=" << order;
  }
}

TEST(Pulse, InvalidParamsThrow) {
  EXPECT_THROW(GaussianMonocycle(3, 1e-9, 1.0), std::invalid_argument);
  EXPECT_THROW(GaussianMonocycle(2, -1e-9, 1.0), std::invalid_argument);
}

TEST(Packet, SlotAssignment) {
  Packet p;
  p.preamble_symbols = 3;
  p.payload = {true, false, true};
  EXPECT_EQ(p.total_symbols(), 6);
  EXPECT_EQ(p.slot_of_symbol(0), 0);  // preamble in slot 0
  EXPECT_EQ(p.slot_of_symbol(2), 0);
  EXPECT_EQ(p.slot_of_symbol(3), 1);  // payload bit 1
  EXPECT_EQ(p.slot_of_symbol(4), 0);
  EXPECT_EQ(p.slot_of_symbol(5), 1);
  EXPECT_THROW(p.slot_of_symbol(6), std::out_of_range);
  EXPECT_NEAR(p.duration(128e-9), 6 * 128e-9, 1e-15);
}

TEST(Transmitter, PlacesBurstInCorrectSlot) {
  SystemConfig sys;
  sys.dt = 0.1e-9;
  Transmitter tx(sys);
  Packet p;
  p.preamble_symbols = 0;
  p.payload = {false, true};
  tx.send(p, 0.0);

  double e_sym0_slot0 = 0, e_sym0_slot1 = 0, e_sym1_slot0 = 0, e_sym1_slot1 = 0;
  for (double t = 0; t < 2 * sys.symbol_period; t += sys.dt) {
    step_one(tx, t, sys.dt);
    const double e = (*tx.out()) * (*tx.out()) * sys.dt;
    const int sym = static_cast<int>(t / sys.symbol_period);
    const bool slot1 = std::fmod(t, sys.symbol_period) >= sys.slot_period();
    if (sym == 0) (slot1 ? e_sym0_slot1 : e_sym0_slot0) += e;
    else (slot1 ? e_sym1_slot1 : e_sym1_slot0) += e;
  }
  EXPECT_GT(e_sym0_slot0, 100 * e_sym0_slot1);  // bit 0 -> slot 0
  EXPECT_GT(e_sym1_slot1, 100 * e_sym1_slot0);  // bit 1 -> slot 1
  // Burst energy ~ Np * single pulse energy; overlapping alternating-sign
  // tails add constructively, so allow up to ~60% excess.
  const GaussianMonocycle pulse(2, sys.pulse_sigma, sys.pulse_amplitude);
  const double e1 = sys.pulses_per_symbol * pulse.energy();
  EXPECT_GT(e_sym0_slot0, 0.8 * e1);
  EXPECT_LT(e_sym0_slot0, 1.7 * e1);
}

TEST(Transmitter, FirstPulseTimeAndBusy) {
  SystemConfig sys;
  Transmitter tx(sys);
  EXPECT_THROW(tx.first_pulse_time(), std::logic_error);
  Packet p;
  p.preamble_symbols = 2;
  tx.send(p, 1e-6);
  EXPECT_NEAR(tx.first_pulse_time(), 1e-6 + tx.pulse_offset_in_slot(), 1e-15);
  EXPECT_TRUE(tx.busy(1.1e-6));
  EXPECT_FALSE(tx.busy(2e-6));
}

TEST(Channel, PathLossLaw) {
  EXPECT_NEAR(path_loss_db(1.0, 43.9, 1.79), 43.9, 1e-12);
  EXPECT_NEAR(path_loss_db(10.0, 43.9, 1.79), 43.9 + 17.9, 1e-9);
  EXPECT_THROW(path_loss_db(0.0, 43.9, 1.79), std::invalid_argument);
  // Monotone in distance.
  double prev = 0.0;
  for (double d : {1.0, 2.0, 5.0, 9.9, 20.0}) {
    const double pl = path_loss_db(d, 43.9, 1.79);
    EXPECT_GT(pl, prev);
    prev = pl;
  }
}

TEST(Channel, Cm1RealizationsAreUnitEnergySorted) {
  base::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto cr = generate_cm1(rng);
    EXPECT_NEAR(cr.total_energy(), 1.0, 1e-9);
    EXPECT_EQ(cr.taps.front().delay, 0.0);  // first path defines zero delay
    for (std::size_t k = 1; k < cr.taps.size(); ++k)
      EXPECT_GE(cr.taps[k].delay, cr.taps[k - 1].delay);
    EXPECT_LE(cr.taps.size(), 64u);
  }
}

TEST(Channel, Cm1DelaySpreadInPlausibleRange) {
  // CM1 residential LOS: RMS delay spread ~ 10-25 ns on average.
  base::Rng rng(11);
  base::RunningStats st;
  for (int i = 0; i < 200; ++i) st.add(generate_cm1(rng).rms_delay_spread());
  EXPECT_GT(st.mean(), 5e-9);
  EXPECT_LT(st.mean(), 30e-9);
}

TEST(Channel, RebuildMidRunDiscardsHistoryAndCountsIt) {
  // Contract regression (see ChannelBlock header): set_distance() /
  // set_realization() / set_awgn_only() rebuild the sampled delay line and
  // clear propagation history. Rebuilding while a waveform is still in
  // flight drops it — the guard counter must record exactly that case, and
  // the line must come back consistent (write position reset, silence out).
  SystemConfig sys;
  sys.dt = 0.1e-9;
  sys.distance = 3.0;
  double input = 0.0;
  ChannelBlock chan(sys, &input);
  chan.set_awgn_only(0.5);
  chan.set_noise_psd(0.0);
  EXPECT_EQ(chan.history_discards(), 0u);  // drained-line rebuilds are free

  // Put an impulse in flight, then rebuild mid-propagation.
  input = 1.0;
  step_one(chan, 0.0, sys.dt);
  input = 0.0;
  step_one(chan, sys.dt, sys.dt);
  chan.set_distance(6.0);  // mid-run: the in-flight impulse is dropped
  EXPECT_EQ(chan.history_discards(), 1u);

  // The dropped impulse must never emerge; the line is silent and usable.
  const int prop_samples = static_cast<int>(
      std::round(6.0 / units::speed_of_light / sys.dt)) + 4;
  for (int i = 0; i < prop_samples; ++i) {
    step_one(chan, i * sys.dt, sys.dt);
    ASSERT_EQ(*chan.out(), 0.0) << "stale history leaked at sample " << i;
  }

  // A fresh impulse propagates with the new distance exactly.
  input = 1.0;
  step_one(chan, 0.0, sys.dt);
  input = 0.0;
  const int d = static_cast<int>(
      std::round(6.0 / units::speed_of_light / sys.dt));
  double out_at_delay = -1.0;
  for (int i = 1; i <= d + 2; ++i) {
    step_one(chan, i * sys.dt, sys.dt);
    if (i == d) out_at_delay = *chan.out();
  }
  EXPECT_NEAR(out_at_delay, 0.5, 1e-12);

  // Between-packet rebuild on the drained line: no further discards.
  chan.set_distance(3.0);
  EXPECT_EQ(chan.history_discards(), 1u);
}

TEST(Channel, BlockDelaysAndScales) {
  SystemConfig sys;
  sys.dt = 0.1e-9;
  sys.distance = 3.0;  // 10 ns propagation
  double input = 0.0;
  ChannelBlock chan(sys, &input);
  chan.set_awgn_only(0.5);
  chan.set_noise_psd(0.0);
  // Impulse at the first step.
  input = 1.0;
  step_one(chan, 0.0, sys.dt);
  input = 0.0;
  const int prop_samples = static_cast<int>(
      std::round(sys.distance / units::speed_of_light / sys.dt));
  double out_at_delay = 0.0;
  for (int i = 1; i <= prop_samples + 2; ++i) {
    step_one(chan, i * sys.dt, sys.dt);
    if (i == prop_samples) out_at_delay = *chan.out();
  }
  EXPECT_NEAR(out_at_delay, 0.5, 1e-12);
}

TEST(Channel, NoiseVarianceMatchesPsd) {
  SystemConfig sys;
  sys.dt = 0.1e-9;
  double input = 0.0;
  ChannelBlock chan(sys, &input);
  chan.set_awgn_only(1.0);
  const double n0 = 4e-18;
  chan.set_noise_psd(n0);
  base::RunningStats st;
  for (int i = 0; i < 200000; ++i) {
    step_one(chan, i * sys.dt, sys.dt);
    st.add(*chan.out());
  }
  EXPECT_NEAR(st.variance(), 0.5 * n0 * sys.sample_rate(),
              0.02 * 0.5 * n0 * sys.sample_rate());
}

TEST(Amplifier, GainAndSaturation) {
  double in = 0.01;
  Amplifier amp(&in, 20.0, 0.5);  // 10x, clamp 0.5
  step_one(amp, 0, 1e-9);
  EXPECT_NEAR(*amp.out(), 0.1, 1e-12);
  in = 0.2;
  step_one(amp, 0, 1e-9);
  EXPECT_NEAR(*amp.out(), 0.5, 1e-12);  // clamped
  in = -0.2;
  step_one(amp, 0, 1e-9);
  EXPECT_NEAR(*amp.out(), -0.5, 1e-12);
  amp.set_gain_db(0.0);
  in = 0.3;
  step_one(amp, 0, 1e-9);
  EXPECT_NEAR(*amp.out(), 0.3, 1e-12);
}

TEST(Amplifier, BandwidthLimitsStepResponse) {
  double in = 0.0;
  Amplifier amp(&in, 0.0, 10.0, 100e6);  // 100 MHz pole
  in = 1.0;
  const double dt = 0.1e-9;
  double t = 0.0;
  for (int i = 0; i < 16; ++i) {
    step_one(amp, t, dt);
    t += dt;
  }
  const double tau = 1.0 / (2 * units::pi * 100e6);
  EXPECT_NEAR(*amp.out(), 1.0 - std::exp(-t / tau), 0.02);
}

TEST(Squarer, SquaresInput) {
  double in = -0.3;
  Squarer sq(&in, 2.0);
  step_one(sq, 0, 1e-9);
  EXPECT_NEAR(*sq.out(), 2.0 * 0.09, 1e-12);
  EXPECT_GE(*sq.out(), 0.0);
}

TEST(Adc, QuantizationAndSaturation) {
  const Adc adc(5, 0.0, 0.5);
  EXPECT_EQ(adc.max_code(), 31);
  EXPECT_EQ(adc.quantize(-1.0), 0);
  EXPECT_EQ(adc.quantize(0.0), 0);
  EXPECT_EQ(adc.quantize(0.5), 31);
  EXPECT_EQ(adc.quantize(99.0), 31);
  EXPECT_NEAR(adc.code_to_voltage(adc.quantize(0.25)), 0.25, adc.lsb());
  EXPECT_THROW(Adc(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(Adc(5, 1, 0), std::invalid_argument);
}

// Property: quantization is monotone and within half an LSB over a sweep of
// resolutions.
class AdcResolution : public ::testing::TestWithParam<int> {};

TEST_P(AdcResolution, MonotoneAndTight) {
  const Adc adc(GetParam(), 0.0, 1.6);
  int prev = -1;
  for (double v = 0.0; v <= 1.6; v += 0.01) {
    const int code = adc.quantize(v);
    EXPECT_GE(code, prev);
    prev = code;
    EXPECT_NEAR(adc.code_to_voltage(code), v, 0.5 * adc.lsb() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, AdcResolution, ::testing::Values(3, 4, 5, 6, 8, 10));

TEST(Dac, CodesAndNearest) {
  const Dac dac(6, 0.0, 40.0);
  EXPECT_EQ(dac.max_code(), 63);
  EXPECT_NEAR(dac.value(0), 0.0, 1e-12);
  EXPECT_NEAR(dac.value(63), 40.0, 1e-12);
  EXPECT_EQ(dac.nearest_code(dac.value(17)), 17);
  EXPECT_EQ(dac.nearest_code(-5.0), 0);
  EXPECT_EQ(dac.nearest_code(99.0), 63);
}

TEST(Demodulator, DecisionAndCounting) {
  PpmDemodulator d;
  EXPECT_FALSE(d.decide(10, 3));  // slot 0 stronger -> bit 0
  EXPECT_TRUE(d.decide(3, 10));   // slot 1 stronger -> bit 1
  d.record(true, true);
  d.record(true, false);
  EXPECT_EQ(d.ber().bits(), 2u);
  EXPECT_EQ(d.ber().errors(), 1u);
}

TEST(Demodulator, TieBreakIsBalanced) {
  PpmDemodulator d;
  int ones = 0;
  for (int i = 0; i < 2000; ++i)
    if (d.decide(5, 5)) ++ones;
  EXPECT_GT(ones, 700);
  EXPECT_LT(ones, 1300);
}

TEST(NoiseEstimatorAndSense, DetectsAlternatingPreamble) {
  NoiseEstimator ne(8);
  for (int i = 0; i < 8; ++i) ne.add(i % 2);  // codes 0/1 noise
  ASSERT_TRUE(ne.done());
  PreambleSense ps(ne, 4.0, 2);
  // Preamble energy arrives in alternating windows (slot 0 only).
  EXPECT_FALSE(ps.add(9));
  EXPECT_FALSE(ps.add(0));
  EXPECT_TRUE(ps.add(9));  // 2 hits within the last 4 windows
  EXPECT_TRUE(ps.detected());
}

TEST(NoiseEstimatorAndSense, IgnoresIsolatedSpike) {
  NoiseEstimator ne(8);
  for (int i = 0; i < 8; ++i) ne.add(0);
  PreambleSense ps(ne, 4.0, 2);
  EXPECT_FALSE(ps.add(9));  // one spike
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(ps.add(0));
  EXPECT_FALSE(ps.detected());
}

TEST(Agc, ConvergesTowardTarget) {
  double in = 0.01;
  Amplifier vga(&in, 20.0, 10.0);
  AgcConfig cfg;
  cfg.target_code = 24;
  cfg.adc_max_code = 31;
  AgcController agc(vga, cfg);
  // Simulated plant: peak code proportional to gain^2 (energy domain).
  auto code_for_gain = [](double gain_db) {
    return static_cast<int>(
        std::min(31.0, 24.0 * units::db_to_pow(gain_db - 26.0)));
  };
  for (int i = 0; i < 8; ++i) agc.update(code_for_gain(agc.gain_db()));
  EXPECT_NEAR(agc.gain_db(), 26.0, 1.5);  // lands near the solving gain
}

TEST(Agc, BacksOffWhenSaturated) {
  double in = 0.01;
  Amplifier vga(&in, 40.0, 10.0);
  AgcConfig cfg;
  AgcController agc(vga, cfg);
  const double g0 = agc.gain_db();
  agc.update(cfg.adc_max_code);  // saturated reading
  EXPECT_LT(agc.gain_db(), g0);
}

}  // namespace
