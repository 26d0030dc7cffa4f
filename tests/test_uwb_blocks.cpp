// Tests for the UWB building blocks: pulses, packets, transmitter, channel,
// front end, ADC/DAC, demodulator, NE/PS, AGC.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

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

  // A jittered, offset clock: busy() is the packet on the local clock with
  // the start-edge jitter applied, as the waveform is, and every nonzero
  // sample lies in it.
  sys.clock.ppm = 40.0;
  sys.clock.jitter_rms = 2e-9;
  sys.clock.node_id = 3;
  sys.dt = 0.1e-9;
  Transmitter jtx(sys);
  jtx.send(p, 1e-6);
  const double jitter = jtx.clock().jitter_at(1e-6);
  ASSERT_GT(std::abs(jitter), 0.5e-9);  // large enough to matter
  const auto at_local = [&](double rel) {
    return jtx.clock().true_time(1e-6 + jitter + rel);
  };
  const double end = p.duration(sys.symbol_period);
  EXPECT_FALSE(jtx.busy(at_local(-0.2e-9)));
  EXPECT_TRUE(jtx.busy(at_local(0.2e-9)));
  EXPECT_TRUE(jtx.busy(at_local(end - 0.2e-9)));
  EXPECT_FALSE(jtx.busy(at_local(end + 0.2e-9)));
  for (double t = 0.9e-6; t < 1.4e-6; t += sys.dt) {
    step_one(jtx, t, sys.dt);
    if (*jtx.out() != 0.0) {
      ASSERT_TRUE(jtx.busy(t)) << "on air outside busy() at t=" << t;
    }
  }
}

// The per-sample waveform with no pulse range: every pulse
// of the sample's symbol tested against its |t_rel| <= half support.
double full_burst_scan(const SystemConfig& sys, const Transmitter& tx,
                       const Packet& p, double t_start, double t) {
  const GaussianMonocycle pulse(2, sys.pulse_sigma, sys.pulse_amplitude);
  const double rel = tx.clock().local_time(t) - t_start -
                     tx.clock().jitter_at(t_start);
  if (rel < 0.0) return 0.0;
  const int sym = static_cast<int>(rel / sys.symbol_period);
  if (sym >= p.total_symbols()) return 0.0;
  const double first_center = sym * sys.symbol_period +
                              p.slot_of_symbol(sym) * sys.slot_period() +
                              tx.pulse_offset_in_slot();
  double acc = 0.0;
  for (int j = 0; j < sys.pulses_per_symbol; ++j) {
    const double t_rel = rel - (first_center + j * sys.pulse_spacing);
    if (std::abs(t_rel) <= pulse.half_duration())
      acc += ((j & 1) != 0 ? -1.0 : 1.0) * pulse.value(t_rel);
  }
  return acc;
}

// The restricted burst scan changes no sample: every sample of a
// multi-symbol packet, and the first and last pulse edges to the ulp, match
// the full burst scan bit for bit, for an identity clock and for +/-40 ppm
// clocks with jitter. The default pulse's leading edge lies before the
// packet (rel < 0 cuts it); a 0.3 ns pulse puts it inside the packet.
TEST(Transmitter, BurstScanMatchesFullScan) {
  for (const double sigma : {0.7e-9, 0.3e-9}) {
    SystemConfig base;
    base.dt = 0.1e-9;
    base.pulse_sigma = sigma;
    std::vector<ClockConfig> clocks(3);
    clocks[1].ppm = 40.0;
    clocks[1].jitter_rms = 50e-12;
    clocks[1].node_id = 1;
    clocks[2].ppm = -40.0;
    clocks[2].jitter_rms = 50e-12;
    clocks[2].offset = 3e-9;
    clocks[2].node_id = 2;
    Packet p;
    p.preamble_symbols = 3;
    p.sfd_symbols = 1;
    // The last symbol in slot 1, then in slot 0.
    for (const std::vector<bool>& payload :
         std::vector<std::vector<bool>>{{true, false, true}, {true, false}}) {
      p.payload = payload;
      for (const ClockConfig& clock : clocks) {
        SystemConfig sys = base;
        sys.clock = clock;
        Transmitter tx(sys);
        const double t_start = 2.5e-6;
        tx.send(p, t_start);
        const auto same = [&](double t) {
          step_one(tx, t, sys.dt);
          return std::bit_cast<std::uint64_t>(*tx.out()) ==
                 std::bit_cast<std::uint64_t>(
                     full_burst_scan(sys, tx, p, t_start, t));
        };
        int mismatches = 0;
        int nonzero = 0;
        const double end = t_start + p.duration(sys.symbol_period);
        for (double t = t_start - 20e-9; t < end + 20e-9; t += sys.dt) {
          mismatches += same(t) ? 0 : 1;
          step_one(tx, t, sys.dt);
          nonzero += *tx.out() != 0.0 ? 1 : 0;
        }
        // In kernel time, +/- a few ulps: the first pulse's leading edge
        // and the last pulse's trailing edge.
        const double half =
            GaussianMonocycle(2, sys.pulse_sigma, 1.0).half_duration();
        const double jitter = tx.clock().jitter_at(t_start);
        const int last = p.total_symbols() - 1;
        const double last_center =
            last * sys.symbol_period +
            p.slot_of_symbol(last) * sys.slot_period() +
            tx.pulse_offset_in_slot() +
            (sys.pulses_per_symbol - 1) * sys.pulse_spacing;
        for (const double rel : {tx.pulse_offset_in_slot() - half,
                                 last_center + half}) {
          double t = tx.clock().true_time(t_start + jitter + rel);
          for (int k = 0; k < 4; ++k) t = std::nextafter(t, 0.0);
          for (int k = 0; k < 9; ++k, t = std::nextafter(t, 1.0))
            mismatches += same(t) ? 0 : 1;
        }
        EXPECT_EQ(mismatches, 0) << "ppm " << clock.ppm << ", sigma " << sigma;
        EXPECT_GT(nonzero, 100);  // the packet is really on air
      }
    }
  }
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

// Reference for ChannelBlock's output: the plain tap loop with no silent
// skip. One ring of max-delay + 2 + kMaxBatch slots,
// each tap summed over the batch in tap order as at most two contiguous
// spans, then one scalar gaussian() per sample.
class ReferenceChannel {
 public:
  explicit ReferenceChannel(const SystemConfig& sys)
      : sys_(sys), rng_(sys.seed) {}

  void rebuild(const std::vector<ChannelTap>& taps, double scale,
               double distance) {
    sampled_.clear();
    int max_delay = 1;
    for (const auto& t : taps) {
      const int d = static_cast<int>(std::round(
          (distance / units::speed_of_light + t.delay) / sys_.dt));
      sampled_.push_back({d, t.gain * scale});
      max_delay = std::max(max_delay, d);
    }
    line_.assign(static_cast<std::size_t>(max_delay + 2) + ams::kMaxBatch,
                 0.0);
    write_pos_ = 0;
  }

  void step(const double* in, int n, double n0, double* out) {
    const std::size_t len = line_.size();
    std::size_t w = write_pos_;
    for (int i = 0; i < n; ++i) {
      line_[w] = (in != nullptr) ? in[i] : 0.0;
      if (++w == len) w = 0;
    }
    for (int i = 0; i < n; ++i) out[i] = 0.0;
    for (const auto& [delay, g] : sampled_) {
      const std::size_t idx =
          (write_pos_ + len - static_cast<std::size_t>(delay)) % len;
      const int head =
          static_cast<int>(std::min(static_cast<std::size_t>(n), len - idx));
      for (int i = 0; i < head; ++i) out[i] += g * line_[idx + i];
      for (int i = head; i < n; ++i) out[i] += g * line_[i - head];
    }
    if (n0 > 0.0) {
      const double s = std::sqrt(0.5 * n0 * sys_.sample_rate());
      for (int i = 0; i < n; ++i) out[i] += rng_.gaussian() * s;
    }
    write_pos_ = (write_pos_ + static_cast<std::size_t>(n)) % len;
  }

 private:
  SystemConfig sys_;
  base::Rng rng_;
  std::vector<std::pair<int, double>> sampled_;
  std::vector<double> line_;
  std::size_t write_pos_ = 0;
};

// The silent-line skip changes no output bit: the block matches the
// reference tap loop through bursts, silences longer than the line, -0.0
// inputs, a null input and mid-run rebuilds, at every batch size, with and
// without noise.
TEST(Channel, SilentLineSkipMatchesReferenceTapSum) {
  SystemConfig sys;
  sys.dt = 0.1e-9;
  sys.distance = 4.0;
  sys.seed = 77;
  base::Rng draw(5);
  const ChannelRealization multipath = generate_cm1(draw);
  ASSERT_GT(multipath.taps.size(), 8u);  // a real multipath sum
  // Input: bursts of noise-like samples, -0.0 runs and silences of up to
  // three line lengths (the CM1 line is ~1.3k samples at this dt).
  std::vector<double> input;
  for (int seg = 0; seg < 24; ++seg) {
    const int len = draw.uniform_int(1, 4000);
    const int kind = seg % 4;
    for (int i = 0; i < len; ++i) {
      if (kind == 0) input.push_back(draw.gaussian());
      else if (kind == 1) input.push_back(-0.0);
      else if (kind == 2) input.push_back(i % 97 == 0 ? 1.0 : 0.0);
      else input.push_back(0.0);
    }
  }
  for (const double n0 : {0.0, 4e-18}) {
    for (const int batch : {1, 7, 64, ams::kMaxBatch}) {
      ChannelBlock chan(sys, nullptr);
      ReferenceChannel ref(sys);
      chan.set_noise_psd(n0);
      chan.set_realization(multipath, 0.5);
      ref.rebuild(multipath.taps, 0.5, sys.distance);
      double out[ams::kMaxBatch];
      const std::size_t total = input.size();
      int mismatches = 0;
      std::size_t pos = 0;
      for (int call = 0; pos < total; ++call) {
        const int n = static_cast<int>(
            std::min(total - pos, static_cast<std::size_t>(batch)));
        // Every fifth call reads a null input (silence).
        const double* in = (call % 5 == 4) ? nullptr : input.data() + pos;
        chan.set_input(in);
        ref.step(in, n, n0, out);
        chan.step_block(nullptr, sys.dt, n);
        for (int i = 0; i < n; ++i)
          mismatches += std::bit_cast<std::uint64_t>(chan.out()[i]) ==
                                std::bit_cast<std::uint64_t>(out[i])
                            ? 0
                            : 1;
        pos += static_cast<std::size_t>(n);
        // Mid-run rebuilds: a shorter AWGN-only line, then multipath back.
        const std::size_t prev = pos - static_cast<std::size_t>(n);
        if (pos >= total / 3 && prev < total / 3) {
          chan.set_awgn_only(0.25);
          ref.rebuild({ChannelTap{0.0, 1.0}}, 0.25, sys.distance);
        }
        if (pos >= 2 * total / 3 && prev < 2 * total / 3) {
          chan.set_distance(7.0);
          ref.rebuild({ChannelTap{0.0, 1.0}}, 0.25, 7.0);
          chan.set_realization(multipath, 0.5);
          ref.rebuild(multipath.taps, 0.5, 7.0);
        }
      }
      EXPECT_EQ(mismatches, 0) << "n0 " << n0 << ", batch " << batch;
    }
  }
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
