/// @file receiver.hpp
/// @brief The assembled energy-detection receiver.
///
/// Analog chain (registered into the AMS kernel in dataflow order):
///   rf input -> LNA -> VGA -> ( )^2 -> I&D (ideal / spice / behavioral)
/// Digital back end (event-driven):
///   ItdController windows + ADC -> RxFsm:
///     genie mode   — known timing, payload demodulation only (BER runs);
///     acquire mode — NE -> PS -> AGC -> coarse slot sync -> fine
///                    leading-edge ToA (ranging runs).
///
/// The integrator is injected through a factory, which is the
/// substitute-and-play seam: the same receiver is built with any of the
/// paper's three I&D fidelities.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ams/kernel.hpp"
#include "uwb/adc.hpp"
#include "uwb/agc.hpp"
#include "uwb/clock.hpp"
#include "uwb/config.hpp"
#include "uwb/demodulator.hpp"
#include "uwb/frontend.hpp"
#include "uwb/integrator.hpp"
#include "uwb/packet.hpp"
#include "uwb/preamble_sense.hpp"
#include "uwb/synchronizer.hpp"

namespace uwbams::uwb {

/// Tracks the peak |value| of an analog signal between resets; feeds the
/// AGC's saturation checks and the design-constraint extraction.
class PeakTracker : public ams::AnalogBlock {
 public:
  explicit PeakTracker(const double* input) : in_(input) {}
  void step_block(const double* t, double dt, int n) override;
  double peak() const { return peak_; }
  void reset_peak() { peak_ = 0.0; }

 private:
  const double* in_;
  double peak_ = 0.0;
};

using IntegratorFactory =
    std::function<std::unique_ptr<IntegrateAndDump>(const double* input)>;

class Receiver {
 public:
  enum class SyncMode { kGenie, kAcquire };
  /// kAgcRefine re-runs the gain loop on the *aligned* window grid after the
  /// coarse search: the first AGC pass sees partially-captured bursts and
  /// settles high, which would saturate the fine-scan profile.
  enum class RxState {
    kIdle, kNoiseEst, kSense, kAgc, kCoarse, kAgcRefine, kFine, kData, kDone
  };

  /// Registers the analog chain into `kernel`. `rf_input` is the channel
  /// output; register transmitter and channel blocks before constructing.
  Receiver(ams::Kernel& kernel, const SystemConfig& cfg,
           const double* rf_input, const IntegratorFactory& make_integrator);

  /// --- genie mode (BER runs): known timing, payload-only packets.
  /// `capture_start` is the absolute time energy capture (the integrate
  /// phase) of the first slot-0 window should begin — normally packet start
  /// + propagation delay. The controller opens the window one reset width
  /// earlier so the dump completes right at capture_start.
  void start_genie(ams::Kernel& kernel, double capture_start,
                   const std::vector<bool>& sent_payload);

  /// --- acquire mode (ranging runs): full NE/PS/AGC/sync sequence.
  void start_acquire(ams::Kernel& kernel, double t_start);
  /// Takes the analog chain (LNA, VGA, squarer, peak tracker, I&D) out of
  /// the kernel and stops the window controller: no block of this receiver
  /// steps and no FSM event fires again. Call between run_until() calls.
  void retire(ams::Kernel& kernel);
  /// Callback fired once the fine ToA estimate is available.
  void on_sync(std::function<void(double toa)> cb) { sync_cb_ = std::move(cb); }
  /// Payload collection after acquisition: once synchronized, the data FSM
  /// waits for the SFD (first decided '1') and then collects `n_bits`
  /// decisions. Call before or after sync completes.
  void collect_payload(int n_bits) { payload_expected_ = n_bits; }
  const std::vector<bool>& received_payload() const { return rx_payload_; }
  bool payload_complete() const {
    return payload_expected_ > 0 &&
           static_cast<int>(rx_payload_.size()) >= payload_expected_;
  }

  /// Controls / results.
  void set_vga_gain_db(double g) { vga_->set_gain_db(g); }
  double vga_gain_db() const { return vga_->gain_db(); }
  const base::BerCounter& ber() const { return demod_.ber(); }
  RxState state() const { return state_; }
  bool sync_done() const { return state_ == RxState::kData || state_ == RxState::kDone; }
  double toa() const;
  const AgcController& agc() const { return *agc_; }
  IntegrateAndDump& integrator() { return *itd_; }
  /// This node's oscillator model: all acquisition timing (window starts,
  /// start_acquire/start_genie arguments, the ToA estimate) is in its local
  /// clock time; the window controller converts at the kernel boundary.
  const ClockModel& clock() const { return clock_; }
  PeakTracker& squared_peak() { return *sq_peak_; }
  /// All window samples seen (diagnostics; cleared on start_*).
  const std::vector<WindowSample>& samples() const { return samples_; }
  void keep_samples(bool on) { keep_samples_ = on; }

 private:
  void handle_sample(const WindowSample& s);
  void handle_genie(const WindowSample& s);
  void handle_acquire(const WindowSample& s);
  /// Slot-aligned anchor of the winning coarse (candidate, parity) pair,
  /// advanced by whole symbols past `current_window_start`.
  double winning_anchor(double current_window_start) const;
  void begin_fine_scan(double current_window_start);
  void finish_fine_scan();

  SystemConfig cfg_;
  ams::Kernel* kernel_;
  ClockModel clock_;

  /// Analog chain.
  std::unique_ptr<Amplifier> lna_;
  std::unique_ptr<Amplifier> vga_;
  std::unique_ptr<Squarer> squarer_;
  std::unique_ptr<PeakTracker> sq_peak_;
  std::unique_ptr<IntegrateAndDump> itd_;

  /// Digital back end.
  Adc adc_;
  std::unique_ptr<ItdController> controller_;
  std::unique_ptr<AgcController> agc_;
  PpmDemodulator demod_;

  SyncMode mode_ = SyncMode::kGenie;
  RxState state_ = RxState::kIdle;

  /// Genie bookkeeping.
  std::vector<bool> sent_payload_;
  std::optional<int> pending_slot0_;
  std::size_t genie_symbol_ = 0;

  /// Acquire bookkeeping.
  std::unique_ptr<NoiseEstimator> noise_;
  std::unique_ptr<PreambleSense> sense_;
  int agc_symbols_done_ = 0;
  int agc_refine_symbols_done_ = 0;
  int agc_peak_code_ = 0;
  int window_in_symbol_ = 0;
  /// Coarse scan: per-candidate grids shifted by Tint/2 over one slot, with
  /// per-parity scores (preamble pulses repeat every Ts = 2 slots, so the
  /// winning parity resolves the slot ambiguity).
  int coarse_candidate_ = 0;
  int coarse_windows_left_ = 0;
  int coarse_window_idx_ = 0;
  double coarse_shift_ = 0.0;
  int n_candidates_ = 0;
  std::vector<double> coarse_cand_starts_;
  std::vector<double> coarse_score_;  ///< [candidate * 2 + parity]
  /// Fine scan (short-window leading-edge search).
  std::vector<double> fine_offsets_;
  std::vector<double> fine_energy_;
  std::size_t fine_idx_ = 0;
  double fine_anchor_ = 0.0;
  double toa_est_ = -1.0;

  std::function<void(double)> sync_cb_;
  std::vector<WindowSample> samples_;
  bool keep_samples_ = false;

  /// Acquire-mode data phase.
  int payload_expected_ = 0;
  bool sfd_seen_ = false;
  std::optional<int> data_slot0_;
  std::vector<bool> rx_payload_;
};

}  // namespace uwbams::uwb
