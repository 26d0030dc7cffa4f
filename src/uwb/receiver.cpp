#include "uwb/receiver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace uwbams::uwb {

void PeakTracker::step_block(const double* /*t*/, double /*dt*/, int n) {
  // reset_peak() arrives from digital events, which only fire at batch
  // boundaries, so a straight max-fold over the batch is exact.
  double p = peak_;
  for (int i = 0; i < n; ++i) p = std::max(p, std::abs(in_[i]));
  peak_ = p;
}

Receiver::Receiver(ams::Kernel& kernel, const SystemConfig& cfg,
                   const double* rf_input,
                   const IntegratorFactory& make_integrator)
    : cfg_(cfg), kernel_(&kernel), clock_(cfg.clock, cfg.seed),
      adc_(cfg.adc_bits, cfg.adc_vmin, cfg.adc_vmax) {
  lna_ = std::make_unique<Amplifier>(rf_input, cfg.lna_gain_db, cfg.lna_sat,
                                     cfg.lna_bandwidth);
  vga_ = std::make_unique<Amplifier>(lna_->out(),
                                     0.5 * (cfg.vga_min_db + cfg.vga_max_db),
                                     cfg.vga_sat, cfg.vga_bandwidth);
  squarer_ = std::make_unique<Squarer>(vga_->out(), cfg.squarer_gain);
  sq_peak_ = std::make_unique<PeakTracker>(squarer_->out());
  itd_ = make_integrator(squarer_->out());

  kernel.add_analog(*lna_);
  kernel.add_analog(*vga_);
  kernel.add_analog(*squarer_);
  kernel.add_analog(*sq_peak_);
  kernel.add_analog(*itd_);

  controller_ = std::make_unique<ItdController>(
      *itd_, adc_, cfg.slot_period(), cfg.reset_width,
      cfg.integration_window,
      [this](const WindowSample& s) { handle_sample(s); });
  controller_->set_clock(&clock_);

  AgcConfig acfg;
  acfg.vga_min_db = cfg.vga_min_db;
  acfg.vga_max_db = cfg.vga_max_db;
  acfg.dac_bits = cfg.vga_dac_bits;
  acfg.adc_max_code = adc_.max_code();
  acfg.target_code = static_cast<int>(0.75 * adc_.max_code());
  acfg.post_gain_enabled = cfg.two_stage_agc;
  acfg.input_peak_target = 0.9 * cfg.integrator_clamp;
  agc_ = std::make_unique<AgcController>(*vga_, acfg);
}

double Receiver::toa() const {
  if (toa_est_ < 0.0) throw std::logic_error("Receiver::toa: no estimate yet");
  return toa_est_;
}

void Receiver::start_genie(ams::Kernel& kernel, double capture_start,
                           const std::vector<bool>& sent_payload) {
  mode_ = SyncMode::kGenie;
  state_ = RxState::kData;
  sent_payload_ = sent_payload;
  genie_symbol_ = 0;
  pending_slot0_.reset();
  demod_.reset_counts();
  samples_.clear();
  controller_->start(kernel, capture_start - cfg_.reset_width);
}

void Receiver::start_acquire(ams::Kernel& kernel, double t_start) {
  mode_ = SyncMode::kAcquire;
  state_ = RxState::kNoiseEst;
  // Listen near maximum sensitivity; the noise-floor backoff below and the
  // AGC after detection adjust from there.
  vga_->set_gain_db(cfg_.vga_max_db - 6.0);
  noise_ = std::make_unique<NoiseEstimator>(
      static_cast<std::size_t>(cfg_.noise_est_windows));
  sense_.reset();
  samples_.clear();
  toa_est_ = -1.0;
  // Listen with densely tiled windows: at the slot cadence, half the
  // timeline is never integrated and a burst can sit entirely in the blind
  // phase. The dense period is incommensurate with the slot, so the window
  // phase also drifts across the preamble.
  controller_->set_period(cfg_.reset_width + cfg_.integration_window + 4e-9);
  controller_->start(kernel, t_start);
}

void Receiver::retire(ams::Kernel& kernel) {
  kernel.remove_analog(*lna_);
  kernel.remove_analog(*vga_);
  kernel.remove_analog(*squarer_);
  kernel.remove_analog(*sq_peak_);
  kernel.remove_analog(*itd_);
  controller_->stop();
}

void Receiver::handle_sample(const WindowSample& s) {
  if (keep_samples_) samples_.push_back(s);
  if (mode_ == SyncMode::kGenie)
    handle_genie(s);
  else
    handle_acquire(s);
}

void Receiver::handle_genie(const WindowSample& s) {
  // Windows alternate slot 0 / slot 1 of consecutive symbols.
  if (!pending_slot0_.has_value()) {
    pending_slot0_ = s.code;
    return;
  }
  const int e0 = *pending_slot0_;
  const int e1 = s.code;
  pending_slot0_.reset();
  const bool bit = demod_.decide(e0, e1);
  if (genie_symbol_ < sent_payload_.size())
    demod_.record(sent_payload_[genie_symbol_], bit);
  ++genie_symbol_;
  if (genie_symbol_ >= sent_payload_.size()) state_ = RxState::kDone;
}

void Receiver::handle_acquire(const WindowSample& s) {
  // Two-stage AGC variant rescales the energy digitally before the code
  // comparison (paper §5 architectural proposal).
  int code = s.code;
  if (agc_->post_scale() != 1.0)
    code = adc_.quantize(s.analog * agc_->post_scale());

  switch (state_) {
    case RxState::kNoiseEst:
      noise_->add(code);
      if (noise_->done()) {
        // Noise-floor-driven backoff: listening at maximum sensitivity can
        // leave the *noise alone* saturating the front end, which erases
        // the preamble contrast. Step the gain down and re-estimate until
        // the floor sits in the lower quarter of the ADC.
        if (noise_->mean() > 0.25 * adc_.max_code() &&
            vga_->gain_db() > cfg_.vga_min_db + 1.0) {
          vga_->set_gain_db(std::max(cfg_.vga_min_db, vga_->gain_db() - 6.0));
          // Short re-estimation passes keep the total NE time bounded.
          noise_ = std::make_unique<NoiseEstimator>(static_cast<std::size_t>(
              std::min(cfg_.noise_est_windows, 8)));
          break;
        }
        sense_ = std::make_unique<PreambleSense>(*noise_, cfg_.sense_factor, 2);
        // Interference environments get the adaptive PNR threshold (the
        // OTA-C peak-search idiom): blocker bursts raise the working
        // threshold so only a sustained preamble-grade train accumulates
        // hits. Inactive (empty interference set) = historical behavior.
        if (cfg_.interference.any()) sense_->enable_adaptive_pnr(4.0);
        state_ = RxState::kSense;
      }
      break;

    case RxState::kSense:
      if (sense_->add(code)) {
        // Preamble present: switch to the 2-PPM slot cadence for the gain
        // loop and the phase search.
        controller_->set_period(cfg_.slot_period());
        state_ = RxState::kAgc;
        agc_symbols_done_ = 0;
        agc_peak_code_ = 0;
        window_in_symbol_ = 0;
        sq_peak_->reset_peak();
      }
      break;

    case RxState::kAgc:
      agc_peak_code_ = std::max(agc_peak_code_, code);
      if (++window_in_symbol_ == 2) {  // one symbol observed
        agc_->update(agc_peak_code_, sq_peak_->peak());
        sq_peak_->reset_peak();
        agc_peak_code_ = 0;
        window_in_symbol_ = 0;
        if (++agc_symbols_done_ >= cfg_.agc_settle_symbols) {
          // Prepare the coarse phase scan over one slot period: candidate
          // grids shifted by Tint/2, `sync_symbols` windows scored each,
          // split by window parity to resolve the slot ambiguity.
          coarse_shift_ = cfg_.integration_window / 2.0;
          n_candidates_ = std::max(
              1,
              static_cast<int>(std::round(cfg_.slot_period() / coarse_shift_)));
          coarse_score_.assign(static_cast<std::size_t>(2 * n_candidates_), 0.0);
          coarse_cand_starts_.assign(static_cast<std::size_t>(n_candidates_), 0.0);
          coarse_candidate_ = 0;
          coarse_windows_left_ = 2 * cfg_.sync_symbols;
          coarse_window_idx_ = 0;
          const double start = s.window_start + 2.0 * cfg_.slot_period();
          coarse_cand_starts_[0] = start;
          controller_->set_next_window_start(start);
          state_ = RxState::kCoarse;
        }
      }
      break;

    case RxState::kCoarse: {
      // Preamble pulses repeat every Ts; windows tick at Ts/2, so scores
      // split by parity: the pulse-bearing parity wins and fixes the
      // symbol-phase (slot) alignment.
      const int parity = coarse_window_idx_ & 1;
      coarse_score_[static_cast<std::size_t>(2 * coarse_candidate_ + parity)] +=
          code;
      ++coarse_window_idx_;
      if (--coarse_windows_left_ == 0) {
        if (++coarse_candidate_ >= n_candidates_) {
          // Retime onto the winning phase and refine the gain there before
          // the fine scan: the first AGC pass ran on a misaligned grid.
          controller_->set_next_window_start(winning_anchor(s.window_start));
          agc_refine_symbols_done_ = 0;
          agc_peak_code_ = 0;
          window_in_symbol_ = 0;
          sq_peak_->reset_peak();
          state_ = RxState::kAgcRefine;
          break;
        }
        coarse_windows_left_ = 2 * cfg_.sync_symbols;
        coarse_window_idx_ = 0;
        // Candidate grid c is shifted by c*shift from candidate 0; advance
        // whole slots until safely past the current window. The parity
        // bookkeeping is relative to the stored candidate start.
        double next =
            coarse_cand_starts_[0] + coarse_candidate_ * coarse_shift_;
        while (next < s.window_start + cfg_.slot_period())
          next += cfg_.slot_period();
        coarse_cand_starts_[static_cast<std::size_t>(coarse_candidate_)] = next;
        controller_->set_next_window_start(next);
      }
      break;
    }

    case RxState::kAgcRefine:
      agc_peak_code_ = std::max(agc_peak_code_, code);
      if (++window_in_symbol_ == 2) {
        agc_->update(agc_peak_code_, sq_peak_->peak());
        sq_peak_->reset_peak();
        agc_peak_code_ = 0;
        window_in_symbol_ = 0;
        if (++agc_refine_symbols_done_ >= 4) begin_fine_scan(s.window_start);
      }
      break;

    case RxState::kFine: {
      // Raw (pre-post-scale) profile: the digital post-scale of the
      // two-stage AGC would lift the noise floor past the absolute
      // threshold; amplitude-matched profiles use the relative fallback.
      fine_energy_[fine_idx_] = s.analog;
      ++fine_idx_;
      if (fine_idx_ >= fine_offsets_.size()) {
        finish_fine_scan();
        break;
      }
      // One fine offset per symbol period, anchored on the same preamble
      // pulse position modulo Ts.
      const double symbol_base =
          s.window_start - fine_offsets_[fine_idx_ - 1];
      controller_->set_next_window_start(symbol_base + cfg_.symbol_period +
                                         fine_offsets_[fine_idx_]);
      break;
    }

    case RxState::kData: {
      if (payload_expected_ <= 0) break;  // sync-only use (e.g. ranging)
      if (!data_slot0_.has_value()) {
        data_slot0_ = code;
        break;
      }
      const bool bit = demod_.decide(*data_slot0_, code);
      data_slot0_.reset();
      if (!sfd_seen_) {
        // Preamble tail decodes as '0'; the first '1' is the SFD.
        if (bit) sfd_seen_ = true;
        break;
      }
      rx_payload_.push_back(bit);
      if (static_cast<int>(rx_payload_.size()) >= payload_expected_)
        state_ = RxState::kDone;
      break;
    }
    case RxState::kDone:
    case RxState::kIdle:
      break;
  }
}

double Receiver::winning_anchor(double current_window_start) const {
  // Best (candidate, parity) pair fixes the slot-aligned anchor phase; the
  // preamble repeats every Ts, so anchor + k*Ts hits the same position.
  const auto best =
      std::max_element(coarse_score_.begin(), coarse_score_.end());
  const int best_idx = static_cast<int>(best - coarse_score_.begin());
  const int cand = best_idx / 2;
  const int parity = best_idx % 2;
  double anchor = coarse_cand_starts_[static_cast<std::size_t>(cand)] +
                  parity * cfg_.slot_period();
  while (anchor < current_window_start + cfg_.slot_period())
    anchor += cfg_.symbol_period;
  return anchor;
}

void Receiver::begin_fine_scan(double current_window_start) {
  // Short-window leading-edge search: slide a fine_window-long integration
  // across the winning phase; the first window whose energy crosses the
  // (AGC-target-referenced) threshold has just swallowed the first path.
  // The max-energy coarse window can start well after the first path in
  // dispersed channels, so the sweep reaches a full window early.
  controller_->set_integration_length(cfg_.fine_window);
  fine_offsets_.clear();
  const double early = -(cfg_.integration_window + cfg_.fine_window);
  const double late = 1.5 * cfg_.fine_window;
  for (double off = early; off <= late; off += cfg_.fine_step)
    fine_offsets_.push_back(off);
  fine_energy_.assign(fine_offsets_.size(), 0.0);
  fine_idx_ = 0;

  double anchor = winning_anchor(current_window_start);
  while (anchor + fine_offsets_[0] <
         current_window_start + cfg_.slot_period())
    anchor += cfg_.symbol_period;
  fine_anchor_ = anchor;
  controller_->set_next_window_start(anchor + fine_offsets_[0]);
  state_ = RxState::kFine;
}

void Receiver::finish_fine_scan() {
  // Absolute threshold referenced to the level the AGC believes it set
  // (target code), scaled from the full window to the fine window. The
  // paper's Table 2 mechanism lives here: an integrator whose limited
  // input range delivers "a lower output voltage" crosses later, so its
  // ranging bias is larger.
  const double agc_target_v =
      adc_.code_to_voltage(static_cast<int>(0.75 * adc_.max_code()));
  double threshold = cfg_.leading_edge_fraction * agc_target_v *
                     (cfg_.fine_window / cfg_.integration_window);

  // Interference floor (gated — inactive sets keep the historical search
  // bit-identical): a CW blocker or piconet burst lifts the whole fine
  // profile, so the leading edge must clear a peak-to-noise-ratio floor
  // over the pre-edge energy (mean of the earliest profile quarter), not
  // just the absolute AGC-referenced level.
  double pnr_floor = 0.0;
  if (cfg_.interference.any() && !fine_energy_.empty()) {
    const std::size_t nq = std::max<std::size_t>(1, fine_energy_.size() / 4);
    double floor_sum = 0.0;
    for (std::size_t i = 0; i < nq; ++i) floor_sum += fine_energy_[i];
    pnr_floor = 2.0 * (floor_sum / static_cast<double>(nq));
    threshold = std::max(threshold, pnr_floor);
  }

  std::size_t cross = fine_energy_.size();
  double used_threshold = threshold;
  for (std::size_t i = 0; i < fine_energy_.size(); ++i) {
    if (fine_energy_[i] >= threshold) {
      cross = i;
      break;
    }
  }
  if (cross == fine_energy_.size()) {
    // Fallback: relative half-peak crossing (deep fades). The PNR floor
    // still applies, clamped to the peak so a crossing always exists.
    const double peak =
        *std::max_element(fine_energy_.begin(), fine_energy_.end());
    used_threshold = std::max(0.5 * peak, std::min(pnr_floor, peak));
    for (std::size_t i = 0; i < fine_energy_.size(); ++i) {
      if (fine_energy_[i] >= used_threshold) {
        cross = i;
        break;
      }
    }
  }

  // Interpolate the crossing between the bracketing offsets: sub-step
  // resolution, and — crucially — amplitude sensitivity: a lower energy
  // profile (the compressed circuit integrator) crosses later within the
  // bracket, which is how the paper's larger ELDO ranging offset arises.
  double cross_offset = fine_offsets_[cross];
  if (cross > 0 && fine_energy_[cross] > fine_energy_[cross - 1]) {
    const double frac = (used_threshold - fine_energy_[cross - 1]) /
                        (fine_energy_[cross] - fine_energy_[cross - 1]);
    cross_offset = fine_offsets_[cross - 1] +
                   std::clamp(frac, 0.0, 1.0) *
                       (fine_offsets_[cross] - fine_offsets_[cross - 1]);
  }

  // The crossing window's *capture span* is [start + reset, start + reset +
  // fine_window]; the first path sits just inside its trailing edge, one
  // calibrated edge-delay earlier.
  toa_est_ = fine_anchor_ + cross_offset + cfg_.reset_width +
             cfg_.fine_window - cfg_.toa_edge_correction;
  // Restore the demodulation window length and re-anchor the window grid
  // on the synchronized slot phase for the data phase.
  controller_->set_integration_length(cfg_.integration_window);
  controller_->set_next_window_start(
      winning_anchor(clock_.local_time(kernel_->time())));
  sfd_seen_ = false;
  data_slot0_.reset();
  rx_payload_.clear();
  state_ = RxState::kData;
  if (sync_cb_) sync_cb_(toa_est_);
}

}  // namespace uwbams::uwb
