/// @file synchronizer.hpp
/// @brief Integration-window controller (the "Synch" block).
///
/// The Synchronizer of Fig. 1 gives the I&D its timing: each window runs the
/// dump -> integrate -> hold cycle and ends with an ADC conversion of the
/// integrated value. The receiver FSM (receiver.hpp) retimes the windows
/// (coarse slot search, fine leading-edge sweep) by moving the next window
/// start — exactly the lock-on-preamble behaviour the paper describes.
#pragma once

#include <cstdint>
#include <functional>

#include "ams/kernel.hpp"
#include "uwb/adc.hpp"
#include "uwb/clock.hpp"
#include "uwb/integrator.hpp"

namespace uwbams::uwb {

struct WindowSample {
  std::int64_t index = 0;    ///< running window counter
  double window_start = 0;   ///< absolute time of the dump edge [s]
  int code = 0;              ///< ADC code of the integrated value
  double analog = 0.0;       ///< pre-quantization integrator output [V]
};

class ItdController {
 public:
  using SampleCallback = std::function<void(const WindowSample&)>;

  /// period: window repetition (slot period for 2-PPM demodulation);
  /// reset_width: dump duration at window start; t_int: integration length.
  /// reset_width + t_int + adc_delay must fit within the period.
  ItdController(IntegrateAndDump& itd, const Adc& adc, double period,
                double reset_width, double t_int, SampleCallback callback);

  /// (Re)starts the window cycle at the given absolute start time. Any
  /// previously scheduled cycle is invalidated (restart-safe: scheduled
  /// events carry an epoch tag and stale ones are ignored).
  void start(ams::Kernel& kernel, double first_window_start);
  /// Ends the window cycle: bumps the epoch like start(), so every pending
  /// phase event goes stale and no further phase or sample callback fires.
  void stop() { ++epoch_; }
  /// Overrides the start of the *next* window (used by sync retiming). Must
  /// be in the future; subsequent windows continue at start + k*period.
  void set_next_window_start(double t) { pending_start_ = t; }
  double period() const { return period_; }
  /// Retunes the steady window cadence (takes effect from the next window).
  void set_period(double period) { period_ = period; }
  void set_integration_length(double t_int) { t_int_ = t_int; }

  /// Runs the whole window cycle on a node-local oscillator (clock.hpp):
  /// every time this controller tracks — window starts, phase edges,
  /// WindowSample::window_start — is then in *local* clock time, and each
  /// edge is converted local -> true (including its white-jitter draw) only
  /// when scheduled into the kernel. Null or identity clock = the historical
  /// bit-exact behaviour. The pointer must outlive the controller.
  void set_clock(const ClockModel* clock) { clock_ = clock; }

 private:
  void schedule_phase(ams::Kernel& kernel, double t, int phase);
  void run_phase(ams::Kernel& kernel, double t, int phase);

  IntegrateAndDump& itd_;
  const Adc& adc_;
  const ClockModel* clock_ = nullptr;
  double period_;
  double reset_width_;
  double t_int_;
  double adc_delay_ = 2e-9;  ///< settle time after the hold edge
  SampleCallback callback_;

  std::uint64_t epoch_ = 0;
  std::int64_t index_ = 0;
  double window_start_ = 0.0;
  double pending_start_ = -1.0;
};

}  // namespace uwbams::uwb
