// kernel.hpp — the AMS co-simulation kernel (the "ADMS" role).
//
// The paper's methodology rests on simulating blocks of different
// abstraction levels in one environment: behavioral VHDL-AMS entities,
// digital processes and an imported Spice netlist all advance together.
// This kernel provides exactly that contract:
//
//   * AnalogBlock — sample-rate blocks advanced every fixed time step in
//     registration (dataflow) order; a block may be a one-line behavioral
//     model or a SpiceBridge wrapping a transistor-level netlist
//     (substitute-and-play: both satisfy the same interface).
//   * DigitalProcess — event-driven processes woken at scheduled times
//     (clock dividers, FSMs, controllers). Events due at or before the
//     current time fire before the next analog step, so digital decisions
//     see the analog state of the just-completed step.
//
// The fixed step matches the paper's solver setup (0.05 ns system runs).
// The kernel's macro step is also the co-simulation exchange interval: a
// SpiceBridge advances its embedded solver by one fixed step of the dt it
// is stepped with (TransientSession::step), so block wiring and determinism
// never depend on the embedded solver.
//
// Batched execution: run_until() advances the analog blocks in
// *event-bounded batches* of up to kMaxBatch samples. The batch boundary is
// min(samples to the next due digital event, kMaxBatch, samples to t_stop),
// so digital processes observe every sample boundary exactly as if the
// kernel stepped one sample at a time, and each block processes a tight
// per-sample loop over its producers' output buffers (same per-sample
// operation order, same RNG draw order at any batch cut).
//
// Early exit: a testbench that knows its result is fixed can end a run
// without simulating the rest of it. stop() (typically called from an event
// callback) ends the run_until() in progress at the next batch boundary,
// and remove_analog() retires a block between run_until() calls. Because
// the kernel is batch-cut invariant, stopping and resuming changes no
// sample of any block, and a retired block's consumers see exactly what
// they would have if it were never removed, provided nothing still
// registered reads its outputs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace uwbams::ams {

class Kernel;

// Upper bound on the batch size (samples). Blocks preallocate their output
// signal buffers at this capacity, so the constant also fixes the per-block
// buffer footprint (2 KiB of doubles).
inline constexpr int kMaxBatch = 256;

// A block advanced once per analog time step, in registration order.
// Communication is through plain double signals owned by the blocks;
// consumers hold const pointers to producer outputs (wired by the
// testbench at build time). The pointer returned by a block's out()
// accessor is the base of a kMaxBatch-deep sample buffer: after a batch of
// n samples, elements 0..n-1 hold that batch (element 0 = its first
// sample). Element 0 is the live sample only after a single-sample step
// (Kernel::step(), or step_block() with n = 1), so code that dereferences
// raw signal pointers between steps must advance one sample at a time.
class AnalogBlock {
 public:
  virtual ~AnalogBlock() = default;
  // Advance n samples whose times are t[0..n-1] (t[i+1] = t[i] + dt, built
  // by repeated addition). The block reads its inputs per sample (producer
  // buffers filled earlier in registration order this batch) and writes
  // its own output samples 0..n-1. The result must not depend on where a
  // run is cut into batches: same per-sample operation order, same RNG draw
  // order for any n.
  virtual void step_block(const double* t, double dt, int n) = 0;
};

// An event-driven digital process. wake() may schedule further events.
class DigitalProcess {
 public:
  virtual ~DigitalProcess() = default;
  virtual void wake(Kernel& kernel, double t) = 0;
};

class Kernel {
 public:
  explicit Kernel(double dt);

  double dt() const { return dt_; }
  double time() const { return t_; }
  std::uint64_t steps() const { return steps_; }

  // Registers an analog block (non-owning; testbench owns blocks). Order of
  // registration is the per-step evaluation order.
  void add_analog(AnalogBlock& block);
  // Drops a registered block (std::invalid_argument if it is not); the
  // rest keep their relative order. The block is not stepped again, so no
  // block still registered may read its outputs. Call it only between
  // run_until() calls, e.g. after a stop().
  void remove_analog(AnalogBlock& block);
  // Schedules a digital wake-up at absolute time t (finite, >= current
  // time; otherwise std::invalid_argument).
  void schedule(DigitalProcess& process, double t);
  // Schedules a one-shot callback at absolute time t (same rules).
  void schedule_callback(double t, std::function<void(double)> fn);

  // Count of executed batches by size (index = batch length in samples;
  // index 0 unused; single-sample step() calls are not counted).
  const std::vector<std::uint64_t>& batch_histogram() const {
    return batch_hist_;
  }

  // Runs one analog step: first fires every digital event due at or before
  // the current time, then advances all analog blocks by one sample (a
  // batch of n = 1).
  void step();
  // Steps until time() >= t_stop (within half a step), in event-bounded
  // batches. Returns false when t_stop was reached and true when stop()
  // ended the run early, in which case the events due at time() have fired
  // and no block has stepped past it. A NaN t_stop throws
  // std::invalid_argument.
  bool run_until(double t_stop);
  // Ends the run_until() in progress at the next batch boundary: the flag
  // is tested after the due events fire and before the batch steps. Each
  // run_until() starts with the flag clear, so a stop() outside a run has
  // no effect.
  void stop() { stop_requested_ = true; }

 private:
  struct Event {
    double t;
    std::uint64_t seq;  // FIFO tie-break for equal times
    DigitalProcess* process;
    std::function<void(double)> callback;
    bool operator>(const Event& o) const {
      return t > o.t || (t == o.t && seq > o.seq);
    }
  };

  void fire_due_events();

  double dt_;
  double t_ = 0.0;
  std::uint64_t steps_ = 0;
  std::uint64_t seq_ = 0;
  bool stop_requested_ = false;
  std::vector<AnalogBlock*> analog_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;

  // batch_times_ carries the per-sample times of the current batch, built
  // by the same repeated `t += dt` accumulation step() performs, so block
  // time arguments do not depend on where batches are cut.
  std::array<double, kMaxBatch> batch_times_{};
  std::vector<std::uint64_t> batch_hist_;
};

}  // namespace uwbams::ams
