#include "ams/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace uwbams::ams {

Kernel::Kernel(double dt)
    : dt_(dt), batch_hist_(static_cast<std::size_t>(kMaxBatch) + 1, 0) {
  // A NaN or infinite step would construct a kernel whose every
  // run_until() silently does nothing.
  if (!(dt > 0.0) || !std::isfinite(dt))
    throw std::invalid_argument("Kernel: dt must be positive and finite");
}

void Kernel::add_analog(AnalogBlock& block) { analog_.push_back(&block); }

void Kernel::remove_analog(AnalogBlock& block) {
  const auto it = std::find(analog_.begin(), analog_.end(), &block);
  if (it == analog_.end())
    throw std::invalid_argument("Kernel::remove_analog: block not registered");
  analog_.erase(it);
}

namespace {

// A NaN event time would break the event queue's ordering; an infinite one
// could never fire.
void check_event_time(double t, double now, double dt, const char* who) {
  if (!std::isfinite(t))
    throw std::invalid_argument(std::string(who) + ": time not finite");
  if (t < now - 0.5 * dt)
    throw std::invalid_argument(std::string(who) + ": time in the past");
}

}  // namespace

void Kernel::schedule(DigitalProcess& process, double t) {
  check_event_time(t, t_, dt_, "Kernel::schedule");
  events_.push(Event{t, seq_++, &process, {}});
}

void Kernel::schedule_callback(double t, std::function<void(double)> fn) {
  check_event_time(t, t_, dt_, "Kernel::schedule_callback");
  events_.push(Event{t, seq_++, nullptr, std::move(fn)});
}

void Kernel::fire_due_events() {
  // Events due within the current step boundary fire now. The small epsilon
  // absorbs floating-point drift of t over millions of steps. The top event
  // is moved out (not copied): its std::function payload can be heap-heavy,
  // and the heap's sift-down compares only (t, seq), which moving leaves
  // intact.
  while (!events_.empty() && events_.top().t <= t_ + 0.25 * dt_) {
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    if (ev.process != nullptr)
      ev.process->wake(*this, t_);
    else if (ev.callback)
      ev.callback(t_);
  }
}

void Kernel::step() {
  fire_due_events();
  for (AnalogBlock* b : analog_) b->step_block(&t_, dt_, 1);
  t_ += dt_;
  ++steps_;
}

bool Kernel::run_until(double t_stop) {
  // Fire due events, then advance the longest run of samples that reaches
  // neither the next due event nor t_stop nor kMaxBatch. The admission test
  // per candidate sample is exactly fire_due_events()' condition, and the
  // sample times are built with the same repeated addition as step(), so
  // every digital event fires at the identical sample boundary it would
  // under single-sample stepping.
  // A NaN t_stop would fail every `t_ < stop` test and return at once.
  if (std::isnan(t_stop))
    throw std::invalid_argument("Kernel::run_until: t_stop is NaN");
  const double due_eps = 0.25 * dt_;
  const double stop = t_stop - 0.5 * dt_;
  stop_requested_ = false;
  while (t_ < stop) {
    fire_due_events();
    if (stop_requested_) break;
    int n = 0;
    double tt = t_;
    while (n < kMaxBatch && tt < stop &&
           !(!events_.empty() && events_.top().t <= tt + due_eps)) {
      batch_times_[static_cast<std::size_t>(n++)] = tt;
      tt += dt_;
    }
    // n >= 1 always: fire_due_events() just drained everything due at t_
    // (re-checking top() after each pop, so events scheduled during a
    // wake() are covered), and the outer condition guarantees t_ < stop.
    for (AnalogBlock* b : analog_) b->step_block(batch_times_.data(), dt_, n);
    t_ = tt;
    steps_ += static_cast<std::uint64_t>(n);
    ++batch_hist_[static_cast<std::size_t>(n)];
  }
  const bool stopped = stop_requested_;
  stop_requested_ = false;
  return stopped;
}

}  // namespace uwbams::ams
