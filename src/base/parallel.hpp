// parallel.hpp — one persistent worker pool for embarrassingly parallel
// sweeps.
//
// BER sweeps, Monte-Carlo TWR iterations and ablation grids are independent
// simulations; ParallelRunner fans them across a pool. Results are stored by
// task index, and all seeding happens per task (ScenarioSpec /
// base::Rng::fork) before execution starts, so the output is identical for
// any job count and any number of concurrent callers — "--jobs=8" is purely
// a wall-clock knob.
//
// A ParallelRunner(jobs) owns jobs - 1 worker threads, started on the first
// call with more than one task and joined by the destructor. Each for_each
// call publishes its indices as one batch: the calling thread works through
// its own batch, idle workers claim indices from any open batch in
// round-robin order, and the call returns once every index of its batch has
// finished. Several threads may call into one runner at once (the scenario
// server runs concurrent computations on one pool), and a task may call
// for_each on the runner that runs it: its caller always makes progress on
// its own batch, so neither case can deadlock, and the runner never runs
// more than jobs - 1 threads of its own whatever the number of callers.
//
// Lives in base/ (not runner/) so library-level sweeps like
// uwb::run_ber_sweep can fan out without depending on the scenario layer.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace uwbams::base {

// Retry/quarantine policy of the tolerant execution paths. Retries are
// deterministic re-runs: a task's seeds derive from its index alone, so a
// retry repeats the exact same computation — it only helps against faults
// that distinguish attempts (injected faults with fail_attempts, or real
// transient failures like I/O).
struct TaskPolicy {
  int max_retries = 1;     // re-runs before the task is quarantined
  double backoff_s = 0.0;  // linear backoff between attempts (attempt * backoff_s)
};

// A task that exhausted its retries: quarantined with a structured record
// instead of aborting the sweep.
struct TaskFailure {
  std::size_t index = 0;  // task index
  int attempts = 0;       // executions performed (retries + 1)
  std::string reason;     // what() of the last failure
};

class ParallelRunner {
 public:
  // jobs <= 0 selects std::thread::hardware_concurrency().
  explicit ParallelRunner(int jobs = 1);
  // Joins the workers; no call may still be running.
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  int jobs() const { return jobs_; }

  // Runs fn(0) .. fn(n-1) across the pool. Tasks must not depend on each
  // other; jobs = 1 (or n = 1) runs them inline on the calling thread.
  // Blocks until all tasks of this call finish (failures drain, never
  // cancel); a single failed task rethrows its original exception on the
  // caller, multiple failures throw one std::runtime_error aggregating the
  // count and the first few task messages.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  // Like for_each but collects return values, ordered by task index.
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(std::size_t)>& fn) const {
    std::vector<R> out(n);
    for_each(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  // Fault-tolerant variant: each task runs up to policy.max_retries + 1
  // times (inside a faults::AttemptScope, probing the "runner.task" fault
  // site with the task index as key); tasks that still fail are returned
  // as TaskFailure records, sorted by index — never thrown. The sweep
  // always completes.
  std::vector<TaskFailure> for_each_tolerant(
      std::size_t n, const std::function<void(std::size_t)>& fn,
      const TaskPolicy& policy = {}) const;

  // Tolerant map: quarantined indices keep their default-constructed R and
  // are listed in *failures (when non-null).
  template <typename R>
  std::vector<R> map_tolerant(std::size_t n,
                              const std::function<R(std::size_t)>& fn,
                              std::vector<TaskFailure>* failures,
                              const TaskPolicy& policy = {}) const {
    std::vector<R> out(n);
    auto f = for_each_tolerant(
        n, [&](std::size_t i) { out[i] = fn(i); }, policy);
    if (failures != nullptr) *failures = std::move(f);
    return out;
  }

 private:
  struct Pool;
  void run(std::size_t n, const std::function<void(std::size_t)>& body) const;

  int jobs_;
  std::unique_ptr<Pool> pool_;  // null when jobs_ == 1
};

}  // namespace uwbams::base
