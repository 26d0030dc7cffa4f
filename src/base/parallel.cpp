#include "base/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "base/faults.hpp"

namespace uwbams::base {

// The shared pool behind a ParallelRunner with jobs > 1. Every index is
// claimed and every completion counted under `mu`; a batch lives on its
// caller's stack, and no worker touches it after counting its last
// completion (the caller's wait ends only then).
struct ParallelRunner::Pool {
  struct Batch {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;  // never throws
    std::size_t next = 0;      // first unclaimed index
    std::size_t finished = 0;  // indices whose body returned
    std::condition_variable all_finished;
  };

  explicit Pool(std::size_t workers) : workers(workers) {}

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    work.notify_all();
    for (auto& t : threads) t.join();
  }

  // Bodies are fan_out's failure-catching wrappers. One that throws anyway
  // would leave its batch to the workers after its caller unwound, so it
  // terminates instead.
  static void run_index(const Batch& b, std::size_t i) noexcept {
    (*b.body)(i);
  }

  // Claims the next index of `b` and closes `b` once its last index is
  // claimed. Requires `mu`.
  std::size_t claim(Batch* b) {
    const std::size_t i = b->next++;
    if (b->next == b->n) open.erase(std::find(open.begin(), open.end(), b));
    return i;
  }

  // Publishes body(0..n-1) as one batch; the caller works through its own
  // indices, then waits for those the workers claimed.
  void run(std::size_t n, const std::function<void(std::size_t)>& body) {
    Batch b;
    b.n = n;
    b.body = &body;
    std::unique_lock<std::mutex> lock(mu);
    if (threads.empty())
      for (std::size_t w = 0; w < workers; ++w)
        threads.emplace_back([this] { work_loop(); });
    open.push_back(&b);
    work.notify_all();
    while (b.next < b.n) {
      const std::size_t i = claim(&b);
      lock.unlock();
      run_index(b, i);
      lock.lock();
      ++b.finished;
    }
    b.all_finished.wait(lock, [&] { return b.finished == b.n; });
  }

  void work_loop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      work.wait(lock, [&] { return stop || !open.empty(); });
      if (open.empty()) return;  // stopping
      Batch* b = open[cursor++ % open.size()];
      const std::size_t i = claim(b);
      lock.unlock();
      run_index(*b, i);
      lock.lock();
      if (++b->finished == b->n) b->all_finished.notify_one();
    }
  }

  const std::size_t workers;
  std::mutex mu;
  std::condition_variable work;  // an open batch, or stop
  std::vector<Batch*> open;      // batches with unclaimed indices
  std::size_t cursor = 0;        // round-robin position in `open`
  bool stop = false;
  std::vector<std::thread> threads;
};

ParallelRunner::ParallelRunner(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw > 0 ? static_cast<int>(hw) : 1;
  }
  if (jobs_ > 1)
    pool_ = std::make_unique<Pool>(static_cast<std::size_t>(jobs_ - 1));
}

ParallelRunner::~ParallelRunner() = default;

void ParallelRunner::run(std::size_t n,
                         const std::function<void(std::size_t)>& body) const {
  if (pool_ == nullptr || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool_->run(n, body);
}

namespace {

struct CaughtFailure {
  std::size_t index = 0;
  std::string what;
  std::exception_ptr error;
};

// Runs every task through `run` and hands each per-task failure to
// `failures` under a mutex. Failures never cancel the sweep: remaining
// tasks always drain, so jobs=1 and jobs=8 see the same failure set.
template <typename Run>
void fan_out(std::size_t n, const Run& run,
             const std::function<bool(std::size_t, CaughtFailure*)>& run_one,
             std::vector<CaughtFailure>* failures) {
  std::mutex mu;
  run(n, [&](std::size_t i) {
    CaughtFailure f;
    if (run_one(i, &f)) return;
    std::lock_guard<std::mutex> lock(mu);
    failures->push_back(std::move(f));
  });
  std::sort(failures->begin(), failures->end(),
            [](const CaughtFailure& a, const CaughtFailure& b) {
              return a.index < b.index;
            });
}

}  // namespace

void ParallelRunner::for_each(std::size_t n,
                              const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  std::vector<CaughtFailure> failures;
  fan_out(
      n, [this](std::size_t m, const auto& body) { run(m, body); },
      [&](std::size_t i, CaughtFailure* f) {
        try {
          fn(i);
          return true;
        } catch (const std::exception& e) {
          f->index = i;
          f->what = e.what();
          f->error = std::current_exception();
        } catch (...) {
          f->index = i;
          f->what = "non-standard exception";
          f->error = std::current_exception();
        }
        return false;
      },
      &failures);
  if (failures.empty()) return;
  // One failed task: rethrow the original exception (type preserved).
  // Several: aggregate count + the first few messages so a multi-failure
  // sweep is diagnosable from one error string.
  if (failures.size() == 1) std::rethrow_exception(failures[0].error);
  constexpr std::size_t kShow = 4;
  std::string msg = "ParallelRunner::for_each: " +
                    std::to_string(failures.size()) + " of " +
                    std::to_string(n) + " tasks failed";
  for (std::size_t k = 0; k < std::min(kShow, failures.size()); ++k)
    msg += "; task " + std::to_string(failures[k].index) + ": " +
           failures[k].what;
  if (failures.size() > kShow)
    msg += "; ... (" + std::to_string(failures.size() - kShow) + " more)";
  throw std::runtime_error(msg);
}

std::vector<TaskFailure> ParallelRunner::for_each_tolerant(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    const TaskPolicy& policy) const {
  std::vector<TaskFailure> out;
  if (n == 0) return out;
  const int attempts = std::max(0, policy.max_retries) + 1;
  std::vector<CaughtFailure> failures;
  fan_out(
      n, [this](std::size_t m, const auto& body) { run(m, body); },
      [&](std::size_t i, CaughtFailure* f) {
        std::string reason = "unknown error";
        for (int a = 0; a < attempts; ++a) {
          if (a > 0 && policy.backoff_s > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(policy.backoff_s * a));
          // The attempt scope lets injected faults (and honest accounting)
          // distinguish first runs from retries; the probe is keyed by the
          // task index alone, so the same plan quarantines the same tasks
          // for any worker count.
          faults::AttemptScope scope(a);
          try {
            faults::check("runner.task", static_cast<std::uint64_t>(i));
            fn(i);
            return true;
          } catch (const std::exception& e) {
            reason = e.what();
          } catch (...) {
            reason = "non-standard exception";
          }
        }
        f->index = i;
        f->what = std::move(reason);
        return false;
      },
      &failures);
  out.reserve(failures.size());
  for (auto& f : failures)
    out.push_back({f.index, attempts, std::move(f.what)});
  return out;
}

}  // namespace uwbams::base
