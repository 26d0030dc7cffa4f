/// @file single_flight.hpp
/// @brief One producer per key among concurrent callers.
///
/// The memo (core/memo.hpp) and the scenario server (serve/service.hpp)
/// both guard an expensive computation keyed by a content hash. When
/// several threads miss on one key at once, SingleFlight lets the first
/// one compute and makes the others wait for its outcome instead of
/// computing a twin: every caller gets the producer's value, or rethrows
/// the producer's exception. The flight ends when the producer returns, so
/// a later call produces again — callers publish the value to their own
/// store (inside `produce`) if a later call should find it there.
#pragma once

#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>

namespace uwbams::base {

template <typename Key, typename Value>
class SingleFlight {
 public:
  /// The value of `produce()` for `key`, computed by exactly one of the
  /// callers that overlap on `key`. Sets *produced (when non-null) to
  /// whether this caller ran `produce`.
  /// @throws whatever the producing call of `produce` threw, in every
  ///         caller of that flight.
  template <typename Produce>
  Value run(const Key& key, Produce&& produce, bool* produced = nullptr) {
    std::shared_ptr<Flight> flight;
    bool producer = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& slot = flights_[key];
      if (slot == nullptr) {
        slot = std::make_shared<Flight>();
        producer = true;
      }
      flight = slot;
    }
    if (produced != nullptr) *produced = producer;

    if (!producer) {
      std::unique_lock<std::mutex> lock(flight->mu);
      flight->cv.wait(lock, [&] { return flight->done; });
      if (flight->error) std::rethrow_exception(flight->error);
      return flight->value;
    }

    Value value{};
    std::exception_ptr error;
    try {
      value = produce();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->done = true;
      flight->value = value;
      flight->error = error;
    }
    flight->cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(mu_);
      flights_.erase(key);
    }
    if (error) std::rethrow_exception(error);
    return value;
  }

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Value value{};
    std::exception_ptr error;
  };

  std::mutex mu_;
  std::map<Key, std::shared_ptr<Flight>> flights_;
};

}  // namespace uwbams::base
