/// @file service.hpp
/// @brief Socket-independent request handler of `uwbams_serve`.
///
/// ScenarioService::handle_line is the whole server semantics — the socket
/// layer (server.hpp) only frames lines. Per run request:
///
///   1. strict-parse (protocol.hpp) and validate against ScenarioRegistry;
///   2. look up the content key in the ResultCache — a hit is answered
///      with the cached payload verbatim (byte-identical to the cold run);
///   3. coalesce: a second request for a key already being computed waits
///      for the in-flight computation instead of starting a twin;
///   4. compute: pass the admission gate, then run the scenario body
///      in-process on the shared ParallelRunner with a quiet, capturing
///      ResultSink, exactly the RunContext shape the batch CLI builds —
///      then cache the payload (successful runs only) and respond.
///
/// Distinct keys compute concurrently: the gate admits up to pool.jobs()
/// bodies at once, in arrival order, each on its connection's thread, and
/// their sweeps share the pool's jobs - 1 workers (base/parallel.hpp). So
/// a body that never fans out no longer leaves the other cores idle, and
/// the process runs at most connections + jobs - 1 computing threads.
/// Cache hits and coalesced waits never wait on the gate.
///
/// Responses embed the cached payload bytes verbatim inside the transport
/// envelope, so a client (or test) can extract `result` and byte-compare
/// warm vs cold directly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "base/parallel.hpp"
#include "base/single_flight.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace uwbams::serve {

class ScenarioService {
 public:
  struct Stats {
    std::uint64_t requests = 0;      ///< lines handled (any op)
    std::uint64_t errors = 0;        ///< structured error responses
    std::uint64_t computations = 0;  ///< scenario bodies actually run
    std::uint64_t cache_hits = 0;    ///< run requests served from cache
    std::uint64_t coalesced = 0;     ///< run requests joined in-flight
  };

  /// `verbose` = let scenario narration through to stdout (debugging).
  ScenarioService(ResultCache& cache, base::ParallelRunner& pool,
                  bool verbose = false);

  /// Handles one request line (without trailing newline) and returns one
  /// response line (without trailing newline). Never throws: every
  /// failure — parse error, unknown scenario, scenario exception — is a
  /// structured error response.
  std::string handle_line(const std::string& line);

  /// True once a shutdown request was handled (or request_shutdown()
  /// called); the server loop drains and exits.
  bool shutdown_requested() const;
  /// Out-of-band shutdown trigger (signal handlers via a watcher thread).
  void request_shutdown();
  /// Blocks until shutdown is requested or `timeout_ms` elapsed; returns
  /// shutdown_requested(). Poll-friendly for signal-flag watchers.
  bool wait_shutdown_for(int timeout_ms);

  Stats stats() const;

 private:
  std::string handle_run(const Request& req);
  /// Runs the scenario and returns the canonical payload (compact JSON).
  /// @throws std::runtime_error on a non-zero scenario status or a
  /// scenario exception.
  std::string compute(const Request& req, std::uint64_t key);
  std::string respond(const char* cache_state, const std::string& payload,
                      double wall_seconds) const;

  ResultCache& cache_;
  base::ParallelRunner& pool_;
  bool verbose_;

  // Admission gate of compute(): tickets handed out and bodies finished.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::uint64_t gate_arrived_ = 0;
  std::uint64_t gate_left_ = 0;

  base::SingleFlight<std::uint64_t, std::string> inflight_;  ///< coalescing

  mutable std::mutex state_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_ = false;
  Stats stats_;
};

}  // namespace uwbams::serve
