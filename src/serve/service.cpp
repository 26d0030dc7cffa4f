#include "serve/service.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>

#include "base/json.hpp"
#include "core/canonical.hpp"
#include "core/equiv.hpp"
#include "runner/registry.hpp"
#include "runner/sink.hpp"

namespace uwbams::serve {

namespace {

using base::JsonObject;
using base::JsonValue;

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

ScenarioService::ScenarioService(ResultCache& cache,
                                 base::ParallelRunner& pool, bool verbose)
    : cache_(cache), pool_(pool), verbose_(verbose) {}

bool ScenarioService::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return shutdown_;
}

void ScenarioService::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    shutdown_ = true;
  }
  shutdown_cv_.notify_all();
}

bool ScenarioService::wait_shutdown_for(int timeout_ms) {
  std::unique_lock<std::mutex> lock(state_mu_);
  shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return shutdown_; });
  return shutdown_;
}

ScenarioService::Stats ScenarioService::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stats_;
}

std::string ScenarioService::handle_line(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.requests;
  }
  Request req;
  try {
    req = Request::parse(line);
  } catch (const ProtocolError& e) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.errors;
    return error_line(e.what());
  }

  switch (req.op) {
    case Op::kPing: {
      JsonObject obj;
      obj["schema"] = JsonValue(std::string(kProtocolSchema));
      obj["status"] = JsonValue(std::string("ok"));
      obj["op"] = JsonValue(std::string("ping"));
      return JsonValue(std::move(obj)).dump(0);
    }
    case Op::kStats: {
      const Stats s = stats();
      const ResultCache::Stats cs = cache_.stats();
      JsonObject stats_obj;
      stats_obj["requests"] = JsonValue(static_cast<double>(s.requests));
      stats_obj["errors"] = JsonValue(static_cast<double>(s.errors));
      stats_obj["computations"] =
          JsonValue(static_cast<double>(s.computations));
      stats_obj["cache_hits"] = JsonValue(static_cast<double>(s.cache_hits));
      stats_obj["coalesced"] = JsonValue(static_cast<double>(s.coalesced));
      stats_obj["cache_mem_hits"] = JsonValue(static_cast<double>(cs.mem_hits));
      stats_obj["cache_disk_hits"] =
          JsonValue(static_cast<double>(cs.disk_hits));
      stats_obj["cache_misses"] = JsonValue(static_cast<double>(cs.misses));
      stats_obj["cache_puts"] = JsonValue(static_cast<double>(cs.puts));
      stats_obj["cache_evictions"] =
          JsonValue(static_cast<double>(cs.evictions));
      JsonObject obj;
      obj["schema"] = JsonValue(std::string(kProtocolSchema));
      obj["status"] = JsonValue(std::string("ok"));
      obj["op"] = JsonValue(std::string("stats"));
      obj["stats"] = JsonValue(std::move(stats_obj));
      return JsonValue(std::move(obj)).dump(0);
    }
    case Op::kShutdown: {
      request_shutdown();
      JsonObject obj;
      obj["schema"] = JsonValue(std::string(kProtocolSchema));
      obj["status"] = JsonValue(std::string("ok"));
      obj["op"] = JsonValue(std::string("shutdown"));
      return JsonValue(std::move(obj)).dump(0);
    }
    case Op::kRun: return handle_run(req);
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  ++stats_.errors;
  return error_line("unhandled op");
}

std::string ScenarioService::handle_run(const Request& req) {
  if (runner::ScenarioRegistry::instance().find(req.scenario) == nullptr) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.errors;
    return error_line("unknown scenario '" + req.scenario + "'");
  }
  const std::uint64_t key = req.content_key();
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  std::string payload;
  if (cache_.get(key, &payload)) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.cache_hits;
    return respond("hit", payload, elapsed());
  }

  // Coalesce duplicate in-flight requests: exactly one producer per key;
  // everyone else waits for its outcome instead of computing a twin.
  bool produced = false;
  try {
    payload = inflight_.run(
        key,
        [&] {
          try {
            std::string p = compute(req, key);
            cache_.put(key, p);
            return p;
          } catch (const std::exception& e) {
            throw std::runtime_error("scenario '" + req.scenario +
                                     "' failed: " + e.what());
          }
        },
        &produced);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.errors;
    return error_line(e.what());
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!produced) ++stats_.coalesced;
  return respond(produced ? "miss" : "coalesced", payload, elapsed());
}

std::string ScenarioService::compute(const Request& req, std::uint64_t key) {
  // The admission gate: tickets in arrival order, at most pool_.jobs()
  // bodies past it at once. Their sweeps share the pool's workers.
  struct Admission {
    ScenarioService& svc;
    explicit Admission(ScenarioService& s) : svc(s) {
      std::unique_lock<std::mutex> lock(svc.gate_mu_);
      const std::uint64_t ticket = svc.gate_arrived_++;
      svc.gate_cv_.wait(lock, [&] {
        return ticket <
               svc.gate_left_ + static_cast<std::uint64_t>(svc.pool_.jobs());
      });
    }
    ~Admission() {
      {
        std::lock_guard<std::mutex> lock(svc.gate_mu_);
        ++svc.gate_left_;
      }
      svc.gate_cv_.notify_all();
    }
  } admission(*this);
  const runner::Scenario* s =
      runner::ScenarioRegistry::instance().find(req.scenario);
  if (s == nullptr)
    throw std::runtime_error("scenario vanished from the registry");
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.computations;
  }
  runner::ResultSink sink(req.scenario, "");
  sink.set_quiet(!verbose_);
  sink.enable_capture();
  runner::RunContext ctx{req.scenario, req.scale, pool_.jobs(),
                         req.seed,     sink,      pool_,
                         req.tier};
  const int status = s->fn(ctx);
  if (status != 0)
    throw std::runtime_error("non-zero status " + std::to_string(status));

  JsonObject artifacts;
  for (const auto& [name, content] : sink.captured())
    artifacts[name] = JsonValue(content);
  JsonObject p;
  p["schema"] = JsonValue(std::string(kResultSchema));
  p["code_version"] = JsonValue(std::string(core::canonical::kCodeVersion));
  p["key"] = JsonValue(base::hex_u64(key));
  p["scenario"] = JsonValue(req.scenario);
  p["scale"] = JsonValue(std::string(runner::to_string(req.scale)));
  p["tier"] = JsonValue(std::string(core::to_string(req.tier)));
  p["seed"] = JsonValue(base::hex_u64(req.seed));
  p["status"] = JsonValue(status);
  p["artifacts"] = JsonValue(std::move(artifacts));
  return JsonValue(std::move(p)).dump(0);
}

std::string ScenarioService::respond(const char* cache_state,
                                     const std::string& payload,
                                     double wall_seconds) const {
  // Hand-assembled so the cached payload bytes embed verbatim: a client
  // extracting `result` gets exactly what the cold run produced (and what
  // any later warm response will carry), enabling direct byte compares.
  std::string out = "{\"cache\":\"";
  out += cache_state;
  out += "\",\"result\":";
  out += payload;
  out += ",\"schema\":\"";
  out += kProtocolSchema;
  out += "\",\"status\":\"ok\",\"wall_seconds\":";
  out += g17(wall_seconds);
  out += "}";
  return out;
}

}  // namespace uwbams::serve
