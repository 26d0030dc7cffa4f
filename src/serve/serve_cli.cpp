#include "serve/serve_cli.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/json.hpp"
#include "base/parallel.hpp"
#include "core/equiv.hpp"
#include "runner/scenario.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace uwbams::serve {

namespace {

namespace fs = std::filesystem;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

bool take_value(const std::string& arg, const char* flag, std::string* out) {
  const std::size_t n = std::strlen(flag);
  if (arg.compare(0, n, flag) != 0 || arg.size() <= n || arg[n] != '=')
    return false;
  *out = arg.substr(n + 1);
  return true;
}

void serve_usage() {
  std::printf(
      "usage: uwbams_serve [--socket=PATH] [--cache=DIR] [--jobs=N]\n"
      "                    [--mem-entries=N] [--verbose]\n"
      "\n"
      "Long-lived scenario server: accepts newline-delimited JSON requests\n"
      "(schema uwbams-serve-v1) on a unix socket, runs distinct requests\n"
      "concurrently with their sweeps sharded across one worker pool, and\n"
      "serves repeated requests byte-identically from a content-addressed\n"
      "result cache.\n"
      "\n"
      "  --socket=PATH       listen here (default /tmp/uwbams_serve.sock)\n"
      "  --cache=DIR         persist results on disk (also exported as\n"
      "                      UWBAMS_CACHE for intermediate memoization);\n"
      "                      omit for a memory-only cache\n"
      "  --jobs=N            worker pool size, and the most scenario\n"
      "                      computations that run at once; 0 = hardware\n"
      "                      concurrency\n"
      "  --mem-entries=N     in-memory LRU capacity (default 64)\n"
      "  --verbose           let scenario narration through to stdout\n"
      "\n"
      "See docs/service.md for the protocol and the cache key contract.\n");
}

void client_usage() {
  std::printf(
      "usage: uwbams_run --connect=PATH scenario [scenario ...]\n"
      "                  [--scale=fast|default|full] [--seed=N]\n"
      "                  [--tier=bit_exact|stat_equiv] [--out=DIR]\n"
      "       uwbams_run --connect=PATH --ping | --stats | --shutdown\n"
      "\n"
      "Sends requests to a running uwbams_serve and, with --out, writes\n"
      "each response's artifacts plus a manifest.json (cache state, content\n"
      "key, server wall seconds) under DIR/<scenario>/.\n");
}

}  // namespace

int serve_main(int argc, const char* const* argv) {
  std::string socket_path = "/tmp/uwbams_serve.sock";
  std::string cache_dir;
  int jobs = 0;
  std::size_t mem_entries = 64;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--serve") continue;  // dispatch marker from uwbams_run
    if (arg == "--help" || arg == "-h") {
      serve_usage();
      return 0;
    }
    if (take_value(arg, "--socket", &socket_path)) continue;
    if (take_value(arg, "--cache", &cache_dir)) continue;
    if (take_value(arg, "--jobs", &value)) {
      jobs = std::atoi(value.c_str());
      continue;
    }
    if (take_value(arg, "--mem-entries", &value)) {
      const long n = std::atol(value.c_str());
      if (n <= 0) {
        std::fprintf(stderr, "uwbams_serve: --mem-entries must be > 0\n");
        return 2;
      }
      mem_entries = static_cast<std::size_t>(n);
      continue;
    }
    if (arg == "--verbose") {
      verbose = true;
      continue;
    }
    std::fprintf(stderr, "uwbams_serve: unknown argument '%s'\n",
                 arg.c_str());
    serve_usage();
    return 2;
  }

  if (!cache_dir.empty()) {
    // Scenario-internal memoization (surrogate calibration, characterize)
    // shares the same content-addressed store.
    ::setenv("UWBAMS_CACHE", cache_dir.c_str(), 1);
  }

  try {
    ResultCache cache(cache_dir, mem_entries);
    base::ParallelRunner pool(jobs);
    ScenarioService service(cache, pool, verbose);
    Server server(socket_path, service);
    server.start();

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::printf("uwbams_serve: listening on %s (jobs=%d, cache=%s)\n",
                socket_path.c_str(), pool.jobs(),
                cache_dir.empty() ? "<memory>" : cache_dir.c_str());
    std::fflush(stdout);

    // Signal handlers only set a flag (a condition variable is not
    // async-signal-safe); the main loop polls it alongside the in-band
    // shutdown request.
    while (!service.wait_shutdown_for(200)) {
      if (g_signal != 0) service.request_shutdown();
    }
    server.stop();

    const ScenarioService::Stats s = service.stats();
    std::printf(
        "uwbams_serve: shut down (requests=%llu errors=%llu "
        "computations=%llu cache_hits=%llu coalesced=%llu)\n",
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.errors),
        static_cast<unsigned long long>(s.computations),
        static_cast<unsigned long long>(s.cache_hits),
        static_cast<unsigned long long>(s.coalesced));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uwbams_serve: %s\n", e.what());
    return 1;
  }
}

namespace {

// Writes one run response's artifacts + manifest under out_dir/<scenario>/.
// Returns false (with a message) when the response is an error.
bool handle_run_response(const std::string& response,
                         const std::string& scenario,
                         const std::string& out_dir) {
  base::JsonValue doc = base::parse_json(response);
  const base::JsonObject& obj = doc.as_object();
  const auto status = obj.find("status");
  if (status == obj.end() || status->second.as_string() != "ok") {
    const auto err = obj.find("error");
    std::fprintf(stderr, "uwbams_run: request '%s' failed: %s\n",
                 scenario.c_str(),
                 err != obj.end() ? err->second.as_string().c_str()
                                  : "malformed response");
    return false;
  }
  const base::JsonObject& result = obj.at("result").as_object();
  const std::string cache_state = obj.at("cache").as_string();
  const double wall_seconds = obj.at("wall_seconds").as_number();
  std::printf("uwbams_run: %s done (cache=%s, wall=%.3fs)\n",
              scenario.c_str(), cache_state.c_str(), wall_seconds);

  if (out_dir.empty()) return true;
  const fs::path dir = fs::path(out_dir) / scenario;
  fs::create_directories(dir);
  const base::JsonObject& artifacts = result.at("artifacts").as_object();
  for (const auto& [name, content] : artifacts) {
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out << content.as_string();
    if (!out) {
      std::fprintf(stderr, "uwbams_run: cannot write %s\n",
                   (dir / name).string().c_str());
      return false;
    }
  }
  base::JsonObject manifest;
  manifest["cache"] = base::JsonValue(cache_state);
  manifest["key"] = result.at("key");
  manifest["scenario"] = base::JsonValue(scenario);
  manifest["schema"] =
      base::JsonValue(std::string("uwbams-serve-manifest-v1"));
  manifest["wall_seconds"] = base::JsonValue(wall_seconds);
  std::ofstream out(dir / "manifest.json",
                    std::ios::binary | std::ios::trunc);
  out << base::JsonValue(std::move(manifest)).dump(2) << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int client_main(int argc, const char* const* argv) {
  std::string socket_path;
  std::string out_dir;
  std::vector<std::string> scenarios;
  Request base_req;
  bool ping = false, stats = false, shutdown = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      client_usage();
      return 0;
    }
    if (take_value(arg, "--connect", &socket_path)) continue;
    if (take_value(arg, "--out", &out_dir)) continue;
    if (take_value(arg, "--scale", &value)) {
      if (!runner::parse_scale(value, &base_req.scale)) {
        std::fprintf(stderr, "uwbams_run: unknown scale '%s'\n",
                     value.c_str());
        return 2;
      }
      continue;
    }
    if (take_value(arg, "--tier", &value)) {
      if (!core::parse_exactness_tier(value, &base_req.tier)) {
        std::fprintf(stderr, "uwbams_run: unknown tier '%s'\n",
                     value.c_str());
        return 2;
      }
      continue;
    }
    if (take_value(arg, "--seed", &value)) {
      base_req.seed = std::strtoull(value.c_str(), nullptr, 0);
      continue;
    }
    if (arg == "--ping") {
      ping = true;
      continue;
    }
    if (arg == "--stats") {
      stats = true;
      continue;
    }
    if (arg == "--shutdown") {
      shutdown = true;
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "uwbams_run: unknown argument '%s'\n",
                   arg.c_str());
      client_usage();
      return 2;
    }
    scenarios.push_back(arg);
  }

  if (socket_path.empty()) {
    std::fprintf(stderr, "uwbams_run: --connect needs a socket path\n");
    return 2;
  }
  if (scenarios.empty() && !ping && !stats && !shutdown) {
    std::fprintf(stderr,
                 "uwbams_run: nothing to do (give a scenario, --ping, "
                 "--stats or --shutdown)\n");
    return 2;
  }

  try {
    Client client(socket_path);
    bool ok = true;

    if (ping) {
      Request req;
      req.op = Op::kPing;
      std::printf("%s\n", client.roundtrip(req.to_line()).c_str());
    }
    for (const std::string& scenario : scenarios) {
      Request req = base_req;
      req.op = Op::kRun;
      req.scenario = scenario;
      const std::string response = client.roundtrip(req.to_line());
      if (!handle_run_response(response, scenario, out_dir)) ok = false;
    }
    if (stats) {
      Request req;
      req.op = Op::kStats;
      std::printf("%s\n", client.roundtrip(req.to_line()).c_str());
    }
    if (shutdown) {
      Request req;
      req.op = Op::kShutdown;
      std::printf("%s\n", client.roundtrip(req.to_line()).c_str());
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uwbams_run: %s\n", e.what());
    return 1;
  }
}

}  // namespace uwbams::serve
