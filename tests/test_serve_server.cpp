// test_serve_server — the unix-socket transport end to end, plus the
// concurrency soak from the server-grade test layer: one server, eight
// client threads, a few hundred mixed requests; every cached response must
// be byte-identical to its cold twin, duplicate in-flight requests must
// coalesce onto one computation, and shutdown must drain cleanly. The file
// runs under ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hpp"
#include "base/parallel.hpp"
#include "runner/registry.hpp"
#include "runner/sink.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

using namespace uwbams;

namespace {

// A cheap deterministic scenario with a deliberate ~10ms body so concurrent
// duplicate requests genuinely overlap in flight.
REGISTER_SCENARIO(serve_soak_probe, "test", "serve soak probe") {
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::string csv = "i,v\n";
  char buf[64];
  for (int i = 0; i < 4; ++i) {
    std::snprintf(buf, sizeof buf, "%d,%llu\n", i,
                  static_cast<unsigned long long>(ctx.seed ^ (0x9e3779b9ULL * i)));
    csv += buf;
  }
  ctx.sink.raw_artifact("soak.csv", csv);
  return 0;
}

std::string socket_path(const char* tag) {
  // sun_path is ~108 bytes; keep well under.
  char buf[96];
  std::snprintf(buf, sizeof buf, "/tmp/uwbams_%s_%d.sock", tag,
                static_cast<int>(::getpid()));
  return buf;
}

std::string run_line(std::uint64_t seed) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"schema\":\"uwbams-serve-v1\",\"scenario\":"
                "\"serve_soak_probe\",\"scale\":\"fast\",\"seed\":%llu}",
                static_cast<unsigned long long>(seed));
  return buf;
}

std::string result_of(const std::string& response) {
  return base::parse_json(response).at("result").dump(0);
}

struct ServerFixture {
  serve::ResultCache cache;
  base::ParallelRunner pool;
  serve::ScenarioService service;
  serve::Server server;

  explicit ServerFixture(const char* tag)
      : cache("", 64),
        pool(2),
        service(cache, pool),
        server(socket_path(tag), service) {
    server.start();
  }
  ~ServerFixture() { server.stop(); }
};

}  // namespace

TEST(Server, PingRunWarmStatsShutdown) {
  ServerFixture fx("basic");
  serve::Client client(fx.server.socket_path());

  const base::JsonValue pong = base::parse_json(
      client.roundtrip("{\"schema\":\"uwbams-serve-v1\",\"op\":\"ping\"}"));
  EXPECT_EQ(pong.at("status").as_string(), "ok");

  const std::string cold = client.roundtrip(run_line(5));
  EXPECT_EQ(base::parse_json(cold).at("cache").as_string(), "miss");
  const std::string warm = client.roundtrip(run_line(5));
  EXPECT_EQ(base::parse_json(warm).at("cache").as_string(), "hit");
  EXPECT_EQ(result_of(warm), result_of(cold));

  const base::JsonValue stats = base::parse_json(client.roundtrip(
      "{\"schema\":\"uwbams-serve-v1\",\"op\":\"stats\"}"));
  EXPECT_EQ(stats.at("stats").at("computations").as_number(), 1.0);
  EXPECT_EQ(stats.at("stats").at("cache_hits").as_number(), 1.0);

  base::parse_json(client.roundtrip(
      "{\"schema\":\"uwbams-serve-v1\",\"op\":\"shutdown\"}"));
  EXPECT_TRUE(fx.service.wait_shutdown_for(2000));
}

TEST(Server, MalformedLineKeepsTheConnectionUsable) {
  ServerFixture fx("robust");
  serve::Client client(fx.server.socket_path());

  const base::JsonValue err =
      base::parse_json(client.roundtrip("this is not json"));
  EXPECT_EQ(err.at("status").as_string(), "error");

  // The same connection still serves well-formed requests.
  const base::JsonValue ok = base::parse_json(client.roundtrip(run_line(9)));
  EXPECT_EQ(ok.at("status").as_string(), "ok");
  EXPECT_EQ(fx.service.stats().errors, 1u);
}

TEST(Server, OversizedRequestIsRefusedNotBuffered) {
  ServerFixture fx("oversize");
  serve::Client client(fx.server.socket_path());
  std::string huge(serve::kMaxRequestBytes + 64, 'x');
  const base::JsonValue err = base::parse_json(client.roundtrip(huge));
  EXPECT_EQ(err.at("status").as_string(), "error");
  // The server closed this connection after refusing; a new one works.
  serve::Client fresh(fx.server.socket_path());
  EXPECT_EQ(base::parse_json(fresh.roundtrip(run_line(3)))
                .at("status")
                .as_string(),
            "ok");
}

TEST(Server, EndedConnectionsAreReaped) {
  ServerFixture fx("reap");
  for (int i = 0; i < 50; ++i) {
    serve::Client client(fx.server.socket_path());
    EXPECT_EQ(base::parse_json(client.roundtrip(
                                   "{\"schema\":\"uwbams-serve-v1\","
                                   "\"op\":\"ping\"}"))
                  .at("status")
                  .as_string(),
              "ok");
  }
  // The last connection's thread ends asynchronously after the close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.server.tracked_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fx.server.tracked_connections(), 0u);
}

TEST(Server, ConcurrentDuplicatesCoalesceToOneComputation) {
  ServerFixture fx("coalesce");
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> responses(kClients);
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      serve::Client client(fx.server.socket_path());
      responses[i] = client.roundtrip(run_line(777));
    });
  for (auto& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(base::parse_json(responses[i]).at("status").as_string(), "ok")
        << responses[i];
    EXPECT_EQ(result_of(responses[i]), result_of(responses[0]));
  }
  const auto stats = fx.service.stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.computations + stats.cache_hits + stats.coalesced,
            static_cast<std::uint64_t>(kClients));
}

TEST(Server, SoakMixedColdWarmDuplicateByteIdentity) {
  ServerFixture fx("soak");
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  constexpr std::uint64_t kSeeds = 5;  // 5 distinct keys, heavily repeated

  std::mutex mu;
  std::map<std::uint64_t, std::string> first_seen;  // seed -> result bytes
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      serve::Client client(fx.server.socket_path());
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::uint64_t seed = (t * 31u + i * 7u) % kSeeds;
        const std::string response = client.roundtrip(run_line(seed));
        const base::JsonValue doc = base::parse_json(response);
        if (doc.at("status").as_string() != "ok") {
          ++failures;
          continue;
        }
        const std::string bytes = doc.at("result").dump(0);
        std::lock_guard<std::mutex> lock(mu);
        auto [it, inserted] = first_seen.emplace(seed, bytes);
        if (!inserted && it->second != bytes) ++failures;
      }
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(first_seen.size(), kSeeds);

  const auto stats = fx.service.stats();
  // One computation per distinct key, never more: everything else was a
  // cache hit or coalesced onto an in-flight twin.
  EXPECT_EQ(stats.computations, kSeeds);
  EXPECT_EQ(stats.computations + stats.cache_hits + stats.coalesced,
            static_cast<std::uint64_t>(kThreads * kRequestsPerThread));
  EXPECT_EQ(stats.errors, 0u);

  // Clean shutdown drain.
  serve::Client client(fx.server.socket_path());
  base::parse_json(client.roundtrip(
      "{\"schema\":\"uwbams-serve-v1\",\"op\":\"shutdown\"}"));
  EXPECT_TRUE(fx.service.wait_shutdown_for(2000));
  fx.server.stop();  // idempotent with the fixture destructor
}
