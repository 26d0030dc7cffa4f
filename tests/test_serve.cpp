// test_serve — the socket-free server layers:
//
//   * ResultCache: memory LRU semantics, the disk level's tmp+rename
//     durability and cross-instance hits, statistics;
//   * request parsing robustness (satellite of the server-grade test
//     layer): malformed / truncated / oversized / mis-versioned requests
//     are structured errors, never crashes and never partial execution —
//     this file runs under ASan+UBSan in CI;
//   * ScenarioService end to end (in-process, no sockets): cold compute,
//     warm byte-identical cache hit, two cold computes of a shipped
//     scenario byte-identical, failed runs not cached, control ops,
//     distinct keys computing concurrently up to the pool's job count;
//   * the memo clients (core/memo.hpp): characterization and surrogate
//     calibration return bit-identical results on a repeat and key on
//     every knob. The memo's process-wide switches are read once per
//     process, so CTest runs this binary twice more: MemoOff.* under
//     UWBAMS_MEMO=0 and MemoDisk.* under UWBAMS_CACHE (both skip in the
//     plain run).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hpp"
#include "base/parallel.hpp"
#include "core/canonical.hpp"
#include "core/memo.hpp"
#include "net/calibrate.hpp"
#include "runner/registry.hpp"
#include "runner/runner.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

using namespace uwbams;
namespace fs = std::filesystem;

namespace {

std::string temp_dir(const char* tag) {
  const fs::path dir = fs::temp_directory_path() /
                       (std::string("uwbams_") + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

// A cheap deterministic scenario the service tests run: one artifact whose
// bytes depend on the seed, plus a short narration line.
REGISTER_SCENARIO(serve_unit_probe, "test", "serve unit-test probe") {
  std::string csv = "index,value\n";
  char buf[64];
  for (int i = 0; i < 8; ++i) {
    std::snprintf(buf, sizeof buf, "%d,%llu\n", i,
                  static_cast<unsigned long long>(ctx.seed * 1000003ULL + i));
    csv += buf;
  }
  ctx.sink.note("probe ran");
  ctx.sink.raw_artifact("probe.csv", csv);
  ctx.sink.raw_artifact("scale.txt",
                        std::string(runner::to_string(ctx.scale)) + "\n");
  return 0;
}

REGISTER_SCENARIO(serve_unit_fails, "test", "serve unit-test failing probe") {
  ctx.sink.raw_artifact("partial.csv", "should never be served\n");
  return 3;
}

// Concurrency probes. serve_unit_rendezvous succeeds only when a second
// body starts while it runs (it waits up to 2 s for one); serve_unit_gate
// records how many bodies ever ran at once.
std::atomic<int> g_rendezvous_arrived{0};
std::atomic<int> g_gate_running{0};
std::atomic<int> g_gate_peak{0};

REGISTER_SCENARIO(serve_unit_rendezvous, "test", "serve rendezvous probe") {
  ++g_rendezvous_arrived;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (g_rendezvous_arrived.load() < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ctx.sink.raw_artifact("seed.txt", std::to_string(ctx.seed) + "\n");
  return g_rendezvous_arrived.load() >= 2 ? 0 : 1;
}

REGISTER_SCENARIO(serve_unit_gate, "test", "serve admission-gate probe") {
  const int now = ++g_gate_running;
  int peak = g_gate_peak.load();
  while (now > peak && !g_gate_peak.compare_exchange_weak(peak, now)) {
  }
  // Hold the slot long enough for every request of the test to arrive.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (g_gate_running.load() < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  --g_gate_running;
  ctx.sink.raw_artifact("seed.txt", std::to_string(ctx.seed) + "\n");
  return 0;
}

std::string run_line(const char* scenario, int seed) {
  return std::string("{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"") +
         scenario + "\",\"scale\":\"fast\",\"seed\":" +
         std::to_string(seed) + "}";
}

// Sends one request per seed, all at once, and returns the responses.
std::vector<std::string> handle_concurrently(serve::ScenarioService& svc,
                                             const char* scenario,
                                             int requests) {
  std::vector<std::string> responses(static_cast<std::size_t>(requests));
  std::vector<std::thread> threads;
  for (int i = 0; i < requests; ++i)
    threads.emplace_back([&, i] {
      responses[static_cast<std::size_t>(i)] =
          svc.handle_line(run_line(scenario, i + 1));
    });
  for (auto& t : threads) t.join();
  return responses;
}

std::string result_of(const std::string& response) {
  // The payload embeds verbatim and is canonical compact, so parse ->
  // dump(0) of the `result` member reproduces its exact bytes.
  return base::parse_json(response).at("result").dump(0);
}

}  // namespace

// -------------------------------------------------------------- ResultCache

TEST(ResultCache, MemoryLruHitsAndEviction) {
  serve::ResultCache cache("", 2);
  std::string out;
  EXPECT_FALSE(cache.get(1, &out));
  cache.put(1, "one");
  cache.put(2, "two");
  ASSERT_TRUE(cache.get(1, &out));  // 1 becomes most-recent
  EXPECT_EQ(out, "one");
  cache.put(3, "three");  // evicts 2, the least-recent
  EXPECT_FALSE(cache.get(2, &out));
  ASSERT_TRUE(cache.get(1, &out));
  ASSERT_TRUE(cache.get(3, &out));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.mem_hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.puts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ResultCache, DiskLevelSurvivesTheInstance) {
  const std::string dir = temp_dir("cache");
  const std::string payload = "{\"x\":1}";
  {
    serve::ResultCache cache(dir, 4);
    cache.put(0xabcdef, payload);
  }
  // No tmp residue: writes are tmp + rename.
  for (const auto& e : fs::directory_iterator(dir))
    EXPECT_EQ(e.path().extension(), ".json") << e.path();
  serve::ResultCache fresh(dir, 4);
  std::string out;
  ASSERT_TRUE(fresh.get(0xabcdef, &out));
  EXPECT_EQ(out, payload);
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  // Promoted to memory: a second get is a memory hit.
  ASSERT_TRUE(fresh.get(0xabcdef, &out));
  EXPECT_EQ(fresh.stats().mem_hits, 1u);
  fs::remove_all(dir);
}

namespace {

// Ages an on-disk entry so the size-capped eviction sees a deterministic
// recency order regardless of filesystem mtime resolution.
void age_entry(const std::string& path, int hours_ago) {
  fs::last_write_time(path, fs::file_time_type::clock::now() -
                                std::chrono::hours(hours_ago));
}

std::uintmax_t dir_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) total += e.file_size();
  return total;
}

}  // namespace

TEST(ResultCache, DiskCapEvictsLeastRecentlyUsed) {
  const std::string dir = temp_dir("cache_cap");
  const std::string payload(100, 'x');
  {
    serve::ResultCache cache(dir, 1);
    cache.set_disk_max_bytes(250);  // fits two 100-byte entries
    cache.put(1, payload);
    age_entry(cache.entry_path(1), 4);
    cache.put(2, payload);
    age_entry(cache.entry_path(2), 3);
    cache.put(3, payload);  // 300 bytes > 250: evicts 1 (oldest)
    age_entry(cache.entry_path(3), 2);
    cache.put(4, payload);  // evicts 2
    EXPECT_EQ(cache.stats().disk_evictions, 2u);
  }
  EXPECT_LE(dir_bytes(dir), 250u);
  serve::ResultCache fresh(dir, 4);
  std::string out;
  EXPECT_FALSE(fresh.get(1, &out));
  EXPECT_FALSE(fresh.get(2, &out));
  EXPECT_TRUE(fresh.get(3, &out));
  EXPECT_TRUE(fresh.get(4, &out));
  fs::remove_all(dir);
}

TEST(ResultCache, DiskReadRefreshesRecencySoHotEntriesSurvive) {
  const std::string dir = temp_dir("cache_touch");
  const std::string payload(100, 'x');
  {
    serve::ResultCache warmup(dir, 1);
    warmup.put(1, payload);
    warmup.put(2, payload);
  }
  age_entry(serve::ResultCache(dir).entry_path(1), 5);  // 1 is the oldest...
  age_entry(serve::ResultCache(dir).entry_path(2), 4);
  serve::ResultCache cache(dir, 1);
  cache.set_disk_max_bytes(250);
  std::string out;
  ASSERT_TRUE(cache.get(1, &out));  // ...but the disk hit touches it hot
  cache.put(3, payload);            // over cap: evicts 2, not 1
  serve::ResultCache fresh(dir, 4);
  EXPECT_TRUE(fresh.get(1, &out));
  EXPECT_FALSE(fresh.get(2, &out));
  EXPECT_TRUE(fresh.get(3, &out));
  fs::remove_all(dir);
}

TEST(ResultCache, OversizedPayloadSparesTheEntryJustWritten) {
  const std::string dir = temp_dir("cache_spare");
  serve::ResultCache cache(dir, 4);
  cache.set_disk_max_bytes(50);
  const std::string payload(100, 'x');  // alone it already exceeds the cap
  cache.put(1, payload);
  EXPECT_EQ(cache.stats().disk_evictions, 0u);  // never deletes itself
  age_entry(cache.entry_path(1), 1);
  cache.put(2, payload);  // evicts 1, spares 2 even though 2 > cap
  EXPECT_EQ(cache.stats().disk_evictions, 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path(1)));
  EXPECT_TRUE(fs::exists(cache.entry_path(2)));
  fs::remove_all(dir);
}

TEST(ResultCache, DiskCapInitializesFromTheEnvironment) {
  const std::string dir = temp_dir("cache_env");
  ::setenv("UWBAMS_CACHE_MAX_MB", "0.5", 1);
  serve::ResultCache capped(dir, 4);
  ::unsetenv("UWBAMS_CACHE_MAX_MB");
  EXPECT_EQ(capped.disk_max_bytes(), 512u * 1024u);
  serve::ResultCache uncapped(dir, 4);
  EXPECT_EQ(uncapped.disk_max_bytes(), 0u);  // default: unbounded
  fs::remove_all(dir);
}

// A malformed UWBAMS_CACHE_MAX_MB must fail loudly, naming the variable,
// rather than silently misconfigure (or overflow) the disk cap.
void expect_cap_rejected(const char* value) {
  const std::string dir = temp_dir("cache_env_bad");
  ::setenv("UWBAMS_CACHE_MAX_MB", value, 1);
  std::string what;
  try {
    serve::ResultCache cache(dir, 4);
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  ::unsetenv("UWBAMS_CACHE_MAX_MB");
  fs::remove_all(dir);
  EXPECT_NE(what.find("UWBAMS_CACHE_MAX_MB"), std::string::npos)
      << "value '" << value << "' was not rejected";
}

TEST(ResultCache, DiskCapRejectsTrailingGarbage) { expect_cap_rejected("1x"); }

TEST(ResultCache, DiskCapRejectsNan) { expect_cap_rejected("nan"); }

TEST(ResultCache, DiskCapRejectsNegative) { expect_cap_rejected("-1"); }

TEST(ResultCache, DiskCapRejectsInfinity) { expect_cap_rejected("inf"); }

TEST(ResultCache, DiskCapRejectsByteCountOverflow) {
  expect_cap_rejected("1e300");
}

// -------------------------------------------------------- protocol parsing

TEST(Protocol, StrictParseAcceptsTheCanonicalLine) {
  serve::Request req;
  req.scenario = "fig6_ber";
  req.scale = runner::Scale::kFast;
  req.seed = 7;
  const serve::Request back = serve::Request::parse(req.to_line());
  EXPECT_EQ(back.scenario, "fig6_ber");
  EXPECT_EQ(back.scale, runner::Scale::kFast);
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.content_key(), req.content_key());
}

TEST(Protocol, MalformedRequestsAreStructuredErrors) {
  const char* bad[] = {
      "",                                            // empty
      "not json at all",                             // garbage
      "{\"schema\":\"uwbams-serve-v1\"",             // truncated
      "[1,2,3]",                                     // not an object
      "{\"op\":\"run\",\"scenario\":\"x\"}",         // missing schema
      "{\"schema\":\"uwbams-serve-v2\",\"scenario\":\"x\"}",  // wrong version
      "{\"schema\":\"uwbams-serve-v1\",\"op\":\"fly\"}",      // unknown op
      "{\"schema\":\"uwbams-serve-v1\"}",            // run without scenario
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"x\",\"sede\":1}",
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"x\",\"scale\":\"big\"}",
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"x\",\"tier\":\"gold\"}",
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"x\",\"seed\":1.5}",
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"x\",\"seed\":\"17\"}",
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"x\",\"seed\":\"0xzz\"}",
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":true}",  // kind mismatch
  };
  for (const char* line : bad)
    EXPECT_THROW(serve::Request::parse(line), serve::ProtocolError) << line;
  // Oversized: refused before parsing.
  std::string huge = "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"";
  huge += std::string(serve::kMaxRequestBytes, 'a');
  huge += "\"}";
  EXPECT_THROW(serve::Request::parse(huge), serve::ProtocolError);
}

TEST(Protocol, SeedAboveDoublePrecisionNeedsHex) {
  // 2^53 + 1 is not exactly representable; the hex form is.
  EXPECT_THROW(
      serve::Request::parse("{\"schema\":\"uwbams-serve-v1\",\"scenario\":"
                            "\"x\",\"seed\":9007199254740993}"),
      serve::ProtocolError);
  const serve::Request req = serve::Request::parse(
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"x\","
      "\"seed\":\"0xdeadbeefcafebabe\"}");
  EXPECT_EQ(req.seed, 0xdeadbeefcafebabeULL);
}

// ------------------------------------------------------- service semantics

TEST(Service, ErrorsAreResponsesNeverCrashesNeverPartialRuns) {
  serve::ResultCache cache;
  base::ParallelRunner pool(1);
  serve::ScenarioService svc(cache, pool);
  for (const std::string& line :
       {std::string("garbage"), std::string("{\"schema\":\"wrong\"}"),
        std::string("{\"schema\":\"uwbams-serve-v1\",\"scenario\":"
                    "\"no_such_scenario\"}")}) {
    const base::JsonValue resp = base::parse_json(svc.handle_line(line));
    EXPECT_EQ(resp.at("status").as_string(), "error") << line;
    EXPECT_FALSE(resp.at("error").as_string().empty()) << line;
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.computations, 0u);  // nothing partially executed
}

TEST(Service, ColdThenWarmIsByteIdenticalAndCached) {
  serve::ResultCache cache;
  base::ParallelRunner pool(2);
  serve::ScenarioService svc(cache, pool);
  const std::string line =
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"serve_unit_probe\","
      "\"scale\":\"fast\",\"seed\":11}";

  const std::string cold = svc.handle_line(line);
  const base::JsonValue cold_doc = base::parse_json(cold);
  EXPECT_EQ(cold_doc.at("status").as_string(), "ok");
  EXPECT_EQ(cold_doc.at("cache").as_string(), "miss");
  const base::JsonValue payload = cold_doc.at("result");
  EXPECT_EQ(payload.at("schema").as_string(), "uwbams-serve-result-v1");
  EXPECT_EQ(payload.at("scenario").as_string(), "serve_unit_probe");
  EXPECT_EQ(payload.at("status").as_number(), 0.0);
  const std::string probe_csv =
      payload.at("artifacts").at("probe.csv").as_string();
  EXPECT_NE(probe_csv.find("0,11000033\n"), std::string::npos);

  const std::string warm = svc.handle_line(line);
  EXPECT_EQ(base::parse_json(warm).at("cache").as_string(), "hit");
  EXPECT_EQ(result_of(warm), result_of(cold));

  // A different seed is a different key: cold again.
  const std::string other = svc.handle_line(
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"serve_unit_probe\","
      "\"scale\":\"fast\",\"seed\":12}");
  EXPECT_EQ(base::parse_json(other).at("cache").as_string(), "miss");
  EXPECT_NE(result_of(other), result_of(cold));

  const auto stats = svc.stats();
  EXPECT_EQ(stats.computations, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

// docs/service.md: name, scale, exactness tier and seed produce
// byte-identical artifacts. Two cold computes of one key, each in a fresh
// cache and service, must return the same bytes — wall times and
// throughput belong in summary.json metrics, never in a served artifact.
TEST(Service, ColdComputesOfOneKeyAreByteIdentical) {
  for (const std::string scenario : {"coex_ber", "yield_report"}) {
    const std::string line =
        "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"" + scenario +
        "\",\"scale\":\"fast\",\"seed\":0}";
    std::string results[2];
    for (std::string& result : results) {
      serve::ResultCache cache;
      base::ParallelRunner pool(2);
      serve::ScenarioService svc(cache, pool);
      const std::string response = svc.handle_line(line);
      const base::JsonValue doc = base::parse_json(response);
      ASSERT_EQ(doc.at("status").as_string(), "ok") << response;
      ASSERT_EQ(doc.at("cache").as_string(), "miss") << scenario;
      result = result_of(response);
    }
    EXPECT_EQ(results[0], results[1]) << scenario;
  }
}

TEST(Service, FailedRunsAreErrorsAndNotCached) {
  serve::ResultCache cache;
  base::ParallelRunner pool(1);
  serve::ScenarioService svc(cache, pool);
  const std::string line =
      "{\"schema\":\"uwbams-serve-v1\",\"scenario\":\"serve_unit_fails\"}";
  for (int attempt = 0; attempt < 2; ++attempt) {
    const base::JsonValue resp = base::parse_json(svc.handle_line(line));
    EXPECT_EQ(resp.at("status").as_string(), "error");
    EXPECT_NE(resp.at("error").as_string().find("serve_unit_fails"),
              std::string::npos);
  }
  // Both attempts computed: a failure must never be served from cache.
  EXPECT_EQ(svc.stats().computations, 2u);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
}

TEST(Service, DistinctKeysComputeConcurrently) {
  g_rendezvous_arrived = 0;
  serve::ResultCache cache;
  base::ParallelRunner pool(2);
  serve::ScenarioService svc(cache, pool);
  for (const std::string& response :
       handle_concurrently(svc, "serve_unit_rendezvous", 2)) {
    const base::JsonValue doc = base::parse_json(response);
    EXPECT_EQ(doc.at("status").as_string(), "ok") << response;
  }
  EXPECT_EQ(svc.stats().computations, 2u);
}

TEST(Service, GateAdmitsAtMostJobsComputations) {
  g_gate_running = 0;
  g_gate_peak = 0;
  serve::ResultCache cache;
  base::ParallelRunner pool(2);
  serve::ScenarioService svc(cache, pool);
  for (const std::string& response :
       handle_concurrently(svc, "serve_unit_gate", 3))
    EXPECT_EQ(base::parse_json(response).at("status").as_string(), "ok")
        << response;
  EXPECT_EQ(g_gate_peak.load(), 2);
  EXPECT_EQ(svc.stats().computations, 3u);
}

TEST(Service, ControlOps) {
  serve::ResultCache cache;
  base::ParallelRunner pool(1);
  serve::ScenarioService svc(cache, pool);
  const base::JsonValue pong = base::parse_json(
      svc.handle_line("{\"schema\":\"uwbams-serve-v1\",\"op\":\"ping\"}"));
  EXPECT_EQ(pong.at("op").as_string(), "ping");
  EXPECT_EQ(pong.at("status").as_string(), "ok");

  const base::JsonValue stats = base::parse_json(
      svc.handle_line("{\"schema\":\"uwbams-serve-v1\",\"op\":\"stats\"}"));
  EXPECT_EQ(stats.at("stats").at("requests").as_number(), 2.0);

  EXPECT_FALSE(svc.shutdown_requested());
  base::parse_json(svc.handle_line(
      "{\"schema\":\"uwbams-serve-v1\",\"op\":\"shutdown\"}"));
  EXPECT_TRUE(svc.shutdown_requested());
  EXPECT_TRUE(svc.wait_shutdown_for(1));
}

// ------------------------------------------------------- characterize memo

TEST(Memo, CharacterizationRoundTripIsExact) {
  core::ItdCharacterization ch;
  ch.ac = {37.123456789012345, 1.25e6, 3.5e9, 0.0625};
  ch.unity_gain_freq = 1.9999999999999998e8;
  ch.input_linear_range = 0.123456789;
  ch.slew_rate = 8.75e6;
  ch.sweep.points.push_back({1e3, {0.1234567890123456, -2.5e-3}});
  ch.sweep.points.push_back({1e9, {-7.0, 1.0 / 3.0}});
  const core::ItdCharacterization back =
      core::memo::characterization_from_json(
          core::memo::characterization_to_json(ch));
  EXPECT_EQ(back.ac.dc_gain_db, ch.ac.dc_gain_db);
  EXPECT_EQ(back.ac.f_pole1, ch.ac.f_pole1);
  EXPECT_EQ(back.ac.f_pole2, ch.ac.f_pole2);
  EXPECT_EQ(back.ac.rms_error_db, ch.ac.rms_error_db);
  EXPECT_EQ(back.unity_gain_freq, ch.unity_gain_freq);
  EXPECT_EQ(back.input_linear_range, ch.input_linear_range);
  EXPECT_EQ(back.slew_rate, ch.slew_rate);
  ASSERT_EQ(back.sweep.points.size(), ch.sweep.points.size());
  for (std::size_t i = 0; i < ch.sweep.points.size(); ++i) {
    EXPECT_EQ(back.sweep.points[i].freq, ch.sweep.points[i].freq);
    EXPECT_EQ(back.sweep.points[i].value, ch.sweep.points[i].value);
  }
}

TEST(Memo, KeysOnEveryKnobAndCodeVersion) {
  const spice::ItdSizing sizing;
  core::CharacterizeOptions opts;
  const std::uint64_t key = core::memo::characterize_content_key(sizing, opts);

  spice::ItdSizing other_sizing;
  other_sizing.c_int *= 2.0;
  EXPECT_NE(core::memo::characterize_content_key(other_sizing, opts), key);

  core::CharacterizeOptions other_opts;
  other_opts.points_per_decade += 1;
  EXPECT_NE(core::memo::characterize_content_key(sizing, other_opts), key);

  core::CharacterizeOptions other_transient;
  other_transient.transient.reltol *= 0.5;
  EXPECT_NE(core::memo::characterize_content_key(sizing, other_transient),
            key);
}

namespace {

// A deliberately coarse, transient-free setup keeps the memo tests fast;
// the memo key covers these knobs, so the coarse entries cannot leak into
// a full-fidelity caller.
core::CharacterizeOptions coarse_characterization() {
  core::CharacterizeOptions opts;
  opts.points_per_decade = 2;
  opts.measure_linear_range = false;
  opts.measure_slew = false;
  return opts;
}

}  // namespace

TEST(Memo, RepeatCharacterizationIsAMemoryHitAndBitIdentical) {
  core::memo::reset_for_tests();
  const core::CharacterizeOptions opts = coarse_characterization();
  const auto cold = core::memo::characterize_itd_cached({}, opts);
  EXPECT_EQ(core::memo::stats().misses, 1u);
  const auto warm = core::memo::characterize_itd_cached({}, opts);
  EXPECT_EQ(core::memo::stats().mem_hits, 1u);
  EXPECT_EQ(warm.ac.dc_gain_db, cold.ac.dc_gain_db);
  EXPECT_EQ(warm.ac.f_pole1, cold.ac.f_pole1);
  EXPECT_EQ(warm.ac.f_pole2, cold.ac.f_pole2);
  EXPECT_EQ(warm.unity_gain_freq, cold.unity_gain_freq);
  ASSERT_EQ(warm.sweep.points.size(), cold.sweep.points.size());
  for (std::size_t i = 0; i < cold.sweep.points.size(); ++i)
    EXPECT_EQ(warm.sweep.points[i].value, cold.sweep.points[i].value);
  // The memo result matches a direct, un-memoized call bit for bit.
  const auto direct = core::characterize_itd({}, opts);
  EXPECT_EQ(warm.ac.dc_gain_db, direct.ac.dc_gain_db);
  EXPECT_EQ(warm.slew_rate, direct.slew_rate);
  core::memo::reset_for_tests();
}

TEST(Memo, ConcurrentLookupsAgreeAndAreCounted) {
  core::memo::reset_for_tests();
  const core::memo::Codec<std::string> codec{
      [](const std::string& v) { return v; },
      [](const std::string& text) { return text; }};
  constexpr int kThreads = 8, kCalls = 50, kKeys = 10;
  // Each compute is slow enough that callers of its key overlap with it;
  // the memo is single-flight, so every key computes exactly once.
  std::atomic<int> computes{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kCalls; ++c) {
        const int i = (t + c) % kKeys;
        base::JsonObject fields;
        fields["i"] = base::JsonValue(i);
        const std::string want = "value-" + std::to_string(i);
        const std::string got = core::memo::memoize(
            core::canonical::content_key("uwbams-memo-unit/1", fields), codec,
            [&] {
              ++computes;
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              return want;
            });
        if (got != want) ++wrong;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const auto st = core::memo::stats();
  EXPECT_EQ(st.mem_hits + st.misses,
            static_cast<std::uint64_t>(kThreads * kCalls));
  EXPECT_EQ(st.misses, static_cast<std::uint64_t>(computes.load()));
  EXPECT_EQ(computes.load(), kKeys);
  core::memo::reset_for_tests();
}

// ------------------------------------------------------- surrogate memo

namespace {

// A one-cell, two-sample calibration: cheap enough to run several times.
net::CalibrationConfig tiny_calibration(std::uint64_t seed) {
  net::CalibrationConfig cfg;
  cfg.ranges_m = {5.0};
  cfg.noise_psd = {8e-19};
  cfg.dppm = {0.0};
  cfg.samples_per_cell = 2;
  cfg.seed = seed;  // a key no other test warms
  return cfg;
}

}  // namespace

TEST(SurrogateMemo, KeysOnEveryKnob) {
  net::CalibrationConfig cfg;
  const std::uint64_t key =
      net::surrogate_content_key(cfg, core::IntegratorKind::kIdeal);

  EXPECT_NE(net::surrogate_content_key(cfg, core::IntegratorKind::kBehavioral),
            key);

  net::CalibrationConfig c1 = cfg;
  c1.seed += 1;
  EXPECT_NE(net::surrogate_content_key(c1, core::IntegratorKind::kIdeal), key);

  net::CalibrationConfig c2 = cfg;
  c2.samples_per_cell += 1;
  EXPECT_NE(net::surrogate_content_key(c2, core::IntegratorKind::kIdeal), key);

  net::CalibrationConfig c3 = cfg;
  c3.ranges_m.push_back(13.0);
  EXPECT_NE(net::surrogate_content_key(c3, core::IntegratorKind::kIdeal), key);

  net::CalibrationConfig c4 = cfg;
  c4.twr.sys.dt *= 2.0;
  EXPECT_NE(net::surrogate_content_key(c4, core::IntegratorKind::kIdeal), key);

  net::CalibrationConfig c5 = cfg;
  c5.outlier_threshold_m *= 2.0;
  EXPECT_NE(net::surrogate_content_key(c5, core::IntegratorKind::kIdeal), key);
}

TEST(SurrogateMemo, RepeatCalibrationIsAMemoHit) {
  const net::CalibrationConfig cfg = tiny_calibration(424242);
  base::ParallelRunner pool(2);

  std::optional<int> quar;
  const auto cold = net::load_or_calibrate_surrogate(
      cfg, core::IntegratorKind::kIdeal, &pool, &quar);
  ASSERT_TRUE(quar.has_value());  // the calibration ran
  EXPECT_GE(*quar, 0);

  quar.reset();
  const auto warm = net::load_or_calibrate_surrogate(
      cfg, core::IntegratorKind::kIdeal, &pool, &quar);
  EXPECT_FALSE(quar.has_value());  // nothing ran
  EXPECT_TRUE(warm == cold);                  // table-level equality
  EXPECT_EQ(warm.to_json(), cold.to_json());  // byte-level equality
}

// ---------------------------------------------- memo under UWBAMS_MEMO=0

TEST(MemoOff, EveryCallComputes) {
  if (core::memo::enabled()) GTEST_SKIP() << "needs UWBAMS_MEMO=0";
  const net::CalibrationConfig cfg = tiny_calibration(515151);
  base::ParallelRunner pool(2);
  for (int call = 0; call < 2; ++call) {
    std::optional<int> quar;
    net::load_or_calibrate_surrogate(cfg, core::IntegratorKind::kIdeal, &pool,
                                     &quar);
    EXPECT_TRUE(quar.has_value()) << "call " << call << " did not calibrate";
  }
  const core::CharacterizeOptions opts = coarse_characterization();
  core::memo::characterize_itd_cached({}, opts);
  core::memo::characterize_itd_cached({}, opts);
  const auto st = core::memo::stats();
  EXPECT_EQ(st.mem_hits + st.disk_hits + st.misses, 0u);
}

// ------------------------------------------ memo over a UWBAMS_CACHE store

namespace {

// Overwrites the store entry of `key` with a torn document, the state a
// copy interrupted mid-write or a hand edit leaves behind.
void tear_entry(const std::string& dir, std::uint64_t key) {
  std::ofstream(serve::ResultCache(dir, 1).entry_path(key), std::ios::trunc)
      << "{\"schema\": \"uwbams-";
}

std::string read_entry(const std::string& dir, std::uint64_t key) {
  std::ifstream in(serve::ResultCache(dir, 1).entry_path(key));
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

TEST(MemoDisk, TornCharacterizationEntryIsRecomputed) {
  const char* dir = std::getenv("UWBAMS_CACHE");
  if (dir == nullptr || !core::memo::enabled())
    GTEST_SKIP() << "needs UWBAMS_CACHE";
  const core::CharacterizeOptions opts = coarse_characterization();
  const std::uint64_t key = core::memo::characterize_content_key({}, opts);
  tear_entry(dir, key);
  core::memo::reset_for_tests();

  const auto healed = core::memo::characterize_itd_cached({}, opts);
  EXPECT_EQ(core::memo::stats().misses, 1u);
  const auto direct = core::characterize_itd({}, opts);
  EXPECT_EQ(core::memo::characterization_to_json(healed),
            core::memo::characterization_to_json(direct));

  // The recompute overwrote the torn entry, which now decodes.
  EXPECT_EQ(read_entry(dir, key), core::memo::characterization_to_json(direct));
  core::memo::reset_for_tests();
  const auto warm = core::memo::characterize_itd_cached({}, opts);
  EXPECT_EQ(core::memo::stats().disk_hits, 1u);
  EXPECT_EQ(core::memo::characterization_to_json(warm),
            core::memo::characterization_to_json(direct));
}

TEST(MemoDisk, TornSurrogateEntryIsRecomputed) {
  const char* dir = std::getenv("UWBAMS_CACHE");
  if (dir == nullptr || !core::memo::enabled())
    GTEST_SKIP() << "needs UWBAMS_CACHE";
  const net::CalibrationConfig cfg = tiny_calibration(626262);
  base::ParallelRunner pool(2);
  const std::uint64_t key =
      net::surrogate_content_key(cfg, core::IntegratorKind::kIdeal);
  tear_entry(dir, key);
  core::memo::reset_for_tests();

  std::optional<int> quar;
  const auto healed = net::load_or_calibrate_surrogate(
      cfg, core::IntegratorKind::kIdeal, &pool, &quar);
  EXPECT_TRUE(quar.has_value());  // the torn entry was a miss
  EXPECT_EQ(read_entry(dir, key), healed.to_json());

  core::memo::reset_for_tests();
  quar.reset();
  const auto warm = net::load_or_calibrate_surrogate(
      cfg, core::IntegratorKind::kIdeal, &pool, &quar);
  EXPECT_FALSE(quar.has_value());  // the rewritten entry decodes
  EXPECT_EQ(core::memo::stats().disk_hits, 1u);
  EXPECT_EQ(warm.to_json(), healed.to_json());
}
