// perfbench_trace — the traced run of the repository benchmark.
//
// Re-runs one benchmark workload in-process, calling each layer's public
// functions directly, and records a span around every call plus counter
// deltas from the public snapshots (spice::engine_counters, core::memo,
// serve::ResultCache, ScenarioService, net::RoundStats). Nothing inside
// src/ is instrumented: every number here is measured at a layer boundary
// from the outside.
//
//   perfbench_trace cosim    --seed=N --jobs=N --out=DIR
//   perfbench_trace netscale --seed=N --jobs=N --out=DIR
//   perfbench_trace serve    --seed=N --jobs=N --out=DIR --requests=FILE
//
// Prints one JSON object on stdout:
//   {"wall_s": <traced workload wall>, "attempted": n, "failed": n,
//    "metrics": {"<layer>.<name>": number, ...}}
// with the metrics this workload's calls and probes measure, and writes
// every recorded span to DIR/spans.jsonl (one JSON object per line: id,
// parent, name, start and end in seconds since the program started).
// `wall_s` covers the workload's own calls only; the extra probes
// (per-exchange timing, channel draws, cache and characterization probes)
// run after it and are not part of it. Every workload reports
// spice.workload.*, the engine counter deltas over its own calls.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/parallel.hpp"
#include "core/block_variant.hpp"
#include "core/characterize.hpp"
#include "core/equiv.hpp"
#include "core/memo.hpp"
#include "net/calibrate.hpp"
#include "net/engine.hpp"
#include "net/surrogate.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "spice/engine_counters.hpp"
#include "uwb/ber.hpp"
#include "uwb/channel.hpp"

using namespace uwbams;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ------------------------------------------------------------------ spans
struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  double t0 = 0.0, t1 = 0.0;
};

class Tracer {
 public:
  int begin(const std::string& name, int parent) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.name = name;
    s.t0 = now_s();
    spans_.push_back(s);
    return s.id;
  }
  // Returns the span's duration in seconds.
  double end(int id) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
    return t - spans_[static_cast<std::size_t>(id)].t0;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    char buf[128];
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof buf, "\", \"t0\": %.9f, \"t1\": %.9f}\n",
                    s.t0, s.t1);
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << buf;
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

// RAII span; seconds() ends it early and returns its duration.
class Scope {
 public:
  Scope(const std::string& name, int parent = -1)
      : id_(g_tracer.begin(name, parent)) {}
  ~Scope() {
    if (!ended_) g_tracer.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }
  double seconds() {
    ended_ = true;
    return g_tracer.end(id_);
  }

 private:
  int id_;
  bool ended_ = false;
};

// --------------------------------------------------------------- helpers
using Metrics = std::map<std::string, double>;

// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int jobs = 1;
  std::string out_dir = ".";
  std::string requests;
};

std::uint64_t memo_hits(const core::memo::Stats& s) {
  return s.mem_hits + s.disk_hits + s.channel_mem_hits + s.channel_disk_hits;
}
std::uint64_t memo_misses(const core::memo::Stats& s) {
  return s.misses + s.channel_misses;
}

// ------------------------------------------------------------ cosim_ber
// One BER point: what fig6_ber / agc_operating_point hand each pool task.
struct PointRun {
  bool spice = false;
  double seconds = 0.0;
  uwb::BerPoint point;
};

PointRun run_point(const uwb::BerConfig& cfg, core::IntegratorKind kind,
                   const core::VariantOptions& variant, int parent) {
  PointRun r;
  r.spice = kind == core::IntegratorKind::kSpice;
  Scope span(r.spice ? "uwb.run_ber_sweep[spice]" : "uwb.run_ber_sweep[ideal]",
             parent);
  r.point = uwb::run_ber_sweep(
      cfg, core::make_integrator_factory(kind, cfg.sys, variant))[0];
  r.seconds = span.seconds();
  return r;
}

void record_spice(Metrics* m, const std::string& req,
                  const spice::EngineCounterSnapshot& a,
                  const spice::EngineCounterSnapshot& b) {
  const double steps = static_cast<double>(b.steps - a.steps);
  const std::string p = "spice." + req + ".";
  (*m)[p + "steps"] = steps;
  (*m)[p + "newton_iters"] =
      static_cast<double>(b.newton_iterations - a.newton_iterations);
  (*m)[p + "newton_per_step"] =
      ratio(static_cast<double>(b.newton_iterations - a.newton_iterations),
            steps);
  (*m)[p + "refactor_per_step"] =
      ratio(static_cast<double>(b.refactorizations - a.refactorizations),
            steps);
  (*m)[p + "factorizations"] =
      static_cast<double>(b.factorizations - a.factorizations);
  (*m)[p + "solves"] = static_cast<double>(b.solves - a.solves);
  (*m)[p + "rejected_steps"] =
      static_cast<double>(b.rejected_steps - a.rejected_steps);
  (*m)[p + "fallback_steps"] =
      static_cast<double>(b.fallback_steps - a.fallback_steps);
  (*m)[p + "failures"] = static_cast<double>(
      (b.singular_failures - a.singular_failures) +
      (b.nonconverged_failures - a.nonconverged_failures));
  (*m)[p + "op_solves"] = static_cast<double>(b.op_solves - a.op_solves);
}

// Engine work of the whole workload, whichever layer drove it.
void record_workload_spice(Metrics* m, const spice::EngineCounterSnapshot& a,
                           const spice::EngineCounterSnapshot& b) {
  (*m)["spice.workload.steps"] = static_cast<double>(b.steps - a.steps);
  (*m)["spice.workload.newton_iters"] =
      static_cast<double>(b.newton_iterations - a.newton_iterations);
  (*m)["spice.workload.op_solves"] =
      static_cast<double>(b.op_solves - a.op_solves);
}

// fig6_ber at --scale=fast: (integrator kind) x (Eb/N0) points, kind the
// outer axis, exactly the scenario's configuration.
std::vector<PointRun> fig6_points(const Options& o,
                                  const base::ParallelRunner& pool,
                                  core::ExactnessTier tier, int parent,
                                  double* map_wall) {
  uwb::BerConfig base;
  base.sys.dt = 0.2e-9;
  base.sys.seed = o.seed;
  base.ebn0_db = {0, 2, 4, 6, 8, 10, 12, 14, 16};
  base.max_bits = 1000;
  base.min_errors = 20;
  const std::size_t npts = base.ebn0_db.size();
  const core::IntegratorKind kinds[] = {core::IntegratorKind::kIdeal,
                                        core::IntegratorKind::kSpice};
  const core::VariantOptions variant = core::variant_for_tier(tier);
  Scope span("base.ParallelRunner::map", parent);
  auto runs = pool.map<PointRun>(2 * npts, [&](std::size_t t) {
    uwb::BerConfig c = base;
    c.ebn0_db = {base.ebn0_db[t % npts]};
    return run_point(c, kinds[t / npts], variant, span.id());
  });
  *map_wall = span.seconds();
  return runs;
}

// agc_operating_point: (target fraction) x (integrator kind), kind inner.
std::vector<PointRun> agc_points(const Options& o,
                                 const base::ParallelRunner& pool,
                                 int parent) {
  const std::vector<double> fractions = {0.10, 0.14, 0.22, 0.30};
  const core::IntegratorKind kinds[] = {core::IntegratorKind::kIdeal,
                                        core::IntegratorKind::kSpice};
  Scope span("base.ParallelRunner::map", parent);
  return pool.map<PointRun>(2 * fractions.size(), [&](std::size_t t) {
    uwb::BerConfig cfg;
    cfg.sys.dt = 0.2e-9;
    cfg.sys.seed = o.seed;
    cfg.ebn0_db = {14.0};
    cfg.calibration_fraction = fractions[t / 2];
    cfg.max_bits = 1500;
    cfg.min_errors = 30;
    return run_point(cfg, kinds[t % 2], {}, span.id());
  });
}

double run_cosim(const Options& o, Metrics* m, int* attempted, int* failed) {
  const base::ParallelRunner pool(o.jobs);
  double wall = 0.0;
  double spice_s = 0.0, ideal_s = 0.0, ideal_bits = 0.0;
  double spice_steps = 0.0;
  const auto account = [&](const std::vector<PointRun>& runs) {
    for (const PointRun& r : runs) {
      ++*attempted;
      if (r.point.quarantined) ++*failed;
      if (r.spice) {
        spice_s += r.seconds;
      } else {
        ideal_s += r.seconds;
        ideal_bits += static_cast<double>(r.point.bits);
      }
    }
  };

  struct Request {
    const char* name;
    int kind;  // 0 fig6 bit_exact, 1 fig6 stat_equiv, 2 agc
  };
  const Request requests[] = {
      {"fig6_exact", 0}, {"fig6_stat", 1}, {"agc", 2}};
  const auto spice0 = spice::engine_counters::snapshot();
  for (const Request& req : requests) {
    const auto c0 = spice::engine_counters::snapshot();
    Scope span(std::string("cosim.") + req.name);
    std::vector<PointRun> runs;
    if (req.kind == 2) {
      runs = agc_points(o, pool, span.id());
    } else {
      double map_wall = 0.0;
      runs = fig6_points(o, pool,
                         req.kind == 0 ? core::ExactnessTier::kBitExact
                                       : core::ExactnessTier::kStatEquiv,
                         span.id(), &map_wall);
      if (req.kind == 0) {
        std::vector<double> task_s;
        double quarantined = 0.0;
        for (const PointRun& r : runs) {
          task_s.push_back(r.seconds);
          if (r.point.quarantined) quarantined += 1.0;
        }
        (*m)["base.parallel.tasks"] = static_cast<double>(task_s.size());
        (*m)["base.parallel.straggler_ratio"] = ratio(
            *std::max_element(task_s.begin(), task_s.end()),
            percentile(task_s, 0.5));
        (*m)["base.parallel.idle_frac"] =
            1.0 - ratio(sum(task_s), pool.jobs() * map_wall);
        (*m)["base.parallel.quarantined"] = quarantined;
      }
    }
    wall += span.seconds();
    const auto c1 = spice::engine_counters::snapshot();
    record_spice(m, req.name, c0, c1);
    spice_steps += static_cast<double>(c1.steps - c0.steps);
    account(runs);
  }
  record_workload_spice(m, spice0, spice::engine_counters::snapshot());
  (*m)["spice.point_s"] = spice_s;
  (*m)["spice.ns_per_step"] = ratio(spice_s * 1e9, spice_steps);
  (*m)["uwb.ideal_point_s"] = ideal_s;
  (*m)["uwb.ideal_bits_per_s"] = ratio(ideal_bits, ideal_s);
  return wall;
}

// ------------------------------------------------------------- netscale
// surrogate_fit at --scale=fast.
net::CalibrationConfig fit_config(std::uint64_t seed) {
  net::CalibrationConfig cal;
  cal.twr.sys.dt = 0.2e-9;
  cal.seed = seed;
  cal.ranges_m = {5.0, 9.0};
  cal.noise_psd = {8e-19};
  cal.dppm = {0.0, 40.0};
  cal.channel_class = {0.0, 2.0};
  cal.samples_per_cell = 10;
  return cal;
}

// netscale_static at --scale=full.
net::NetScaleConfig static_config(std::uint64_t seed) {
  net::NetScaleConfig cfg;
  cfg.seed = seed;
  cfg.area_m = 210.0;
  cfg.anchor_grid = 42;
  cfg.tag_count = 18236;
  cfg.rounds = 6;
  cfg.exchanges_per_link = 3;
  cfg.noise_psd = 8e-19;
  cfg.ppm_spread = 20.0;
  return cfg;
}

double run_netscale(const Options& o, Metrics* m, int* attempted,
                    int* failed) {
  const base::ParallelRunner pool(o.jobs);
  const auto cal = fit_config(o.seed);
  const int held_out = 6;
  const auto fact =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cal.twr.sys);
  const auto memo0 = core::memo::stats();
  const auto spice0 = spice::engine_counters::snapshot();

  int quarantined = 0;
  Scope cal_span("net.calibrate_surrogate");
  const net::SurrogateTable table =
      net::calibrate_surrogate(cal, fact, &pool, &quarantined);
  (*m)["net.calibrate_s"] = cal_span.seconds();

  Scope val_span("net.validate_surrogate");
  const auto report = net::validate_surrogate(table, cal, held_out, fact, &pool);
  (*m)["net.validate_s"] = val_span.seconds();

  Scope io_span("net.SurrogateTable::to_json+from_json");
  const std::string json = table.to_json();
  const net::SurrogateTable loaded = net::SurrogateTable::from_json(json);
  (*m)["net.surrogate_io_ms"] = io_span.seconds() * 1e3;
  std::ofstream(o.out_dir + "/surrogate.json") << json;

  const auto cfg = static_config(o.seed);
  Scope init_span("net.NetScaleEngine::NetScaleEngine");
  net::NetScaleEngine eng(cfg, loaded);
  (*m)["net.engine_init_s"] = init_span.seconds();

  Scope run_span("net.NetScaleEngine::run");
  const auto res = eng.run(&pool);
  (*m)["net.engine_run_s"] = run_span.seconds();
  const double wall = (*m)["net.calibrate_s"] + (*m)["net.validate_s"] +
                      (*m)["net.surrogate_io_ms"] * 1e-3 +
                      (*m)["net.engine_init_s"] + (*m)["net.engine_run_s"];
  const auto memo1 = core::memo::stats();
  record_workload_spice(m, spice0, spice::engine_counters::snapshot());

  double exchanges = 0.0, fails = 0.0;
  for (const auto& c : table.cells()) {
    exchanges += c.samples;
    fails += c.samples - c.ok;
  }
  for (const auto& v : report.cells) {
    exchanges += v.samples;
    fails += v.samples - v.ok;
  }
  const double tag_rounds = static_cast<double>(cfg.tag_count) * cfg.rounds;
  double solved = 0.0;
  for (const auto& st : res.rounds) solved += st.tags_solved;
  (*m)["net.exchanges"] = exchanges;
  (*m)["net.exchange_fail_ratio"] = ratio(fails, exchanges);
  (*m)["net.toa_draws"] = static_cast<double>(res.total_draws);
  (*m)["net.draws_per_tag_round"] =
      ratio(static_cast<double>(res.total_draws), tag_rounds);
  (*m)["net.solve_ratio"] = ratio(solved, tag_rounds);
  (*m)["net.us_per_tag_round"] =
      ratio((*m)["net.engine_run_s"] * 1e6, tag_rounds);
  (*m)["core.memo.hits"] = static_cast<double>(memo_hits(memo1) -
                                               memo_hits(memo0));
  (*m)["core.memo.misses"] = static_cast<double>(memo_misses(memo1) -
                                                 memo_misses(memo0));
  // The scenarios' own acceptance gates, and no quarantined work.
  namespace accept = core::accept;
  *attempted += 3;
  if (report.checked == 0 ||
      !accept::fraction_at_least(
          static_cast<std::uint64_t>(report.passed),
          static_cast<std::uint64_t>(report.checked),
          accept::kSurrogateMinCellPassFraction))
    ++*failed;
  if (res.overall_availability < accept::kNetscaleMinAvailability ||
      res.overall_rmse_m > accept::kNetscaleRmseGateM)
    ++*failed;
  if (quarantined + report.quarantined > 0 || res.quarantined > 0) ++*failed;

  // Probe: one timed span per full-physics TWR exchange (the calibration
  // grid once over, on the same pool).
  {
    const std::size_t cells = cal.cell_count();
    const auto per = static_cast<std::size_t>(cal.samples_per_cell);
    Scope probe("probe.run_calibration_exchange");
    const auto ms = pool.map<double>(cells * per, [&](std::size_t i) {
      Scope span("uwb.TwoWayRanging(exchange)", probe.id());
      net::run_calibration_exchange(cal, i / per, static_cast<int>(i % per),
                                    net::kCalibratePurpose, fact);
      return span.seconds() * 1e3;
    });
    (*m)["uwb.twr_exchange_ms_p50"] = percentile(ms, 0.5);
    (*m)["uwb.twr_exchange_ms_p99"] = percentile(ms, 0.99);
  }
  // Probe: channel draws of the two calibrated classes, fresh seeds (memo
  // misses), microseconds per realization.
  {
    std::vector<double> us;
    const int count = 4;
    for (const auto cls : {uwb::ChannelClass::kCm1, uwb::ChannelClass::kCm3})
      for (int i = 0; i < 32; ++i) {
        Scope span("uwb.draw_realizations");
        uwb::draw_realizations(cls, uwb::channel_class_params(cls),
                               o.seed * 1000003ULL + 7919ULL * i +
                                   static_cast<std::uint64_t>(cls),
                               count);
        us.push_back(span.seconds() * 1e6 / count);
      }
    (*m)["uwb.channel_draw_us"] = percentile(us, 0.5);
  }
  return wall;
}

// ------------------------------------------------------------ serve_mix
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open requests file " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// The response's `cache` field ("hit" | "miss" | "coalesced"), or "" for
// an error response. Responses of a successful run start with
// {"cache":"<state>" (see ScenarioService::respond).
std::string cache_state(const std::string& resp) {
  const std::string prefix = "{\"cache\":\"";
  if (resp.rfind(prefix, 0) != 0) return "";
  const auto end = resp.find('"', prefix.size());
  return end == std::string::npos ? ""
                                  : resp.substr(prefix.size(), end - prefix.size());
}

// The verbatim `result` payload of a successful response.
std::string result_bytes(const std::string& resp) {
  const std::string head = "\",\"result\":";
  const std::string tail = ",\"schema\":\"";
  const auto b = resp.find(head);
  const auto e = resp.rfind(tail);
  if (b == std::string::npos || e == std::string::npos || e < b) return "";
  return resp.substr(b + head.size(), e - b - head.size());
}

double run_serve(const Options& o, Metrics* m, int* attempted, int* failed) {
  const auto lines = read_lines(o.requests);
  const std::string cache_dir = o.out_dir + "/cache";
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  // What uwbams_serve --cache=DIR does: the memo layers share the store.
  ::setenv("UWBAMS_CACHE", cache_dir.c_str(), 1);

  // Protocol parse and canonical content key, per request line.
  {
    std::vector<double> parse_us, key_us;
    for (const auto& line : lines) {
      Scope ps("serve.Request::parse");
      const auto req = serve::Request::parse(line);
      parse_us.push_back(ps.seconds() * 1e6);
      Scope ks("core.canonical.content_key");
      volatile std::uint64_t key = req.content_key();
      (void)key;
      key_us.push_back(ks.seconds() * 1e6);
    }
    (*m)["serve.protocol_parse_us"] = percentile(parse_us, 0.5);
    (*m)["core.key_us"] = percentile(key_us, 0.5);
  }

  serve::ResultCache cache(cache_dir, 16);
  base::ParallelRunner pool(o.jobs);
  serve::ScenarioService service(cache, pool);
  const auto memo0 = core::memo::stats();
  const auto spice0 = spice::engine_counters::snapshot();

  // Closed loop over 3 workers pulling from one shared request sequence,
  // as the socket client does with its 3 connections.
  struct Outcome {
    std::string state;
    double seconds = 0.0;
    std::string result;
  };
  std::vector<Outcome> outcomes(lines.size());
  std::atomic<std::size_t> next{0};
  Scope replay("serve.replay");
  const int replay_id = replay.id();
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w)
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < lines.size();) {
        Scope span("serve.ScenarioService::handle_line", replay_id);
        const std::string resp = service.handle_line(lines[i]);
        outcomes[i].seconds = span.seconds();
        outcomes[i].state = cache_state(resp);
        outcomes[i].result = result_bytes(resp);
      }
    });
  for (auto& t : workers) t.join();
  const double wall = replay.seconds();
  const auto memo1 = core::memo::stats();
  record_workload_spice(m, spice0, spice::engine_counters::snapshot());

  std::vector<double> hit_us, miss_ms;
  std::map<std::string, const std::string*> first;  // request line -> result
  std::map<std::string, std::size_t> miss_sizes;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Outcome& r = outcomes[i];
    ++*attempted;
    if (r.state.empty() || r.result.empty()) {
      ++*failed;
      continue;
    }
    auto [it, inserted] = first.emplace(lines[i], &r.result);
    if (!inserted && *it->second != r.result) ++*failed;
    if (r.state == "hit") hit_us.push_back(r.seconds * 1e6);
    if (r.state == "miss") {
      miss_ms.push_back(r.seconds * 1e3);
      miss_sizes[lines[i]] = r.result.size();
    }
  }
  (*m)["serve.handle_hit_us_p50"] = percentile(hit_us, 0.5);
  (*m)["serve.handle_hit_us_p99"] = percentile(hit_us, 0.99);
  (*m)["serve.handle_miss_ms_p50"] = percentile(miss_ms, 0.5);
  (*m)["serve.handle_miss_ms_p99"] = percentile(miss_ms, 0.99);

  const auto ss = service.stats();
  const auto cs = cache.stats();
  (*m)["serve.cache.mem_hits"] = static_cast<double>(cs.mem_hits);
  (*m)["serve.cache.disk_hits"] = static_cast<double>(cs.disk_hits);
  (*m)["serve.cache.misses"] = static_cast<double>(cs.misses);
  (*m)["serve.cache.puts"] = static_cast<double>(cs.puts);
  (*m)["serve.cache.evictions"] = static_cast<double>(cs.evictions);
  (*m)["serve.cache.disk_evictions"] = static_cast<double>(cs.disk_evictions);
  (*m)["serve.hit_ratio"] =
      ratio(static_cast<double>(ss.cache_hits), static_cast<double>(lines.size()));
  (*m)["serve.coalesced"] = static_cast<double>(ss.coalesced);
  (*m)["serve.computations"] = static_cast<double>(ss.computations);
  (*m)["serve.errors"] = static_cast<double>(ss.errors);
  (*m)["core.memo.hits"] = static_cast<double>(memo_hits(memo1) -
                                               memo_hits(memo0));
  (*m)["core.memo.misses"] = static_cast<double>(memo_misses(memo1) -
                                                 memo_misses(memo0));

  // Probe: direct ResultCache calls at the workload's payload sizes. All
  // payloads are put into a fresh store; the last 16 (the memory LRU) are
  // read back from memory; a second instance over the same directory reads
  // every entry from disk.
  {
    const std::string probe_dir = o.out_dir + "/cache_probe";
    std::filesystem::remove_all(probe_dir);
    std::vector<std::size_t> sizes;
    for (const auto& [line, size] : miss_sizes) sizes.push_back(size);
    std::vector<double> put_us, mem_us, disk_us;
    std::string out;
    {
      serve::ResultCache probe(probe_dir, 16);
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        const std::string payload(sizes[k], 'x');
        Scope span("serve.ResultCache::put");
        probe.put(k, payload);
        put_us.push_back(span.seconds() * 1e6);
      }
      for (std::size_t k = sizes.size() > 16 ? sizes.size() - 16 : 0;
           k < sizes.size(); ++k) {
        Scope span("serve.ResultCache::get[mem]");
        probe.get(k, &out);
        mem_us.push_back(span.seconds() * 1e6);
      }
    }
    serve::ResultCache cold(probe_dir, 16);
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      Scope span("serve.ResultCache::get[disk]");
      if (!cold.get(k, &out) || out.size() != sizes[k]) ++*failed;
      disk_us.push_back(span.seconds() * 1e6);
    }
    ++*attempted;
    (*m)["serve.cache.put_us"] = percentile(put_us, 0.5);
    (*m)["serve.cache.get_mem_us"] = percentile(mem_us, 0.5);
    (*m)["serve.cache.get_disk_us"] = percentile(disk_us, 0.5);
    std::filesystem::remove_all(probe_dir);
  }
  // Probe: one uncached characterization of the default I&D cell.
  {
    Scope span("core.characterize_itd");
    core::characterize_itd();
    (*m)["core.characterize_s"] = span.seconds();
  }
  return wall;
}

bool take(const std::string& arg, const char* key, std::string* value) {
  const std::string k = std::string(key) + "=";
  if (arg.rfind(k, 0) != 0) return false;
  *value = arg.substr(k.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (take(arg, "--seed", &v)) {
      o.seed = std::stoull(v);
    } else if (take(arg, "--jobs", &v)) {
      o.jobs = std::stoi(v);
    } else if (take(arg, "--out", &v)) {
      o.out_dir = v;
    } else if (take(arg, "--requests", &v)) {
      o.requests = v;
    } else if (o.workload.empty() && arg.rfind("--", 0) != 0) {
      o.workload = arg;
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (o.workload != "cosim" && o.workload != "netscale" &&
      o.workload != "serve") {
    std::fprintf(stderr,
                 "usage: perfbench_trace cosim|netscale|serve --seed=N "
                 "--jobs=N --out=DIR [--requests=FILE]\n");
    return 2;
  }
  if (o.workload == "serve" && o.requests.empty()) {
    std::fprintf(stderr, "perfbench_trace: serve needs --requests=FILE\n");
    return 2;
  }
  std::filesystem::create_directories(o.out_dir);

  Metrics m;
  int attempted = 0, failed = 0;
  double wall = 0.0;
  try {
    if (o.workload == "cosim") wall = run_cosim(o, &m, &attempted, &failed);
    if (o.workload == "netscale")
      wall = run_netscale(o, &m, &attempted, &failed);
    if (o.workload == "serve") wall = run_serve(o, &m, &attempted, &failed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s failed: %s\n",
                 o.workload.c_str(), e.what());
    return 1;
  }
  g_tracer.write(o.out_dir + "/spans.jsonl");

  std::printf("{\"wall_s\": %.17g, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              wall, attempted, failed);
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
