// Tests for the unified scenario API: registry lookup, sweep-axis
// expansion, deterministic parallel execution, fork seeding, the CSV/JSON
// result sink, and the run record the CLI writes to summary.json.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hpp"
#include "base/random.hpp"
#include "core/block_variant.hpp"
#include "runner/cli.hpp"
#include "runner/runner.hpp"
#include "uwb/ber.hpp"

namespace {

using namespace uwbams;
using base::ParallelRunner;
using runner::ResultSink;
using runner::RunContext;
using runner::Scale;
using runner::ScenarioRegistry;
using runner::ScenarioSpec;

// --- registry ------------------------------------------------------------

REGISTER_SCENARIO(runner_test_probe, "test", "registration smoke probe") {
  ctx.sink.metric("answer", std::uint64_t{42});
  return ctx.scale == Scale::kFast ? 0 : 7;
}

TEST(Registry, FindAndRunRegisteredScenario) {
  const auto* s = ScenarioRegistry::instance().find("runner_test_probe");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->info.group, "test");

  ResultSink sink("runner_test_probe", "");
  ParallelRunner pool(1);
  RunContext ctx{"runner_test_probe", Scale::kFast, 1, 1, sink, pool};
  EXPECT_EQ(s->fn(ctx), 0);
  RunContext full{"runner_test_probe", Scale::kFull, 1, 1, sink, pool};
  EXPECT_EQ(s->fn(full), 7);
}

TEST(Registry, UnknownNameIsNull) {
  EXPECT_EQ(ScenarioRegistry::instance().find("no_such_scenario"), nullptr);
}

TEST(Registry, DuplicateNameThrows) {
  EXPECT_THROW(ScenarioRegistry::instance().add(
                   {"runner_test_probe", "test", "dup", ""},
                   [](RunContext&) { return 0; }),
               std::logic_error);
}

// --- scale-tier annotations ----------------------------------------------

REGISTER_SCENARIO_TIERS(runner_test_tiers_probe, "test",
                        "tier annotation probe", "1|10|100 widgets") {
  (void)ctx;
  return 0;
}

TEST(Registry, TiersAnnotationIsStoredAndListed) {
  const auto* s =
      ScenarioRegistry::instance().find("runner_test_tiers_probe");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->info.tiers, "1|10|100 widgets");
  EXPECT_EQ(runner::scales_label(s->info), "1|10|100 widgets");

  // Plain REGISTER_SCENARIO leaves tiers empty and --list falls back to
  // the generic tier names.
  const auto* plain = ScenarioRegistry::instance().find("runner_test_probe");
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->info.tiers.empty());
  EXPECT_EQ(runner::scales_label(plain->info), "fast|default|full");
}

TEST(Registry, ShippedScenariosAnnotateTheirTiers) {
  // The satellite contract: the headline scenarios spell out what --scale
  // changes. (Not every scenario must, but these ship annotated.)
  for (const char* name :
       {"ranging_network", "fig6_ber", "yield_report", "surrogate_fit",
        "netscale_static", "netscale_mobility"}) {
    const auto* s = ScenarioRegistry::instance().find(name);
    if (s == nullptr) continue;  // registry content depends on link set
    EXPECT_FALSE(s->info.tiers.empty()) << name;
  }
}

TEST(Registry, ListSortsAndFilters) {
  const auto all = ScenarioRegistry::instance().list();
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 1; i < all.size(); ++i) {
    const auto& a = all[i - 1]->info;
    const auto& b = all[i]->info;
    EXPECT_TRUE(a.group < b.group || (a.group == b.group && a.name < b.name));
  }
  for (const auto* s : ScenarioRegistry::instance().list("test"))
    EXPECT_EQ(s->info.group, "test");
}

// --- spec expansion ------------------------------------------------------

TEST(ScenarioSpec, CartesianExpansionRowMajor) {
  ScenarioSpec spec("sweep_test");
  spec.axis("a", {1.0, 2.0}).axis("b", {10.0, 20.0, 30.0});
  EXPECT_EQ(spec.grid_size(), 6u);
  EXPECT_EQ(spec.point_count(), 6u);

  const auto pts = spec.points();
  ASSERT_EQ(pts.size(), 6u);
  // Last axis fastest.
  EXPECT_DOUBLE_EQ(pts[0].at("a"), 1.0);
  EXPECT_DOUBLE_EQ(pts[0].at("b"), 10.0);
  EXPECT_DOUBLE_EQ(pts[1].at("b"), 20.0);
  EXPECT_DOUBLE_EQ(pts[3].at("a"), 2.0);
  EXPECT_DOUBLE_EQ(pts[3].at("b"), 10.0);
  EXPECT_THROW(pts[0].at("nope"), std::out_of_range);
}

TEST(ScenarioSpec, RepetitionsAreInnermost) {
  ScenarioSpec spec("rep_test");
  spec.axis("x", {5.0, 6.0}).repetitions(3);
  EXPECT_EQ(spec.point_count(), 6u);
  const auto pts = spec.points();
  EXPECT_EQ(pts[0].repetition, 0);
  EXPECT_EQ(pts[2].repetition, 2);
  EXPECT_DOUBLE_EQ(pts[2].at("x"), 5.0);
  EXPECT_DOUBLE_EQ(pts[3].at("x"), 6.0);
  EXPECT_EQ(pts[3].repetition, 0);
}

TEST(ScenarioSpec, SeedsAreDeterministicAndDistinct) {
  ScenarioSpec spec("seed_test");
  spec.seed(99).axis("x", {1, 2, 3, 4});
  const auto a = spec.points();
  const auto b = spec.points();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].seed, spec.point(i).seed);
    for (std::size_t j = i + 1; j < a.size(); ++j)
      EXPECT_NE(a[i].seed, a[j].seed);
  }
  // Different base seed, different streams.
  ScenarioSpec other("seed_test");
  other.seed(100).axis("x", {1, 2, 3, 4});
  EXPECT_NE(other.point(0).seed, spec.point(0).seed);
}

TEST(ScenarioSpec, FluentBuilderFillsRunConfig) {
  ScenarioSpec spec("cfg_test", Scale::kFull, 12);
  spec.dt(0.1e-9)
      .distance(4.5)
      .multipath(false)
      .integrator(core::IntegratorKind::kSpice)
      .duration(5e-6)
      .ebn0(13.0)
      .tune([](uwb::SystemConfig& sys) { sys.payload_bits = 8; });
  const auto cfg = spec.run_config();
  EXPECT_EQ(cfg.kind, core::IntegratorKind::kSpice);
  EXPECT_DOUBLE_EQ(cfg.duration, 5e-6);
  EXPECT_DOUBLE_EQ(cfg.ebn0_db, 13.0);
  EXPECT_DOUBLE_EQ(cfg.sys.dt, 0.1e-9);
  EXPECT_DOUBLE_EQ(cfg.sys.distance, 4.5);
  EXPECT_FALSE(cfg.sys.multipath);
  EXPECT_EQ(cfg.sys.payload_bits, 8);
  EXPECT_EQ(cfg.sys.seed, 12u);
  EXPECT_EQ(spec.pick(1, 2, 3), 3);
}

// --- parallel runner -----------------------------------------------------

TEST(ParallelRunner, MapPreservesOrderAcrossJobCounts) {
  auto square = [](std::size_t i) { return static_cast<int>(i * i); };
  const auto serial = ParallelRunner(1).map<int>(64, square);
  const auto parallel = ParallelRunner(4).map<int>(64, square);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelRunner, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  ParallelRunner(8).for_each(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, PropagatesTaskExceptions) {
  EXPECT_THROW(ParallelRunner(4).for_each(16,
                                          [](std::size_t i) {
                                            if (i == 7)
                                              throw std::runtime_error("boom");
                                          }),
               std::runtime_error);
}

TEST(ParallelRunner, ZeroJobsMeansHardwareConcurrency) {
  EXPECT_GE(ParallelRunner(0).jobs(), 1);
}

// --- fork seeding --------------------------------------------------------

TEST(RngFork, DeterministicRegardlessOfDrawOrder) {
  base::Rng a(123);
  base::Rng b(123);
  for (int i = 0; i < 50; ++i) b.uniform();  // advance b's state only

  base::Rng fa = a.fork(5);
  base::Rng fb = b.fork(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fa.uniform(), fb.uniform());
}

TEST(RngFork, StreamsDiffer) {
  base::Rng root(7);
  base::Rng s0 = root.fork(0);
  base::Rng s1 = root.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (s0.uniform() == s1.uniform()) ++same;
  EXPECT_LT(same, 3);
}

TEST(RngFork, DeriveSeedIsStableAndNonZero) {
  EXPECT_EQ(base::derive_seed(1, 2), base::derive_seed(1, 2));
  EXPECT_NE(base::derive_seed(1, 2), base::derive_seed(1, 3));
  EXPECT_NE(base::derive_seed(1, 2), base::derive_seed(2, 2));
  for (std::uint64_t s = 0; s < 64; ++s) EXPECT_NE(base::derive_seed(0, s), 0u);
}

// --- result sink ---------------------------------------------------------

class SinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("uwbams_sink_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::filesystem::path dir_;
};

TEST_F(SinkTest, SeriesCsvRoundTrip) {
  base::Series s("roundtrip", "x");
  s.add_column("y1");
  s.add_column("y2");
  s.add_row(1.0, {0.1234567890123456, -2.5});
  s.add_row(2.0, {3e-11, 1.0 / 3.0});

  ResultSink sink("scn", dir_.string());
  sink.series(s, "data", 6, /*print_rows=*/false);

  const auto csv = slurp(dir_ / "scn" / "data.csv");
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "x,y1,y2");
  // %.17g round-trips doubles exactly.
  std::vector<std::vector<double>> rows;
  while (std::getline(in, line)) {
    std::vector<double> row;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) row.push_back(std::stod(cell));
    rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], 0.1234567890123456);
  EXPECT_EQ(rows[1][1], 3e-11);
  EXPECT_EQ(rows[1][2], 1.0 / 3.0);
}

TEST_F(SinkTest, TableCsvQuotesSpecialCells) {
  base::Table t("quoting");
  t.set_header({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with, comma", "says \"hi\""});

  ResultSink sink("scn", dir_.string());
  sink.table(t, "table");
  const auto csv = slurp(dir_ / "scn" / "table.csv");
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with, comma\",\"says \"\"hi\"\"\"\n"),
            std::string::npos);
}

TEST_F(SinkTest, SummaryJsonHoldsMetricsAndArtifacts) {
  ResultSink sink("scn", dir_.string());
  base::Series s("tiny", "x");
  s.add_column("y");
  s.add_row(0.0, {1.0});
  sink.series(s, "curve", 6, /*print_rows=*/false);
  sink.metric("ber", 0.125);
  sink.metric("bits", std::uint64_t{4096});
  sink.metric("note", std::string("hello \"world\""));
  sink.finish(0, 1.5);

  const auto json = slurp(dir_ / "scn" / "summary.json");
  EXPECT_NE(json.find("\"scenario\": \"scn\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"ber\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"bits\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"note\": \"hello \\\"world\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"curve.csv\""), std::string::npos);
}

// summary.json is the one machine-readable run record: the CLI stamps the
// run identity next to the scale, keeps a single (top-level) wall field,
// and the engine counters perfbench reads keep their names.
TEST_F(SinkTest, CliSummaryRecordsRunIdentityAndEngineCounters) {
  const std::string out = "--out=" + dir_.string();
  const char* argv[] = {"uwbams_run", "runner_test_probe", "--scale=fast",
                        "--tier=stat_equiv", "--seed=7", "--jobs=2",
                        out.c_str()};
  ASSERT_EQ(runner::run_cli(7, argv), 0);

  const base::JsonValue summary = base::parse_json(
      slurp(dir_ / "runner_test_probe" / "summary.json"));
  EXPECT_EQ(summary.at("status").as_number(), 0.0);
  EXPECT_GE(summary.at("wall_seconds").as_number(), 0.0);
  const base::JsonValue& metrics = summary.at("metrics");
  EXPECT_EQ(metrics.at("answer").as_number(), 42.0);
  EXPECT_EQ(metrics.at("scale").as_string(), "fast");
  EXPECT_EQ(metrics.at("tier").as_string(), "stat_equiv");
  EXPECT_EQ(metrics.at("seed").as_string(), base::hex_u64(7));
  EXPECT_EQ(metrics.at("jobs").as_number(), 2.0);
  EXPECT_EQ(metrics.at("hardware_threads").as_number(),
            static_cast<double>(std::thread::hardware_concurrency()));
  const base::JsonValue& perf = summary.at("perf");
  for (const char* key :
       {"transient_steps", "newton_iterations", "factorizations", "solves",
        "rejected_steps", "fallback_steps", "op_solves"})
    EXPECT_EQ(perf.at(key).as_number(), 0.0) << key;  // the probe runs no spice
  EXPECT_FALSE(perf.has("wall_seconds"));
}

TEST_F(SinkTest, NoOutDirWritesNothing) {
  ResultSink sink("scn", "");
  base::Table t("t");
  t.set_header({"a"});
  t.add_row({"1"});
  sink.table(t, "ignored");
  sink.metric("x", 1.0);
  sink.finish(0, 0.1);
  EXPECT_TRUE(sink.artifacts().empty());
  EXPECT_EQ(sink.dir(), "");
}

// --- parallel == serial for a real sweep ---------------------------------

// A miniature fig6-style BER sweep: the per-point seeding depends only on
// the config, so fanning points across workers must reproduce the serial
// sweep exactly (same bits, same error counts).
TEST(ParallelEquivalence, BerSweepMatchesSerial) {
  uwb::BerConfig cfg;
  cfg.sys.dt = 0.4e-9;
  cfg.ebn0_db = {6.0, 10.0};
  cfg.max_bits = 200;
  cfg.min_errors = 5;
  cfg.batch_bits = 100;

  const auto factory =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);
  const auto serial = uwb::run_ber_sweep(cfg, factory);

  const auto parallel = ParallelRunner(2).map<uwb::BerPoint>(
      cfg.ebn0_db.size(), [&](std::size_t i) {
        uwb::BerConfig c = cfg;
        c.ebn0_db = {cfg.ebn0_db[i]};
        return uwb::run_ber_sweep(
            c, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                             c.sys))[0];
      });

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].bits, parallel[i].bits);
    EXPECT_EQ(serial[i].errors, parallel[i].errors);
    EXPECT_DOUBLE_EQ(serial[i].ber, parallel[i].ber);
  }
}

}  // namespace
