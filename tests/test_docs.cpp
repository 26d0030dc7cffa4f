// Keeps docs/scenarios.md honest: every scenario registered in the binary
// must be documented (by a `### <name>` heading), and every documented
// scenario heading must still exist in the registry. Links the same
// scenario object library as uwbams_run, so the registry here is exactly
// the CLI's.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "runner/registry.hpp"

#ifndef UWBAMS_DOCS_DIR
#error "UWBAMS_DOCS_DIR must point at the repo's docs directory"
#endif

namespace {

using uwbams::runner::ScenarioRegistry;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// `### <name>` headings of docs/scenarios.md.
std::set<std::string> documented_scenarios(const std::string& text) {
  std::set<std::string> names;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("### ", 0) != 0) continue;
    std::string name = line.substr(4);
    // Strip trailing annotations like "### fig6_ber — Fig. 6".
    const auto cut = name.find_first_of(" \t");
    if (cut != std::string::npos) name = name.substr(0, cut);
    if (!name.empty()) names.insert(name);
  }
  return names;
}

TEST(Docs, ScenariosPageExists) {
  const std::string text = read_file(std::string(UWBAMS_DOCS_DIR) + "/scenarios.md");
  ASSERT_FALSE(text.empty()) << "docs/scenarios.md is missing or empty";
}

TEST(Docs, EveryRegisteredScenarioIsDocumented) {
  const std::string text = read_file(std::string(UWBAMS_DOCS_DIR) + "/scenarios.md");
  ASSERT_FALSE(text.empty());
  const auto documented = documented_scenarios(text);
  auto& registry = ScenarioRegistry::instance();
  ASSERT_GT(registry.size(), 0u) << "scenario registrations not linked in";
  for (const auto* s : registry.list()) {
    EXPECT_TRUE(documented.count(s->info.name))
        << "scenario '" << s->info.name
        << "' is registered but has no `### " << s->info.name
        << "` section in docs/scenarios.md";
  }
}

TEST(Docs, NoStaleScenarioSections) {
  const std::string text = read_file(std::string(UWBAMS_DOCS_DIR) + "/scenarios.md");
  ASSERT_FALSE(text.empty());
  auto& registry = ScenarioRegistry::instance();
  for (const auto& name : documented_scenarios(text)) {
    EXPECT_NE(registry.find(name), nullptr)
        << "docs/scenarios.md documents '" << name
        << "' which is not a registered scenario";
  }
}

TEST(Docs, CorePagesExist) {
  EXPECT_FALSE(read_file(std::string(UWBAMS_DOCS_DIR) + "/methodology.md").empty())
      << "docs/methodology.md is missing";
  EXPECT_FALSE(read_file(std::string(UWBAMS_DOCS_DIR) + "/architecture.md").empty())
      << "docs/architecture.md is missing";
  EXPECT_FALSE(
      read_file(std::string(UWBAMS_DOCS_DIR) + "/characterization.md").empty())
      << "docs/characterization.md is missing";
}

// scenarios.md organizes its sections by group; a scenario registered
// under a group the page has no section structure for would be filed
// nowhere a reader looks. Keep the group vocabulary closed.
TEST(Docs, ScenarioGroupsAreKnown) {
  const std::set<std::string> known = {"bench",    "mc",      "netscale",
                                       "ranging",  "ablation", "example",
                                       "coex"};
  for (const auto* s : ScenarioRegistry::instance().list()) {
    EXPECT_TRUE(known.count(s->info.group))
        << "scenario '" << s->info.name << "' uses unknown group '"
        << s->info.group
        << "' — add the group to docs/scenarios.md and this test";
  }
}

// The ranging walk-through (docs/ranging.md) must exist and cover both
// scenarios of the `ranging` group plus the clock-error algebra it
// documents (closed vocabulary, like the characterization page below).
TEST(Docs, RangingPageCoversRangingScenarios) {
  const std::string text =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/ranging.md");
  ASSERT_FALSE(text.empty()) << "docs/ranging.md is missing";
  for (const char* needle :
       {"twr_clock", "ranging_network", "ClockModel", "processing time"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "docs/ranging.md does not mention '" << needle << "'";
  }
}

// The large-scale networking walk-through (docs/netscale.md) must exist
// and cover the calibrate -> validate -> simulate workflow: all three
// `netscale` scenarios, the surrogate cache hand-off, and the solver /
// fault knobs a reader needs to interpret the results.
TEST(Docs, NetscalePageCoversNetscaleScenarios) {
  const std::string text =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/netscale.md");
  ASSERT_FALSE(text.empty()) << "docs/netscale.md is missing";
  for (const char* needle :
       {"surrogate_fit", "netscale_static", "netscale_mobility",
        "UWBAMS_SURROGATE", "surrogate.json", "packet_loss",
        "anchor_dropout", "held-out"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "docs/netscale.md does not mention '" << needle << "'";
  }
}

// The channel-environment walk-through (docs/channels.md) must exist and
// cover the vocabulary a reader needs to drive the axis: the four class
// names, the knobs, the seeding/identity contract, the coex scenarios and
// the caching hand-offs. The catalog's coex section must point at it.
TEST(Docs, ChannelsPageCoversTheEnvironmentAxis) {
  const std::string text =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/channels.md");
  ASSERT_FALSE(text.empty()) << "docs/channels.md is missing";
  for (const char* needle :
       {"cm1", "cm2", "cm3", "cm4", "channel_class", "Saleh-Valenzuela",
        "apply_channel_class", "path-loss", "InterferenceConfig",
        "cw_amplitude", "uwb_count", "kInterferencePurpose", "derive_seed",
        "coex_ber", "multiuser_ber", "channel_class_sweep",
        "uwbams-surrogate-v2", "UWBAMS_CACHE", "bit-identical",
        "held-out"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "docs/channels.md does not mention '" << needle << "'";
  }
  const std::string catalog =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/scenarios.md");
  ASSERT_FALSE(catalog.empty());
  for (const char* needle : {"channels.md", "BENCH_coex.json"}) {
    EXPECT_NE(catalog.find(needle), std::string::npos)
        << "docs/scenarios.md does not mention '" << needle << "'";
  }
}

// The exactness-tier contract (methodology.md) must keep covering the
// vocabulary a reader needs to drive and refresh the stat_equiv gate:
// both tier names, the CLI flags, the artifact/report file names, the
// two statistical tests behind the checks, and the refresh command.
TEST(Docs, MethodologyPageCoversExactnessTiers) {
  const std::string text =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/methodology.md");
  ASSERT_FALSE(text.empty());
  for (const char* needle :
       {"Exactness tiers", "bit_exact", "stat_equiv", "--tier", "--golden",
        "--equiv-check", "golden_stats.json", "equiv_report.json",
        "tests/golden/", "tools/refresh_golden.sh", "Wilson",
        "Kolmogorov", "cosim_decimation"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "docs/methodology.md does not mention '" << needle << "'";
  }
  // The catalog's conventions must point readers at the tier contract.
  const std::string catalog =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/scenarios.md");
  ASSERT_FALSE(catalog.empty());
  for (const char* needle : {"--tier=bit_exact|stat_equiv", "golden_stats.json"}) {
    EXPECT_NE(catalog.find(needle), std::string::npos)
        << "docs/scenarios.md does not mention '" << needle << "'";
  }
}

// The fault-tolerance contract (robustness.md) must keep covering the
// vocabulary a reader needs to drive the layer: the four CLI flags and
// the env fallback, every fault-plan probe site (closed vocabulary, both
// directions checked by tests/test_faults.cpp), the retry-shape knob,
// the checkpoint journal files and identity key, and the inspection
// tool. The catalog's conventions must point readers at the page.
TEST(Docs, RobustnessPageCoversFaultTolerance) {
  const std::string text =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/robustness.md");
  ASSERT_FALSE(text.empty()) << "docs/robustness.md is missing";
  for (const char* needle :
       {"--fault-plan", "UWBAMS_FAULT_PLAN", "--checkpoint", "--resume",
        "--retries", "runner.task", "spice.nonconverge", "sink.write",
        "net.calibrate", "netscale.measure", "checkpoint.shard",
        "fail_attempts", "quarantine", "manifest.json", "content_key",
        "byte-identical", "tools/inspect_checkpoint.sh"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "docs/robustness.md does not mention '" << needle << "'";
  }
  const std::string catalog =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/scenarios.md");
  ASSERT_FALSE(catalog.empty());
  for (const char* needle : {"robustness.md", "--retries", "--checkpoint"}) {
    EXPECT_NE(catalog.find(needle), std::string::npos)
        << "docs/scenarios.md does not mention '" << needle << "'";
  }
}

// Every scenario the catalog documents must also appear in the
// characterization walk-through's command blocks or the paper map when it
// reproduces a paper artifact; at minimum the three statistical scenarios
// must be walked through (they are the page's subject).
TEST(Docs, CharacterizationPageCoversStatisticalScenarios) {
  const std::string text =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/characterization.md");
  ASSERT_FALSE(text.empty());
  for (const char* name : {"mc_itd", "corner_ber", "yield_report"}) {
    EXPECT_NE(text.find(name), std::string::npos)
        << "docs/characterization.md does not mention scenario '" << name
        << "'";
  }
}

// The scenario-server contract (service.md) must keep covering the
// vocabulary a reader needs to drive the server and trust its cache: the
// wire schema, the ops, the key contract (what is hashed, what is
// excluded, how invalidation works), the durability mechanics, and the
// intermediate memoization env knobs. The catalog's conventions must
// point readers at the page.
TEST(Docs, ServicePageCoversTheServerContract) {
  const std::string text =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/service.md");
  ASSERT_FALSE(text.empty()) << "docs/service.md is missing";
  for (const char* needle :
       {"uwbams-serve-v1", "uwbams-serve-result-v1", "--connect",
        "--socket", "--cache", "--mem-entries", "--shutdown", "content key",
        "uwbams-serve-run/1", "kCodeVersion", "FNV-1a", "coalesced",
        "kMaxRequestBytes", "UWBAMS_CACHE", "UWBAMS_CACHE_MAX_MB",
        "UWBAMS_MEMO", "UWBAMS_SURROGATE", "manifest.json", "byte-identical",
        "rename(2)", "--jobs` is excluded"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "docs/service.md does not mention '" << needle << "'";
  }
  const std::string catalog =
      read_file(std::string(UWBAMS_DOCS_DIR) + "/scenarios.md");
  ASSERT_FALSE(catalog.empty());
  for (const char* needle : {"service.md", "uwbams_serve", "--connect"}) {
    EXPECT_NE(catalog.find(needle), std::string::npos)
        << "docs/scenarios.md does not mention '" << needle << "'";
  }
}

}  // namespace
