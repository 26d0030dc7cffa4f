#include "runner/cli.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "base/faults.hpp"
#include "base/json.hpp"
#include "base/parallel.hpp"
#include "core/equiv.hpp"
#include "runner/registry.hpp"
#include "runner/sink.hpp"
#include "spice/engine_counters.hpp"

namespace uwbams::runner {

namespace {

constexpr const char* kUsage =
    "usage: uwbams_run [options] [scenario ...]\n"
    "\n"
    "  --list            list registered scenarios (name, group, --scale\n"
    "                    tiers, title) and exit\n"
    "  --all             run every registered scenario\n"
    "  --group=G         with --list/--all: restrict to a group\n"
    "                    (bench | mc | netscale | ranging | ablation |\n"
    "                    example)\n"
    "  --scale=S         workload tier: fast | default | full\n"
    "  --tier=T          exactness tier: bit_exact (default; byte-compare\n"
    "                    gates hold) | stat_equiv (optimized engine; results\n"
    "                    gated by golden-stats equivalence)\n"
    "  --golden=FILE     after the run, compare the scenario's\n"
    "                    golden_stats.json against FILE and fail on\n"
    "                    statistical mismatch (writes equiv_report.json)\n"
    "  --equiv-check     standalone mode: uwbams_run --equiv-check\n"
    "                    GOLDEN.json CANDIDATE.json (no scenario is run)\n"
    "  --jobs=N          worker threads for sweeps (0 = all cores)\n"
    "  --seed=N          base seed for the scenario's sweeps\n"
    "  --out=DIR         write CSV/JSON artifacts under DIR/<scenario>/\n"
    "  --fault-plan=FILE deterministic fault-injection plan (JSON; see\n"
    "                    docs/robustness.md). UWBAMS_FAULT_PLAN is the env\n"
    "                    fallback when the flag is absent.\n"
    "  --checkpoint=DIR  shard completed sweep tasks under\n"
    "                    DIR/<scenario>/ so an interrupted run can resume\n"
    "  --resume          load completed shards from --checkpoint instead of\n"
    "                    recomputing them (rejects a stale checkpoint)\n"
    "  --retries=N       task re-runs before quarantine (default 1)\n"
    "  --help            this text\n"
    "\n"
    "Server mode (see docs/service.md):\n"
    "  uwbams_run --serve [--socket=PATH --cache=DIR --jobs=N]\n"
    "                    run the long-lived scenario server (uwbams_serve)\n"
    "  uwbams_run --connect=PATH [scenario ...] [--scale --seed --tier\n"
    "                    --out=DIR | --ping | --stats | --shutdown]\n"
    "                    send requests to a running server\n";

// Accepts "--key=value" or "--key value". Returns 1 on match (value in
// *value, *i advanced for the two-token form), 0 on no match, -1 when the
// key matched but no value followed.
int match_value_flag(const char* const* argv, int argc, int* i,
                     const std::string& key, std::string* value) {
  const std::string arg = argv[*i];
  if (arg.rfind(key + "=", 0) == 0) {
    *value = arg.substr(key.size() + 1);
    return 1;
  }
  if (arg == key) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "uwbams_run: %s needs a value\n", key.c_str());
      return -1;
    }
    *value = argv[++*i];
    return 1;
  }
  return 0;
}

// Reads a whole file; false (with a message) when it cannot be opened.
bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "uwbams_run: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Loads and compares two golden-stats artifacts; prints the report.
// Returns the process exit code.
int run_equiv_check(const std::string& golden_path,
                    const std::string& candidate_path) {
  std::string golden_text, candidate_text;
  if (!read_file(golden_path, &golden_text) ||
      !read_file(candidate_path, &candidate_text))
    return 2;
  try {
    const auto golden = core::StatArtifact::from_json(golden_text);
    const auto candidate = core::StatArtifact::from_json(candidate_text);
    const auto report = core::compare_stats(golden, candidate);
    std::printf("equiv_check: %s (golden) vs %s (candidate)\n%s",
                golden_path.c_str(), candidate_path.c_str(),
                report.to_text().c_str());
    return report.passed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uwbams_run: equiv-check failed: %s\n", e.what());
    return 2;
  }
}

}  // namespace

bool parse_cli(int argc, const char* const* argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    int m;
    if (arg == "--help" || arg == "-h") {
      out->help = true;
    } else if (arg == "--list") {
      out->list = true;
    } else if (arg == "--all") {
      out->all = true;
    } else if ((m = match_value_flag(argv, argc, &i, "--group", &value)) != 0) {
      if (m < 0) return false;
      out->group = value;
    } else if ((m = match_value_flag(argv, argc, &i, "--scale", &value)) != 0) {
      if (m < 0) return false;
      if (!parse_scale(value, &out->scale)) {
        std::fprintf(stderr,
                     "uwbams_run: bad --scale '%s' (fast|default|full)\n",
                     value.c_str());
        return false;
      }
      out->scale_set = true;
    } else if ((m = match_value_flag(argv, argc, &i, "--tier", &value)) != 0) {
      if (m < 0) return false;
      if (!core::parse_exactness_tier(value, &out->tier)) {
        std::fprintf(stderr,
                     "uwbams_run: bad --tier '%s' (bit_exact|stat_equiv)\n",
                     value.c_str());
        return false;
      }
    } else if ((m = match_value_flag(argv, argc, &i, "--golden", &value)) !=
               0) {
      if (m < 0) return false;
      out->golden = value;
    } else if (arg == "--equiv-check") {
      out->equiv_check = true;
    } else if ((m = match_value_flag(argv, argc, &i, "--jobs", &value)) != 0) {
      if (m < 0) return false;
      try {
        out->jobs = std::stoi(value);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "uwbams_run: bad --jobs '%s': %s\n",
                     value.c_str(), e.what());
        return false;
      }
      if (out->jobs < 0) {
        std::fprintf(stderr, "uwbams_run: --jobs must be >= 0\n");
        return false;
      }
    } else if ((m = match_value_flag(argv, argc, &i, "--seed", &value)) != 0) {
      if (m < 0) return false;
      try {
        out->seed = std::stoull(value);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "uwbams_run: bad --seed '%s': %s\n",
                     value.c_str(), e.what());
        return false;
      }
    } else if ((m = match_value_flag(argv, argc, &i, "--out", &value)) != 0) {
      if (m < 0) return false;
      out->out_dir = value;
    } else if ((m = match_value_flag(argv, argc, &i, "--fault-plan",
                                     &value)) != 0) {
      if (m < 0) return false;
      out->fault_plan = value;
    } else if ((m = match_value_flag(argv, argc, &i, "--checkpoint",
                                     &value)) != 0) {
      if (m < 0) return false;
      out->checkpoint = value;
    } else if (arg == "--resume") {
      out->resume = true;
    } else if ((m = match_value_flag(argv, argc, &i, "--retries", &value)) !=
               0) {
      if (m < 0) return false;
      try {
        out->retries = std::stoi(value);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "uwbams_run: bad --retries '%s': %s\n",
                     value.c_str(), e.what());
        return false;
      }
      if (out->retries < 0) {
        std::fprintf(stderr, "uwbams_run: --retries must be >= 0\n");
        return false;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "uwbams_run: unknown option '%s'\n%s", arg.c_str(),
                   kUsage);
      return false;
    } else {
      out->scenarios.push_back(arg);
    }
  }
  return true;
}

int run_cli(int argc, const char* const* argv) {
  CliOptions opt;
  if (!parse_cli(argc, argv, &opt)) return 2;
  if (opt.help) {
    std::printf("%s", kUsage);
    return 0;
  }

  if (opt.equiv_check) {
    if (opt.scenarios.size() != 2) {
      std::fprintf(stderr,
                   "uwbams_run: --equiv-check needs exactly two files "
                   "(golden, candidate)\n");
      return 2;
    }
    return run_equiv_check(opt.scenarios[0], opt.scenarios[1]);
  }

  auto& registry = ScenarioRegistry::instance();

  if (opt.list) {
    std::printf("%-20s %-10s %-34s %s\n", "NAME", "GROUP", "SCALES", "TITLE");
    for (const Scenario* s : registry.list(opt.group))
      std::printf("%-20s %-10s %-34s %s\n", s->info.name.c_str(),
                  s->info.group.c_str(), scales_label(s->info).c_str(),
                  s->info.title.c_str());
    return 0;
  }

  // Select scenarios.
  std::vector<const Scenario*> selected;
  if (opt.all) {
    selected = registry.list(opt.group);
    if (selected.empty()) {
      std::fprintf(stderr, "uwbams_run: no scenarios in group '%s'\n",
                   opt.group.c_str());
      return 2;
    }
  } else {
    for (const auto& name : opt.scenarios) {
      const Scenario* s = registry.find(name);
      if (s == nullptr) {
        std::fprintf(stderr,
                     "uwbams_run: unknown scenario '%s' (try --list)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(s);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "uwbams_run: nothing to run\n%s", kUsage);
    return 2;
  }

  if (opt.resume && opt.checkpoint.empty()) {
    std::fprintf(stderr, "uwbams_run: --resume needs --checkpoint=DIR\n");
    return 2;
  }

  // Deterministic fault injection: --fault-plan, then the UWBAMS_FAULT_PLAN
  // env fallback. A malformed plan is a usage error, not a quarantined run.
  std::string plan_path = opt.fault_plan;
  if (plan_path.empty()) {
    if (const char* env = std::getenv("UWBAMS_FAULT_PLAN");
        env != nullptr && env[0] != '\0')
      plan_path = env;
  }
  if (!plan_path.empty()) {
    std::string plan_text;
    if (!read_file(plan_path, &plan_text)) return 2;
    try {
      base::faults::install(base::FaultPlan::from_json(plan_text));
      std::fprintf(stderr, "uwbams_run: fault plan '%s' active\n",
                   plan_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "uwbams_run: bad fault plan '%s': %s\n",
                   plan_path.c_str(), e.what());
      return 2;
    }
  }

  base::ParallelRunner pool(opt.jobs);
  int failures = 0;
  for (const Scenario* s : selected) {
    std::printf("=== %s — %s (scale: %s, tier: %s, jobs: %d) ===\n\n",
                s->info.name.c_str(), s->info.title.c_str(),
                to_string(opt.scale), core::to_string(opt.tier), pool.jobs());
    std::fflush(stdout);

    ResultSink sink(s->info.name, opt.out_dir);
    base::TaskPolicy policy;
    policy.max_retries = opt.retries;
    // Each scenario checkpoints under its own subdirectory so one --all run
    // can checkpoint several scenarios without mixing shards.
    const std::string ckpt_dir =
        opt.checkpoint.empty()
            ? std::string()
            : (std::filesystem::path(opt.checkpoint) / s->info.name).string();
    RunContext ctx{s->info.name, opt.scale, pool.jobs(),
                   opt.seed,      sink,      pool,
                   opt.tier,      policy,    ckpt_dir,
                   opt.resume};
    const auto engine0 = spice::engine_counters::snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    int status = 0;
    try {
      status = s->fn(ctx);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "uwbams_run: scenario '%s' failed: %s\n",
                   s->info.name.c_str(), e.what());
      status = 1;
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Statistical-equivalence gate: compare the run's golden-stats artifact
    // against the pinned golden. A mismatch fails the scenario exactly like
    // a scenario-body FAIL does.
    if (status == 0 && !opt.golden.empty()) {
      std::string golden_text;
      if (!read_file(opt.golden, &golden_text)) {
        status = 1;
      } else if (sink.golden_stats().empty()) {
        std::fprintf(stderr,
                     "uwbams_run: scenario '%s' registered no golden stats "
                     "to compare against --golden\n",
                     s->info.name.c_str());
        status = 1;
      } else {
        try {
          const auto report = core::compare_stats(
              core::StatArtifact::from_json(golden_text),
              core::StatArtifact::from_json(sink.golden_stats()));
          sink.note("\nEquivalence vs " + opt.golden + ":\n" +
                    report.to_text());
          sink.raw_artifact("equiv_report.json", report.to_json());
          if (!report.passed) status = 1;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "uwbams_run: equivalence gate failed: %s\n",
                       e.what());
          status = 1;
        }
      }
    }
    // Engine work this scenario caused, as a process-counter delta (every
    // retired TransientSession and OP solve lands here) -> summary.json
    // `perf` block.
    const auto engine1 = spice::engine_counters::snapshot();
    sink.perf("transient_sessions", engine1.sessions - engine0.sessions);
    sink.perf("transient_steps", engine1.steps - engine0.steps);
    sink.perf("accepted_steps", engine1.accepted_steps - engine0.accepted_steps);
    sink.perf("rejected_steps", engine1.rejected_steps - engine0.rejected_steps);
    sink.perf("fallback_steps", engine1.fallback_steps - engine0.fallback_steps);
    sink.perf("newton_iterations",
              engine1.newton_iterations - engine0.newton_iterations);
    sink.perf("factorizations", engine1.factorizations - engine0.factorizations);
    sink.perf("refactorizations",
              engine1.refactorizations - engine0.refactorizations);
    sink.perf("solves", engine1.solves - engine0.solves);
    sink.perf("singular_failures",
              engine1.singular_failures - engine0.singular_failures);
    sink.perf("nonconverged_failures",
              engine1.nonconverged_failures - engine0.nonconverged_failures);
    sink.perf("op_solves", engine1.op_solves - engine0.op_solves);
    sink.perf("op_iterations", engine1.op_iterations - engine0.op_iterations);
    // Run identity: what produced this record, next to what it measured.
    sink.metric("scale", std::string(to_string(opt.scale)));
    sink.metric("tier", std::string(core::to_string(opt.tier)));
    sink.metric("seed", base::hex_u64(opt.seed));
    sink.metric("jobs", static_cast<std::uint64_t>(pool.jobs()));
    sink.metric("hardware_threads",
                static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    sink.finish(status, wall);
    if (status != 0) ++failures;
    std::printf("\n--- %s: %s in %.2f s%s ---\n\n", s->info.name.c_str(),
                status == 0 ? "ok" : "FAILED", wall,
                sink.dir().empty()
                    ? ""
                    : (" (artifacts: " + sink.dir() + ")").c_str());
    std::fflush(stdout);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace uwbams::runner
