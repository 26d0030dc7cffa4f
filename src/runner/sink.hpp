// sink.hpp — structured result collection for scenarios.
//
// Replaces the benches' raw printf output with one object that (a) still
// narrates to stdout so interactive runs read like the old benches, and
// (b) when an output directory is given, emits machine-readable artifacts:
// one CSV per table/series/trace plus a summary.json with scalar metrics —
// the layer sweep post-processing and CI gates consume.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hpp"
#include "base/table.hpp"
#include "base/trace.hpp"

namespace uwbams::runner {

class ResultSink {
 public:
  // `out_dir` empty = stdout only (no files). Otherwise artifacts land in
  // <out_dir>/<scenario>/, created on demand.
  ResultSink(std::string scenario, std::string out_dir);

  // Server mode (src/serve/): suppress the stdout narration — a request
  // handler must not interleave scenario chatter into the server's log.
  void set_quiet(bool quiet);
  // Server mode: keep every artifact's (filename, content) in memory even
  // without an output directory, so a request handler can assemble the
  // response payload without touching the filesystem. Artifact *bytes* are
  // identical to what write_artifact puts on disk — the property that
  // makes a cached response byte-compare equal to a --out batch run.
  void enable_capture();
  const std::vector<std::pair<std::string, std::string>>& captured() const {
    return captured_;
  }

  // Narrative line to stdout (replaces printf in scenario bodies).
  void note(const std::string& text);
  // printf-style convenience.
  void notef(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // Prints the table and, with an output dir, writes <artifact>.csv.
  // Empty artifact name = print only.
  void table(const base::Table& t, const std::string& artifact = "");
  // Prints the series rows and optionally writes <artifact>.csv.
  void series(const base::Series& s, const std::string& artifact = "",
              int print_precision = 6, bool print_rows = true);
  // ASCII plot to stdout only (shape checks in CI logs).
  void plot(const base::Series& s, int width = 64, int height = 20,
            bool log_y = false);
  // Waveform CSV artifact (not printed; traces are long).
  void trace(const base::Trace& t, const std::string& artifact);

  // Scalar results for summary.json (a repeated key keeps the last value;
  // JSON has no inf/nan literals, so those render as strings).
  void metric(const std::string& key, double value);
  void metric(const std::string& key, std::uint64_t value);
  void metric(const std::string& key, const std::string& value);

  // Engine performance counters for the `perf` block of summary.json
  // (newton iterations, factorizations, accepted/rejected steps...). The
  // CLI driver fills these from the process-wide spice::engine_counters
  // delta around the scenario body; scenarios can add their own.
  void perf(const std::string& key, std::uint64_t value);

  // Verbatim artifact (e.g. positions.csv or surrogate.json). The name is
  // used as the file name as-is. Served results are keyed by content, so
  // wall times and throughput belong in metrics, not artifacts (the
  // paper's CPU-time tables are the deliberate exception).
  void raw_artifact(const std::string& filename, const std::string& content);

  // The run's golden-stats artifact (core::StatArtifact::to_json): written
  // as golden_stats.json when an output dir is set, and kept in memory so
  // the CLI driver can run the --golden equivalence comparison without
  // re-reading files. Empty = the scenario registered no stats.
  void golden_stats(const std::string& json);
  const std::string& golden_stats() const { return golden_stats_; }

  // Called by the CLI driver once the scenario returns: writes
  // summary.json (when an output dir is set).
  void finish(int status, double wall_seconds);

  const std::string& scenario() const { return scenario_; }
  // <out_dir>/<scenario>, or "" when running stdout-only.
  std::string dir() const;
  const std::vector<std::string>& artifacts() const { return artifacts_; }

 private:
  void write_artifact(const std::string& artifact, const std::string& ext,
                      const std::string& content);

  std::string scenario_;
  std::string out_dir_;
  bool quiet_ = false;
  bool capture_ = false;
  std::string golden_stats_;
  std::vector<std::pair<std::string, std::string>> captured_;
  std::vector<std::string> artifacts_;
  base::JsonObject metrics_;
  base::JsonObject perf_;
  std::mutex mu_;
};

}  // namespace uwbams::runner
