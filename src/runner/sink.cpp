#include "runner/sink.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "base/faults.hpp"

namespace uwbams::runner {

namespace {

base::JsonValue json_number(double v) {
  if (std::isfinite(v)) return base::JsonValue(v);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return base::JsonValue(std::string(buf));
}

}  // namespace

ResultSink::ResultSink(std::string scenario, std::string out_dir)
    : scenario_(std::move(scenario)), out_dir_(std::move(out_dir)) {}

std::string ResultSink::dir() const {
  if (out_dir_.empty()) return "";
  return (std::filesystem::path(out_dir_) / scenario_).string();
}

void ResultSink::set_quiet(bool quiet) {
  std::lock_guard<std::mutex> lock(mu_);
  quiet_ = quiet;
}

void ResultSink::enable_capture() {
  std::lock_guard<std::mutex> lock(mu_);
  capture_ = true;
}

void ResultSink::note(const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (quiet_) return;
  std::cout << text << "\n" << std::flush;
}

void ResultSink::notef(const char* fmt, ...) {
  char buf[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  note(buf);
}

void ResultSink::write_artifact(const std::string& artifact,
                                const std::string& ext,
                                const std::string& content) {
  if (artifact.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (out_dir_.empty() && !capture_) return;
  const std::string filename =
      artifact.find('.') == std::string::npos ? artifact + ext : artifact;
  // Fault site: a simulated artifact-write failure, keyed by the target
  // filename (deterministic for any --jobs value or write order).
  base::faults::check("sink.write", base::fnv1a64(filename));
  if (!out_dir_.empty()) {
    const std::filesystem::path d(dir());
    std::filesystem::create_directories(d);
    const std::filesystem::path path = d / filename;
    std::ofstream out(path);
    if (!out)
      throw std::runtime_error("cannot write artifact: " + path.string());
    out << content;
  }
  if (capture_) captured_.emplace_back(filename, content);
  artifacts_.push_back(filename);
}

void ResultSink::table(const base::Table& t, const std::string& artifact) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!quiet_) std::cout << t.render() << std::flush;
  }
  write_artifact(artifact, ".csv", t.to_csv());
}

void ResultSink::series(const base::Series& s, const std::string& artifact,
                        int print_precision, bool print_rows) {
  if (print_rows) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!quiet_) std::cout << s.render(print_precision) << std::flush;
  }
  write_artifact(artifact, ".csv", s.to_csv());
}

void ResultSink::plot(const base::Series& s, int width, int height,
                      bool log_y) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!quiet_) std::cout << s.ascii_plot(width, height, log_y) << std::flush;
}

void ResultSink::trace(const base::Trace& t, const std::string& artifact) {
  write_artifact(artifact, ".csv", t.to_csv());
}

void ResultSink::metric(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[key] = json_number(value);
}

void ResultSink::metric(const std::string& key, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[key] = base::JsonValue(static_cast<double>(value));
}

void ResultSink::metric(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[key] = base::JsonValue(value);
}

void ResultSink::perf(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  perf_[key] = json_number(value);
}

void ResultSink::perf(const std::string& key, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  perf_[key] = base::JsonValue(static_cast<double>(value));
}

void ResultSink::raw_artifact(const std::string& filename,
                              const std::string& content) {
  write_artifact(filename, "", content);
}

void ResultSink::golden_stats(const std::string& json) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    golden_stats_ = json;
  }
  write_artifact("golden_stats.json", "", json);
}

void ResultSink::finish(int status, double wall_seconds) {
  if (out_dir_.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::filesystem::path d(dir());
  std::filesystem::create_directories(d);
  base::JsonArray artifacts(artifacts_.begin(), artifacts_.end());
  base::JsonObject summary;
  summary["scenario"] = base::JsonValue(scenario_);
  summary["status"] = base::JsonValue(status);
  summary["wall_seconds"] = json_number(wall_seconds);
  summary["metrics"] = base::JsonValue(metrics_);
  summary["perf"] = base::JsonValue(perf_);
  summary["artifacts"] = base::JsonValue(std::move(artifacts));
  std::ofstream out(d / "summary.json");
  out << base::JsonValue(std::move(summary)).dump(2);
}

}  // namespace uwbams::runner
