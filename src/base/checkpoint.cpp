#include "base/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/faults.hpp"
#include "base/json.hpp"

namespace uwbams::base {

namespace fs = std::filesystem;

std::string CheckpointStore::shard_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard_%06zu.json", index);
  return buf;
}

namespace {

bool read_whole_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, std::string run_id,
                                 std::uint64_t content_key,
                                 std::size_t total_tasks, bool resume)
    : dir_(std::move(dir)), run_id_(std::move(run_id)) {
  if (dir_.empty())
    throw std::invalid_argument("CheckpointStore: empty directory");
  done_.assign(total_tasks, false);
  payloads_.assign(total_tasks, "");
  fs::create_directories(dir_);
  const fs::path manifest = fs::path(dir_) / "manifest.json";

  std::string manifest_text;
  const bool have_manifest =
      resume && read_whole_file(manifest, &manifest_text);
  if (have_manifest) {
    JsonValue doc;
    try {
      doc = parse_json(manifest_text);
    } catch (const JsonError& e) {
      throw std::runtime_error("CheckpointStore: corrupt manifest in " + dir_ +
                               ": " + e.what());
    }
    if (!doc.has("schema") || doc.at("schema").as_string() != kSchema)
      throw std::runtime_error(
          "CheckpointStore: unknown checkpoint schema in " + dir_);
    const std::string key = hex_u64(content_key);
    if (doc.at("content_key").as_string() != key)
      throw std::runtime_error(
          "CheckpointStore: content hash mismatch in " + dir_ +
          " (checkpoint " + doc.at("content_key").as_string() +
          ", this run " + key +
          ") — the checkpoint belongs to a different config/seed/tier");
    if (static_cast<std::size_t>(doc.at("total_tasks").as_number()) !=
        total_tasks)
      throw std::runtime_error(
          "CheckpointStore: task count mismatch in " + dir_ +
          " — the checkpoint belongs to a different run shape");
    // Load every readable shard; a missing or torn shard is recomputed.
    for (std::size_t i = 0; i < total_tasks; ++i) {
      std::string text;
      if (!read_whole_file(fs::path(dir_) / shard_name(i), &text)) continue;
      try {
        parse_json(text);
      } catch (const JsonError&) {
        continue;  // torn/truncated shard: treat as not completed
      }
      done_[i] = true;
      payloads_[i] = std::move(text);
    }
    return;
  }

  // Fresh start (also the `--resume` path when nothing exists yet): drop
  // any leftovers from an unrelated previous run so shards never mix.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name == "manifest.json" || name.rfind("shard_", 0) == 0)
      fs::remove(entry.path());
  }
  JsonObject doc;
  doc["schema"] = kSchema;
  doc["run"] = run_id_;
  doc["content_key"] = hex_u64(content_key);
  doc["total_tasks"] = static_cast<double>(total_tasks);
  std::ofstream out(manifest, std::ios::binary);
  if (!out)
    throw std::runtime_error("CheckpointStore: cannot write " +
                             manifest.string());
  out << JsonValue(std::move(doc)).dump(2) << "\n";
}

std::size_t CheckpointStore::completed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const bool d : done_) n += d ? 1 : 0;
  return n;
}

bool CheckpointStore::completed(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < done_.size() && done_[index];
}

std::string CheckpointStore::payload(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < payloads_.size() ? payloads_[index] : std::string();
}

void CheckpointStore::record(std::size_t index, const std::string& payload) {
  if (index >= done_.size())
    throw std::out_of_range("CheckpointStore::record: bad shard index");
  faults::check("checkpoint.shard", static_cast<std::uint64_t>(index));
  const fs::path final_path = fs::path(dir_) / shard_name(index);
  const fs::path tmp_path = fs::path(dir_) / (shard_name(index) + ".tmp");
  {
    std::ofstream out(tmp_path, std::ios::binary);
    if (!out)
      throw std::runtime_error("CheckpointStore: cannot write " +
                               tmp_path.string());
    out << payload;
  }
  fs::rename(tmp_path, final_path);
  std::lock_guard<std::mutex> lock(mu_);
  done_[index] = true;
  payloads_[index] = payload;
}

}  // namespace uwbams::base
