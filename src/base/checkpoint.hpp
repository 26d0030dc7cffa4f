/// @file checkpoint.hpp
/// @brief Byte-stable checkpoint journal for resumable sweeps.
///
/// A long sweep (100k-trial Monte-Carlo, a 20k-node netscale campaign) is a
/// set of independent tasks whose results are deterministic in (config,
/// seed, task index). That makes resumption trivial *if* completed results
/// survive the process: CheckpointStore shards each completed task's
/// serialized result to disk as it finishes, and a restarted run loads the
/// shards back instead of recomputing — producing final artifacts
/// byte-identical to an uninterrupted run (the property CI gates).
///
/// Layout of a checkpoint directory:
///   manifest.json    — schema "uwbams.checkpoint/1", run id, the content
///                      key (a hash of scenario config + seed + tier) and
///                      the total task count;
///   shard_NNNNNN.json— the serialized result of task N, written via
///                      tmp-file + rename so a kill mid-write never leaves
///                      a torn shard under the final name.
///
/// Resume contract: `resume = true` requires any existing manifest to
/// match (schema, content key, task count) — a mismatch means the
/// checkpoint belongs to a *different* run (stale config, different seed
/// or tier) and is rejected with an exception rather than silently mixing
/// results. A missing manifest starts fresh (so `--resume` is idempotent).
/// Shards that are missing or unreadable are simply recomputed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace uwbams::base {

class CheckpointStore {
 public:
  static constexpr const char* kSchema = "uwbams.checkpoint/1";

  /// Opens (creating if needed) `dir` for a run identified by
  /// (run_id, content_key, total_tasks).
  ///   resume = false: any previous manifest/shards in `dir` are removed
  ///                   and a fresh manifest is written;
  ///   resume = true : an existing manifest must match — schema, content
  ///                   key and task count — or std::runtime_error is
  ///                   thrown (stale/corrupted checkpoint rejection); all
  ///                   readable shards are loaded as completed.
  CheckpointStore(std::string dir, std::string run_id,
                  std::uint64_t content_key, std::size_t total_tasks,
                  bool resume);

  const std::string& dir() const { return dir_; }
  std::size_t total_tasks() const { return done_.size(); }
  std::size_t completed_count() const;
  bool completed(std::size_t index) const;
  /// Payload of a completed shard ("" when not completed).
  std::string payload(std::size_t index) const;

  /// Atomically records shard `index` (tmp + rename). Thread-safe across
  /// distinct indices. Probes the "checkpoint.shard" fault site *before*
  /// writing, so an injected abort kills the run with this shard missing.
  void record(std::size_t index, const std::string& payload);

  /// shard_NNNNNN.json
  static std::string shard_name(std::size_t index);

 private:
  std::string dir_;
  std::string run_id_;
  std::vector<bool> done_;
  std::vector<std::string> payloads_;
  mutable std::mutex mu_;
};

}  // namespace uwbams::base
