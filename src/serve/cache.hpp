/// @file cache.hpp
/// @brief Content-addressed result cache: memory LRU in front of a disk
/// store.
///
/// Entries are keyed by the FNV-1a content key of a canonical document
/// (core/canonical.hpp): every result-affecting knob plus the code-version
/// constant, so a hit is *definitionally* the byte-identical result of the
/// same computation — the cache never needs to compare payloads, only
/// keys. Used by the `uwbams_serve` request handler (whole-scenario
/// results) and as the disk level of core::memo (characterization and
/// surrogate calibration).
///
/// Disk layout (`dir` empty = memory-only):
///   entry_<0x%016llx>.json — the payload bytes, verbatim.
/// Writes go through tmp-file + rename (the CheckpointStore idiom), so a
/// kill mid-write never leaves a torn entry under the final name; a
/// corrupted or unreadable entry is treated as a miss and overwritten by
/// the next put. Payload validity is the caller's contract: core::memo
/// treats a payload it cannot decode as a miss and recomputes.
///
/// The disk level is size-capped LRU: UWBAMS_CACHE_MAX_MB (or
/// set_disk_max_bytes) bounds the summed entry size; a put that pushes the
/// store past the cap deletes least-recently-used entries — oldest mtime
/// first, filename tie-break — until it fits, never touching the entry just
/// written. Disk reads refresh the entry's mtime, so a hot entry survives
/// churn. Default: unbounded (the historical behavior).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

namespace uwbams::serve {

class ResultCache {
 public:
  struct Stats {
    std::uint64_t mem_hits = 0;   ///< served from the memory LRU
    std::uint64_t disk_hits = 0;  ///< read back from the disk store
    std::uint64_t misses = 0;     ///< not present anywhere
    std::uint64_t puts = 0;       ///< entries stored
    std::uint64_t evictions = 0;  ///< memory entries displaced by LRU
    std::uint64_t disk_evictions = 0;  ///< disk entries removed by the cap
  };

  /// `dir` empty = memory-only. `mem_entries` bounds the LRU (>= 1). The
  /// disk cap initializes from UWBAMS_CACHE_MAX_MB when set (fractional
  /// megabytes accepted; 0 means unbounded). Throws std::invalid_argument
  /// when that value is not entirely a finite non-negative number, or its
  /// byte count overflows std::uintmax_t.
  explicit ResultCache(std::string dir = "", std::size_t mem_entries = 64);

  /// True (payload in *out) on a hit; promotes the entry to most-recent.
  /// A disk hit is pulled into the memory LRU.
  bool get(std::uint64_t key, std::string* out);
  /// Stores (overwriting) the payload under `key`, memory + disk.
  void put(std::uint64_t key, const std::string& payload);

  const std::string& dir() const { return dir_; }
  Stats stats() const;

  /// Overrides the disk size cap (bytes; 0 = unbounded). Takes effect on
  /// the next put — existing entries are not scanned eagerly.
  void set_disk_max_bytes(std::uintmax_t bytes);
  std::uintmax_t disk_max_bytes() const;

  /// entry_<0x%016llx>.json under `dir` ("" when memory-only).
  std::string entry_path(std::uint64_t key) const;

 private:
  void insert_mem_locked(std::uint64_t key, const std::string& payload);
  void evict_disk_locked(const std::string& spare_path);

  std::string dir_;
  std::size_t mem_entries_;
  std::uintmax_t disk_max_bytes_ = 0;  ///< 0 = unbounded
  // Most-recent-first (key, payload) list + key -> node index.
  std::list<std::pair<std::uint64_t, std::string>> lru_;
  std::map<std::uint64_t,
           std::list<std::pair<std::uint64_t, std::string>>::iterator>
      map_;
  Stats stats_;
  mutable std::mutex mu_;
};

}  // namespace uwbams::serve
