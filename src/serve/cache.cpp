#include "serve/cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "base/json.hpp"

namespace uwbams::serve {

namespace fs = std::filesystem;

ResultCache::ResultCache(std::string dir, std::size_t mem_entries)
    : dir_(std::move(dir)), mem_entries_(mem_entries == 0 ? 1 : mem_entries) {
  if (dir_.empty()) return;
  fs::create_directories(dir_);
  if (const char* mb = std::getenv("UWBAMS_CACHE_MAX_MB")) {
    // Strict: the whole value must be a finite, non-negative size whose
    // byte count fits std::uintmax_t (2^64 as a double is the first value
    // that does not).
    char* end = nullptr;
    const double bytes = std::strtod(mb, &end) * 1024.0 * 1024.0;
    if (end == mb || *end != '\0' || !(bytes >= 0.0) ||
        bytes >= std::ldexp(1.0, std::numeric_limits<std::uintmax_t>::digits))
      throw std::invalid_argument(
          std::string("UWBAMS_CACHE_MAX_MB: expected a finite non-negative "
                      "size in megabytes, got '") +
          mb + "'");
    disk_max_bytes_ = static_cast<std::uintmax_t>(bytes);
  }
}

void ResultCache::set_disk_max_bytes(std::uintmax_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_max_bytes_ = bytes;
}

std::uintmax_t ResultCache::disk_max_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_max_bytes_;
}

std::string ResultCache::entry_path(std::uint64_t key) const {
  if (dir_.empty()) return "";
  return (fs::path(dir_) / ("entry_" + base::hex_u64(key) + ".json")).string();
}

void ResultCache::insert_mem_locked(std::uint64_t key,
                                    const std::string& payload) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = payload;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, payload);
  map_[key] = lru_.begin();
  while (lru_.size() > mem_entries_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

bool ResultCache::get(std::uint64_t key, std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    *out = it->second->second;
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.mem_hits;
    return true;
  }
  if (!dir_.empty()) {
    std::ifstream in(entry_path(key), std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      if (in.good() || in.eof()) {
        *out = ss.str();
        insert_mem_locked(key, *out);
        ++stats_.disk_hits;
        // Refresh the entry's recency so the size-capped eviction sees it
        // as hot (best-effort: a failed touch only ages it).
        std::error_code ec;
        fs::last_write_time(entry_path(key),
                            std::filesystem::file_time_type::clock::now(),
                            ec);
        return true;
      }
    }
  }
  ++stats_.misses;
  return false;
}

void ResultCache::put(std::uint64_t key, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  insert_mem_locked(key, payload);
  ++stats_.puts;
  if (dir_.empty()) return;
  // tmp + rename: readers only ever see complete entries (rename within a
  // directory is atomic on POSIX), mirroring CheckpointStore::record.
  const fs::path final_path(entry_path(key));
  const fs::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("ResultCache: cannot write " +
                               tmp_path.string());
    out << payload;
    if (!out)
      throw std::runtime_error("ResultCache: short write to " +
                               tmp_path.string());
  }
  fs::rename(tmp_path, final_path);
  if (disk_max_bytes_ > 0) evict_disk_locked(final_path.string());
}

// Walks the store and deletes least-recently-used entries until the summed
// size fits under disk_max_bytes_. `spare_path` (the entry just written) is
// never deleted, so the cap degenerates gracefully: one oversized payload
// keeps exactly itself.
void ResultCache::evict_disk_locked(const std::string& spare_path) {
  struct DiskEntry {
    fs::file_time_type mtime;
    std::string path;
    std::uintmax_t size;
  };
  std::vector<DiskEntry> entries;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    const std::string name = de.path().filename().string();
    if (name.rfind("entry_", 0) != 0 || de.path().extension() != ".json")
      continue;
    std::error_code fec;
    const std::uintmax_t size = de.file_size(fec);
    if (fec) continue;
    const fs::file_time_type mtime = de.last_write_time(fec);
    if (fec) continue;
    entries.push_back({mtime, de.path().string(), size});
    total += size;
  }
  if (ec || total <= disk_max_bytes_) return;
  // Oldest first; filename tie-break keeps the order total when a burst of
  // puts lands within the filesystem's mtime resolution.
  std::sort(entries.begin(), entries.end(),
            [](const DiskEntry& a, const DiskEntry& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  for (const DiskEntry& e : entries) {
    if (total <= disk_max_bytes_) break;
    if (e.path == spare_path) continue;
    std::error_code rec;
    if (fs::remove(e.path, rec) && !rec) {
      total -= e.size;
      ++stats_.disk_evictions;
    }
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace uwbams::serve
