/// @file memo.hpp
/// @brief Content-addressed memoization of expensive intermediates.
///
/// The top-down loop reuses expensive intermediates: the Phase-II ITD
/// characterization feeds every behavioral model, and the netscale tier
/// reuses one calibrated PHY surrogate. `memoize` is the one lookup path
/// for both (characterize_itd_cached below, net::load_or_calibrate_surrogate),
/// keyed by the FNV-1a hash of a canonical {code_version, kind, ...}
/// document (core/canonical.hpp): any result-affecting knob or a
/// code-version bump mis-hits nothing, and a repeat hits exactly.
///
/// A lookup tries, in order:
///   1. the in-process level, holding the computed object itself — a hit
///      returns the very bits the cold call produced, without re-decoding;
///   2. when UWBAMS_CACHE names a directory, one process-wide
///      serve::ResultCache over it, shared with `uwbams_serve`. Codecs
///      render doubles as %.17g, which round-trips every finite double, so
///      a disk hit is bit-identical too. An entry that fails to decode
///      (torn, hand-edited, stale schema) is a miss and gets overwritten;
///   3. the computation, whose result fills both levels.
///
/// UWBAMS_MEMO=0 disables every level — the escape hatch for A/B-ing the
/// memo itself. Per-trial Monte-Carlo characterizations (distinct mismatch
/// seeds, borrowed AC workspaces) do not route through here: their keys
/// never repeat, and a borrowed workspace is per-task solver state the
/// canonical form refuses to hash.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "base/json.hpp"
#include "core/characterize.hpp"

namespace uwbams::core::memo {

/// False when UWBAMS_MEMO=0 (checked once per process).
bool enabled();

/// Disk encoding of a memoized type; `decode` throws on a bad payload.
template <typename T>
struct Codec {
  std::string (*encode)(const T&);
  T (*decode)(const std::string&);
};

namespace detail {
using Erased = std::shared_ptr<const void>;
Erased lookup(std::uint64_t key,
              const std::function<Erased(const std::string&)>& decode,
              const std::function<Erased()>& compute,
              const std::function<std::string(const void*)>& encode);
}  // namespace detail

/// The value stored under `key`, else `compute()`. Thread-safe and
/// single-flight (base/single_flight.hpp): concurrent callers of one key
/// share one decode or compute, while distinct keys compute concurrently.
template <typename T, typename Compute>
T memoize(std::uint64_t key, const Codec<T>& codec, Compute&& compute) {
  if (!enabled()) return compute();
  const detail::Erased value = detail::lookup(
      key,
      [&](const std::string& text) -> detail::Erased {
        return std::make_shared<const T>(codec.decode(text));
      },
      [&]() -> detail::Erased { return std::make_shared<const T>(compute()); },
      [&](const void* v) { return codec.encode(*static_cast<const T*>(v)); });
  return *static_cast<const T*>(value.get());
}

/// Content key of one characterization call:
/// {code_version, kind, options, sizing} canonical.
/// @throws std::invalid_argument when options.ac_workspace is set.
std::uint64_t characterize_content_key(const spice::ItdSizing& sizing,
                                       const CharacterizeOptions& options);

/// characterize_itd through memoize. Falls back to a plain call when
/// options borrows an AC workspace.
ItdCharacterization characterize_itd_cached(
    const spice::ItdSizing& sizing = {},
    const CharacterizeOptions& options = {});

/// Disk codec of a characterization (schema
/// "uwbams-characterize-result-v1"); exposed for the round-trip tests.
std::string characterization_to_json(const ItdCharacterization& ch);
ItdCharacterization characterization_from_json(const std::string& text);

/// Process-wide memo statistics over every client.
struct Stats {
  /// Served from the in-process level, or by waiting on a concurrent
  /// caller's computation of the same key.
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;  ///< decoded from the UWBAMS_CACHE store
  std::uint64_t misses = 0;     ///< computed (undecodable entries included)
  /// Always zero: channel draws are no longer memoized. Kept because the
  /// benchmark's traced run (perfbench/trace.cpp) still sums them.
  std::uint64_t channel_mem_hits = 0;
  std::uint64_t channel_disk_hits = 0;
  std::uint64_t channel_misses = 0;
};
Stats stats();
/// Clears the in-process level and zeroes stats (tests only; the disk
/// level, if any, is untouched).
void reset_for_tests();

}  // namespace uwbams::core::memo
