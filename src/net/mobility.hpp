/// @file mobility.hpp
/// @brief Deterministic node-mobility models for the event-driven engine.
///
/// Tags in a city-scale deployment move; anchors do not. Three models:
///
///   * kStatic   — tags stay where the layout draw put them;
///   * kVelocity — constant speed and heading per tag (drawn once from the
///                 tag's seed sub-stream), specular bounce off the area
///                 walls — the "vehicle on a closed course" pattern;
///   * kWaypoint — random waypoint: walk toward a target at constant
///                 speed, draw the next target on arrival — the classic
///                 pedestrian/asset model.
///
/// Every draw comes from a per-tag base::Rng forked off the mobility seed
/// stream (sub-stream t for tag t), and updates are applied serially by the
/// engine's event loop, so trajectories are bit-identical across runs and
/// worker counts (the measurement fan-out never touches mobility state).
/// Only kWaypoint draws after construction, so only it keeps the per-tag
/// streams; kVelocity draws its heading from a temporary fork, and kStatic
/// holds no stream at all.
#pragma once

#include <cstdint>
#include <vector>

#include "base/random.hpp"

namespace uwbams::net {

enum class MobilityKind { kStatic, kVelocity, kWaypoint };

struct MobilityConfig {
  MobilityKind kind = MobilityKind::kStatic;
  double speed_mps = 1.5;  ///< tag speed [m/s] (pedestrian-ish default)
  double area_m = 40.0;    ///< square side; tags stay in [0, area]^2
};

/// Walks one tag population. Positions are owned by the caller (the
/// engine); this class owns only the per-tag kinematic state.
class MobilityModel {
 public:
  /// `seed_stream` is the engine's mobility sub-stream; tag t forks
  /// sub-stream t of it. Initial positions are the caller's layout.
  /// Throws std::invalid_argument on a non-finite or negative speed or a
  /// non-finite or non-positive area.
  MobilityModel(const MobilityConfig& cfg, std::size_t tag_count,
                std::uint64_t seed_stream);

  /// Advances tag `t` from `x`/`y` by `dt_s` seconds in place. Must be
  /// called serially, in tag order, once per round (state draws are
  /// consumed in a fixed order). Throws std::invalid_argument when the
  /// step speed_mps * dt_s is not finite.
  void advance(std::size_t t, double dt_s, double* x, double* y);

 private:
  struct TagState {
    double vx = 0.0, vy = 0.0;        // kVelocity
    double tx = 0.0, ty = 0.0;        // kWaypoint target
    bool has_target = false;
  };

  MobilityConfig cfg_;
  std::vector<TagState> tags_;
  std::vector<base::Rng> rngs_;  ///< per-tag streams, kWaypoint only
};

}  // namespace uwbams::net
