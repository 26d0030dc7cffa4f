#include "net/mobility.hpp"

#include <cmath>
#include <stdexcept>

namespace uwbams::net {

namespace {
constexpr double kPi = 3.141592653589793238462643383279502884;

// Specular reflection of a finite x into [0, limit]. One bounce (the only
// case short round periods produce) is a single exact step; a step longer
// than the area folds the unfolded coordinate by its exact remainder
// modulo 2 * limit, flipping the velocity once per wall crossed, so even a
// huge step takes constant time.
double reflect(double x, double limit, double* v) {
  if (x < -limit || x > 2.0 * limit) {
    x = std::fmod(x, 2.0 * limit);
    if (x < 0.0) x += 2.0 * limit;
    if (x > limit) *v = -*v;
    return x > limit ? 2.0 * limit - x : x;
  }
  if (x < 0.0) {
    *v = -*v;
    return -x;
  }
  if (x > limit) {
    *v = -*v;
    return 2.0 * limit - x;
  }
  return x;
}
}  // namespace

MobilityModel::MobilityModel(const MobilityConfig& cfg, std::size_t tag_count,
                             std::uint64_t seed_stream)
    : cfg_(cfg), tags_(tag_count) {
  if (!std::isfinite(cfg_.speed_mps) || cfg_.speed_mps < 0.0)
    throw std::invalid_argument(
        "MobilityModel: speed_mps must be finite and >= 0");
  if (!std::isfinite(cfg_.area_m) || cfg_.area_m <= 0.0)
    throw std::invalid_argument("MobilityModel: area_m must be finite and > 0");
  const base::Rng root(seed_stream);
  if (cfg_.kind == MobilityKind::kWaypoint) {
    rngs_.reserve(tag_count);
    for (std::size_t t = 0; t < tag_count; ++t)
      rngs_.push_back(root.fork(static_cast<std::uint64_t>(t)));
  } else if (cfg_.kind == MobilityKind::kVelocity) {
    for (std::size_t t = 0; t < tag_count; ++t) {
      const double ang =
          root.fork(static_cast<std::uint64_t>(t)).uniform(0.0, 2.0 * kPi);
      tags_[t].vx = cfg_.speed_mps * std::cos(ang);
      tags_[t].vy = cfg_.speed_mps * std::sin(ang);
    }
  }
}

void MobilityModel::advance(std::size_t t, double dt_s, double* x, double* y) {
  const double step = cfg_.speed_mps * dt_s;  // distance walked this call
  if (!std::isfinite(step))
    throw std::invalid_argument(
        "MobilityModel: the step speed_mps * dt_s must be finite");
  TagState& s = tags_.at(t);
  switch (cfg_.kind) {
    case MobilityKind::kStatic:
      return;
    case MobilityKind::kVelocity: {
      double nx = *x + s.vx * dt_s;
      double ny = *y + s.vy * dt_s;
      nx = reflect(nx, cfg_.area_m, &s.vx);
      ny = reflect(ny, cfg_.area_m, &s.vy);
      *x = nx;
      *y = ny;
      return;
    }
    case MobilityKind::kWaypoint: {
      double budget = step;
      while (budget > 0.0) {
        if (!s.has_target) {
          base::Rng& rng = rngs_[t];
          s.tx = rng.uniform(0.0, cfg_.area_m);
          s.ty = rng.uniform(0.0, cfg_.area_m);
          s.has_target = true;
        }
        const double dx = s.tx - *x;
        const double dy = s.ty - *y;
        const double dist = std::hypot(dx, dy);
        if (dist <= budget) {
          // Arrive and draw the next leg with the remaining travel budget.
          *x = s.tx;
          *y = s.ty;
          s.has_target = false;
          budget -= dist;
          if (dist == 0.0) budget = 0.0;  // degenerate same-point target
        } else {
          *x += dx / dist * budget;
          *y += dy / dist * budget;
          budget = 0.0;
        }
      }
      return;
    }
  }
}

}  // namespace uwbams::net
