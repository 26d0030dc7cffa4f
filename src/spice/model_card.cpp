#include "spice/model_card.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "base/faults.hpp"
#include "base/random.hpp"

namespace uwbams::spice {

double MosModel::cox() const {
  constexpr double eps_ox = 3.9 * 8.854e-12;  // SiO2 permittivity [F/m]
  return eps_ox / tox;
}

MosModel builtin_model(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  MosModel m;
  if (key == "nmos") {
    m.name = "nmos";
    m.is_pmos = false;
    m.vt0 = 0.45;
    m.kp = 280e-6;
    m.lambda = 0.08;
  } else if (key == "pmos") {
    m.name = "pmos";
    m.is_pmos = true;
    m.vt0 = -0.48;
    m.kp = 90e-6;
    m.gamma = 0.40;
    m.lambda = 0.10;
  } else if (key == "nmos_lv") {
    // Low-threshold NMOS: larger overdrive at the same bias; used in the
    // integrator input stage per the paper's LV device choice.
    m.name = "nmos_lv";
    m.is_pmos = false;
    m.vt0 = 0.25;
    m.kp = 290e-6;
    m.lambda = 0.08;
    m.cj = 0.5e-3;  // lighter LDD junctions on the LV flavor
  } else if (key == "pmos_lv") {
    m.name = "pmos_lv";
    m.is_pmos = true;
    m.vt0 = -0.28;
    m.kp = 95e-6;
    m.gamma = 0.40;
    m.lambda = 0.10;
  } else {
    throw std::invalid_argument("builtin_model: unknown model '" + name + "'");
  }
  return m;
}

// ---------------------------------------------------------------------------
// Corners and mismatch.
// ---------------------------------------------------------------------------

const char* to_string(Corner corner) {
  switch (corner) {
    case Corner::kTT: return "TT";
    case Corner::kFF: return "FF";
    case Corner::kSS: return "SS";
    case Corner::kFS: return "FS";
    case Corner::kSF: return "SF";
  }
  return "TT";
}

bool parse_corner(const std::string& text, Corner* out) {
  std::string key = text;
  std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  if (key == "TT") *out = Corner::kTT;
  else if (key == "FF") *out = Corner::kFF;
  else if (key == "SS") *out = Corner::kSS;
  else if (key == "FS") *out = Corner::kFS;
  else if (key == "SF") *out = Corner::kSF;
  else return false;
  return true;
}

const Corner* all_corners(std::size_t* count) {
  static const Corner kCorners[] = {Corner::kTT, Corner::kFF, Corner::kSS,
                                    Corner::kFS, Corner::kSF};
  *count = sizeof kCorners / sizeof kCorners[0];
  return kCorners;
}

namespace {

// Device speed at a corner: +1 fast, -1 slow, 0 typical.
int corner_speed(Corner corner, bool is_pmos) {
  switch (corner) {
    case Corner::kTT: return 0;
    case Corner::kFF: return +1;
    case Corner::kSS: return -1;
    case Corner::kFS: return is_pmos ? -1 : +1;
    case Corner::kSF: return is_pmos ? +1 : -1;
  }
  return 0;
}

}  // namespace

bool ModelVariation::is_nominal() const {
  return corner == Corner::kTT && temp_c == 27.0 && sigma_scale == 0.0;
}

MosModel ModelVariation::apply(const MosModel& base, const std::string& device,
                               double w, double l) const {
  if (is_nominal()) return base;

  MosModel m = base;
  const double sign = m.is_pmos ? -1.0 : 1.0;  // direction of |vt0| growth

  // 1. Process corner: threshold and transconductance move together.
  const int speed = corner_speed(corner, m.is_pmos);
  m.vt0 -= sign * corner_dvt * speed;
  m.kp *= 1.0 + corner_dkp * speed;

  // 2. Temperature: mobility ~ (T/T0)^-1.5, |vt0| drops 1.5 mV/K.
  constexpr double kT0 = 300.15;  // 27 C reference [K]
  const double t_k = temp_c + 273.15;
  m.kp *= std::pow(t_k / kT0, -1.5);
  m.vt0 -= sign * 1.5e-3 * (temp_c - 27.0);

  // 3. Per-device Gaussian mismatch with Pelgrom area scaling. The draw
  //    order (vt0 first, then kp) is part of the determinism contract.
  //    The sub-stream id is FNV-1a of the device name, not std::hash, whose
  //    value for a given string is implementation-defined. Its basis is the
  //    standard offset basis with the last decimal digit dropped
  //    (1469598103934665603 vs 14695981039346656037); the Monte-Carlo
  //    goldens pin the streams this basis yields, so it stays.
  if (sigma_scale != 0.0) {
    constexpr std::uint64_t kMismatchBasis = 1469598103934665603ULL;
    base::Rng rng(base::derive_seed(mismatch_seed,
                                    base::fnv1a64(device, kMismatchBasis)));
    const double root_area = std::sqrt(w * l);
    const double sigma_vt = sigma_scale * pelgrom_avt / root_area;
    const double sigma_kp = sigma_scale * pelgrom_akp / root_area;
    m.vt0 += rng.gaussian(0.0, sigma_vt);
    // Clamp the relative kp draw so an extreme tail cannot flip the sign.
    m.kp *= std::max(0.2, 1.0 + rng.gaussian(0.0, sigma_kp));
  }
  return m;
}

}  // namespace uwbams::spice
