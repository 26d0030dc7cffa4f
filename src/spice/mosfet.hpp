/// @file mosfet.hpp
/// @brief Level-1 (Shichman–Hodges) MOSFET with Meyer capacitances.
///
/// The large-signal model covers cutoff / triode / saturation with body
/// effect and channel-length modulation; drain/source are symmetric (swapped
/// internally when vds < 0). Gate capacitances follow the piecewise Meyer
/// model and are evaluated at the last committed solution, so they act as
/// linear companions within each Newton solve — the same simplification
/// classic SPICE Meyer implementations make.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "spice/device.hpp"
#include "spice/model_card.hpp"

namespace uwbams::spice {

/// Static evaluation of the Level-1 equations; exposed for unit tests and
/// for the characterization tools.
struct MosEval {
  enum class Region { kCutoff, kTriode, kSaturation };
  Region region = Region::kCutoff;
  double ids = 0.0;  ///< drain current in the *effective* (flipped) frame [A]
  double gm = 0.0;
  double gds = 0.0;
  double gmb = 0.0;
  double vth = 0.0;
};

class Mosfet final : public Device {
 public:
  /// Nodes are NodeIds (ground = 0): drain, gate, source, bulk.
  Mosfet(std::string name, int d, int g, int s, int b, MosModel model,
         double width, double length);

  bool nonlinear() const override { return true; }
  void stamp(Mna<double>& mna, const StampArgs& args) const override;
  bool supports_residual() const override { return true; }
  void residual(std::vector<double>& f, const StampArgs& args) const override;
  void footprint(MnaPattern& pattern) const override;
  void stamp_ac(Mna<std::complex<double>>& mna, const std::vector<double>& op,
                double omega) const override;
  void init_state(const std::vector<double>& op) override;
  void commit(const std::vector<double>& x, double t, double dt) override;
  /// Checkpointed state: the five cap states and the last evaluated
  /// region (read by the fused commit).
  void save_state(std::vector<double>& out) const override;
  const double* load_state(const double* in) override;

  const MosModel& model() const { return model_; }
  double width() const { return width_; }
  double length() const { return length_; }

  /// Fused-commit mode (the stat_equiv engine profile): commit() reuses the
  /// operating region recorded by the last residual()/stamp() evaluation
  /// instead of recomputing region_at(x). The last evaluation happened at
  /// the pre-final-update Newton iterate, so a device sitting exactly on a
  /// region boundary can freeze the other region's Meyer values — a
  /// marginal-bit difference, which is why this is off under bit_exact.
  void set_fused_commit(bool on) { fused_commit_ = on; }

  /// Level-1 equations at the given terminal voltages (actual node frame).
  MosEval evaluate(double vd, double vg, double vs, double vb) const;
  /// Evaluation at a solution vector (e.g. an operating point).
  MosEval evaluate_at(const std::vector<double>& x) const;

  std::string card(const Circuit& circuit) const override;

 private:
  /// MOS parasitic capacitances are integrated with backward Euler even when
  /// the global method is trapezoidal: the Meyer model switches capacitance
  /// values at region boundaries, and an undamped trapezoidal companion then
  /// rings at control-signal edges and rectifies the ringing into spurious
  /// charge on floating nodes (observed as common-mode drift of the held
  /// integration capacitor). BE damps the ringing; the fF-scale parasitics
  /// lose no relevant accuracy.
  struct CapState {
    double c = 0.0;       ///< capacitance frozen for the current step [F]
    double v_prev = 0.0;  ///< committed voltage across the cap
  };

  /// Meyer capacitance values for the region at solution x.
  /// Order: Cgs, Cgd, Cgb, Cdb, Csb.
  std::array<double, 5> meyer_caps(const std::vector<double>& x) const;
  /// Meyer capacitance values for an already-known region (the fused-commit
  /// path). Must stay table-identical to meyer_caps().
  std::array<double, 5> caps_for_region(MosEval::Region region) const;
  /// Drain current in the effective (flipped) frame — the ids-only half of
  /// evaluate(), used by the derivative-free residual() hot path. Must stay
  /// formula-identical to evaluate(). Writes the operating region to
  /// *region as a byproduct (it falls out of the vov/vds comparisons).
  double ids_effective(double vds, double vgs, double vbs,
                       MosEval::Region* region) const;
  /// Operating region at solution x — the first half of evaluate(), without
  /// the current/conductance math. Kept decision-identical to evaluate() so
  /// commit()-time cap refreshes stay exact but cheap.
  MosEval::Region region_at(const std::vector<double>& x) const;
  void refresh_cap_values(const std::vector<double>& x);

  int d_, g_, s_, b_;  ///< MNA matrix indices
  MosModel model_;
  double width_, length_;
  /// Operating-point-independent values hoisted out of evaluate(), which
  /// runs once per device per Newton iteration on the transient hot path.
  double leff_;      ///< effective channel length [m]
  double beta_;      ///< kp * W / Leff [A/V^2]
  double vt0_abs_;   ///< |VT0| [V]
  double sqrt_phi_;  ///< sqrt(phi) [sqrt(V)]
  double cox_tot_;   ///< total gate oxide capacitance [F]
  double ovl_s_, ovl_d_, ovl_b_;  ///< overlap capacitances [F]
  double cj_;        ///< junction capacitance [F]
  /// Cap terminal index pairs, fixed at construction.
  std::array<std::pair<int, int>, 5> cap_nodes_;
  std::array<CapState, 5> caps_;
  /// Fused-commit support: region observed by the most recent
  /// residual()/stamp() evaluation (mutable — those entry points are const).
  bool fused_commit_ = false;
  mutable MosEval::Region last_region_ = MosEval::Region::kCutoff;
};

}  // namespace uwbams::spice
