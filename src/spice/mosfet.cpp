#include "spice/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "spice/devices.hpp"

namespace uwbams::spice {

Mosfet::Mosfet(std::string name, int d, int g, int s, int b, MosModel model,
               double width, double length)
    : Device(std::move(name)), d_(mna_index(d)), g_(mna_index(g)),
      s_(mna_index(s)), b_(mna_index(b)), model_(std::move(model)),
      width_(width), length_(length) {
  cap_nodes_ = {{{g_, s_}, {g_, d_}, {g_, b_}, {d_, b_}, {s_, b_}}};
  leff_ = std::max(length_ - 2.0 * model_.ld, 1e-8);
  beta_ = model_.kp * width_ / leff_;
  vt0_abs_ = std::abs(model_.vt0);
  sqrt_phi_ = std::sqrt(model_.phi);
  cox_tot_ = model_.cox() * width_ * leff_;
  ovl_s_ = model_.cgso * width_;
  ovl_d_ = model_.cgdo * width_;
  ovl_b_ = model_.cgbo * length_;
  cj_ = model_.cj * width_ * model_.ldiff;
}

void Mosfet::footprint(MnaPattern& pattern) const {
  // The conductance/current stamp couples all four terminals in either
  // drain/source orientation; the Meyer/junction companions and the gmin
  // shunt stay within the same 4x4 block.
  pattern.add_block({d_, g_, s_, b_});
}

MosEval Mosfet::evaluate(double vd, double vg, double vs, double vb) const {
  const double p = model_.is_pmos ? -1.0 : 1.0;
  // Flip into the NMOS-like frame.
  double vds = p * (vd - vs);
  double vgs = p * (vg - vs);
  double vbs = p * (vb - vs);
  // Symmetric device: if vds < 0 the roles of drain and source swap.
  if (vds < 0.0) {
    vds = -vds;
    vgs = p * (vg - vd);
    vbs = p * (vb - vd);
  }

  MosEval e;
  // Body effect: clamp the forward-bias case to keep sqrt well-defined.
  const double phi = model_.phi;
  const double sq_arg = std::max(phi - vbs, 0.02);
  const double dvth = model_.gamma * (std::sqrt(sq_arg) - sqrt_phi_);
  e.vth = vt0_abs_ + dvth;

  const double beta = beta_;
  const double vov = vgs - e.vth;
  const double lam = model_.lambda;
  const double dvth_dvbs = -model_.gamma / (2.0 * std::sqrt(sq_arg));

  if (vov <= 0.0) {
    e.region = MosEval::Region::kCutoff;
    // Hard cutoff; gmin shunts (added by the solver) keep the matrix regular.
    return e;
  }
  if (vds < vov) {
    e.region = MosEval::Region::kTriode;
    const double clm = 1.0 + lam * vds;
    e.ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
    e.gm = beta * vds * clm;
    e.gds = beta * (vov - vds) * clm +
            beta * (vov * vds - 0.5 * vds * vds) * lam;
  } else {
    e.region = MosEval::Region::kSaturation;
    const double clm = 1.0 + lam * vds;
    e.ids = 0.5 * beta * vov * vov * clm;
    e.gm = beta * vov * clm;
    e.gds = 0.5 * beta * vov * vov * lam;
  }
  // gmb = dIds/dvbs = (dIds/dvth)(dvth/dvbs) = (-gm)(dvth/dvbs).
  e.gmb = -e.gm * dvth_dvbs;
  return e;
}

MosEval Mosfet::evaluate_at(const std::vector<double>& x) const {
  return evaluate(v_at(x, d_), v_at(x, g_), v_at(x, s_), v_at(x, b_));
}

void Mosfet::stamp(Mna<double>& mna, const StampArgs& args) const {
  const std::vector<double>& x = *args.x;
  const double vd = v_at(x, d_), vg = v_at(x, g_), vs = v_at(x, s_),
               vb = v_at(x, b_);
  const double p = model_.is_pmos ? -1.0 : 1.0;

  // Effective drain/source after symmetry swap (in actual node terms).
  // Direct sequential adds measure faster here than accumulating into a
  // local 4x4 block: the variable drain/source slots defeat register
  // allocation of the block and the flush branches mispredict.
  const bool swapped = p * (vd - vs) < 0.0;
  const int nd = swapped ? s_ : d_;
  const int ns = swapped ? d_ : s_;
  const double vde = swapped ? vs : vd;
  const double vse = swapped ? vd : vs;

  const MosEval e = evaluate(vd, vg, vs, vb);
  last_region_ = e.region;

  // Conductance stamps are polarity-invariant (see header notes): the
  // current into the effective drain is
  //   I_D = gm*(vg - vse) + gds*(vde - vse) + gmb*(vb - vse) + Ieq
  // with Ieq = p*ids - gm*(vg-vse) - gds*(vde-vse) - gmb*(vb-vse).
  mna.add(nd, g_, e.gm);
  mna.add(nd, nd, e.gds);
  mna.add(nd, b_, e.gmb);
  mna.add(nd, ns, -(e.gm + e.gds + e.gmb));
  mna.add(ns, g_, -e.gm);
  mna.add(ns, nd, -e.gds);
  mna.add(ns, b_, -e.gmb);
  mna.add(ns, ns, e.gm + e.gds + e.gmb);

  const double ieq = p * e.ids - e.gm * (vg - vse) - e.gds * (vde - vse) -
                     e.gmb * (vb - vse);
  mna.stamp_current(nd, ns, ieq);

  // gmin shunt keeps off devices from isolating nodes.
  if (args.gmin > 0.0) mna.stamp_conductance(d_, s_, args.gmin);

  // Meyer + junction capacitances, linear companions frozen at the last
  // committed solution (refreshed in commit()/init_state()). Always
  // backward Euler: see the CapState comment in the header.
  if (args.mode == AnalysisMode::kTransient) {
    for (std::size_t k = 0; k < caps_.size(); ++k) {
      const CapState& cs = caps_[k];
      if (cs.c <= 0.0) continue;
      const double geq = cs.c * args.inv_dt;
      const int i = cap_nodes_[k].first, j = cap_nodes_[k].second;
      mna.stamp_conductance(i, j, geq);
      mna.stamp_current(i, j, -geq * cs.v_prev);
    }
  }
}

double Mosfet::ids_effective(double vds, double vgs, double vbs,
                             MosEval::Region* region) const {
  const double sq_arg = std::max(model_.phi - vbs, 0.02);
  const double vth = vt0_abs_ + model_.gamma * (std::sqrt(sq_arg) - sqrt_phi_);
  const double vov = vgs - vth;
  if (vov <= 0.0) {
    *region = MosEval::Region::kCutoff;
    return 0.0;
  }
  const double clm = 1.0 + model_.lambda * vds;
  if (vds < vov) {
    *region = MosEval::Region::kTriode;
    return beta_ * (vov * vds - 0.5 * vds * vds) * clm;
  }
  *region = MosEval::Region::kSaturation;
  return 0.5 * beta_ * vov * vov * clm;
}

void Mosfet::residual(std::vector<double>& f, const StampArgs& args) const {
  const std::vector<double>& x = *args.x;
  const double vd = v_at(x, d_), vg = v_at(x, g_), vs = v_at(x, s_),
               vb = v_at(x, b_);
  const double p = model_.is_pmos ? -1.0 : 1.0;
  double vds = p * (vd - vs);
  double vgs = p * (vg - vs);
  double vbs = p * (vb - vs);
  bool swapped = false;
  if (vds < 0.0) {
    vds = -vds;
    vgs = p * (vg - vd);
    vbs = p * (vb - vd);
    swapped = true;
  }
  const double id = p * ids_effective(vds, vgs, vbs, &last_region_);

  // Per-terminal accumulators (registers); one guarded flush at the end.
  double fd = swapped ? -id : id;
  double fs = swapped ? id : -id;
  double fg = 0.0, fb = 0.0;

  if (args.gmin > 0.0) {
    const double ig = args.gmin * (vd - vs);
    fd += ig;
    fs -= ig;
  }

  if (args.mode == AnalysisMode::kTransient) {
    // Cap pairs (g,s), (g,d), (g,b), (d,b), (s,b) read only the four
    // already-loaded terminal voltages.
    const double inv_dt = args.inv_dt;
    const CapState* cs = caps_.data();
    if (cs[0].c > 0.0) {
      const double ic = cs[0].c * inv_dt * (vg - vs - cs[0].v_prev);
      fg += ic;
      fs -= ic;
    }
    if (cs[1].c > 0.0) {
      const double ic = cs[1].c * inv_dt * (vg - vd - cs[1].v_prev);
      fg += ic;
      fd -= ic;
    }
    if (cs[2].c > 0.0) {
      const double ic = cs[2].c * inv_dt * (vg - vb - cs[2].v_prev);
      fg += ic;
      fb -= ic;
    }
    if (cs[3].c > 0.0) {
      const double ic = cs[3].c * inv_dt * (vd - vb - cs[3].v_prev);
      fd += ic;
      fb -= ic;
    }
    if (cs[4].c > 0.0) {
      const double ic = cs[4].c * inv_dt * (vs - vb - cs[4].v_prev);
      fs += ic;
      fb -= ic;
    }
  }

  if (d_ >= 0) f[static_cast<std::size_t>(d_)] += fd;
  if (g_ >= 0) f[static_cast<std::size_t>(g_)] += fg;
  if (s_ >= 0) f[static_cast<std::size_t>(s_)] += fs;
  if (b_ >= 0) f[static_cast<std::size_t>(b_)] += fb;
}

MosEval::Region Mosfet::region_at(const std::vector<double>& x) const {
  const double vd = v_at(x, d_), vg = v_at(x, g_), vs = v_at(x, s_),
               vb = v_at(x, b_);
  const double p = model_.is_pmos ? -1.0 : 1.0;
  double vds = p * (vd - vs);
  double vgs = p * (vg - vs);
  double vbs = p * (vb - vs);
  if (vds < 0.0) {
    vds = -vds;
    vgs = p * (vg - vd);
    vbs = p * (vb - vd);
  }
  const double sq_arg = std::max(model_.phi - vbs, 0.02);
  const double vth =
      vt0_abs_ + model_.gamma * (std::sqrt(sq_arg) - sqrt_phi_);
  const double vov = vgs - vth;
  if (vov <= 0.0) return MosEval::Region::kCutoff;
  return vds < vov ? MosEval::Region::kTriode : MosEval::Region::kSaturation;
}

std::array<double, 5> Mosfet::meyer_caps(const std::vector<double>& x) const {
  return caps_for_region(region_at(x));
}

std::array<double, 5> Mosfet::caps_for_region(MosEval::Region region) const {
  double cgs = ovl_s_, cgd = ovl_d_, cgb = ovl_b_;
  switch (region) {
    case MosEval::Region::kCutoff:
      cgb += cox_tot_;
      break;
    case MosEval::Region::kSaturation:
      cgs += (2.0 / 3.0) * cox_tot_;
      break;
    case MosEval::Region::kTriode:
      cgs += 0.5 * cox_tot_;
      cgd += 0.5 * cox_tot_;
      break;
  }
  return {cgs, cgd, cgb, cj_, cj_};
}

void Mosfet::refresh_cap_values(const std::vector<double>& x) {
  const auto cs = meyer_caps(x);
  for (std::size_t k = 0; k < caps_.size(); ++k) caps_[k].c = cs[k];
}

void Mosfet::init_state(const std::vector<double>& op) {
  last_region_ = region_at(op);
  refresh_cap_values(op);
  for (std::size_t k = 0; k < caps_.size(); ++k) {
    caps_[k].v_prev =
        v_at(op, cap_nodes_[k].first) - v_at(op, cap_nodes_[k].second);
  }
}

void Mosfet::commit(const std::vector<double>& x, double, double) {
  const double vd = v_at(x, d_), vg = v_at(x, g_), vs = v_at(x, s_),
               vb = v_at(x, b_);
  // cap_nodes_ order: (g,s), (g,d), (g,b), (d,b), (s,b).
  caps_[0].v_prev = vg - vs;
  caps_[1].v_prev = vg - vd;
  caps_[2].v_prev = vg - vb;
  caps_[3].v_prev = vd - vb;
  caps_[4].v_prev = vs - vb;
  // Region may have changed: recompute Meyer values for the next step. In
  // fused-commit mode the region recorded by the last evaluation stands in
  // for region_at(x) — see set_fused_commit() in the header.
  if (fused_commit_) {
    const auto cs = caps_for_region(last_region_);
    for (std::size_t k = 0; k < caps_.size(); ++k) caps_[k].c = cs[k];
  } else {
    refresh_cap_values(x);
  }
}

void Mosfet::save_state(std::vector<double>& out) const {
  for (const CapState& cs : caps_) {
    out.push_back(cs.c);
    out.push_back(cs.v_prev);
  }
  out.push_back(static_cast<double>(last_region_));
}

const double* Mosfet::load_state(const double* in) {
  for (CapState& cs : caps_) {
    cs.c = *in++;
    cs.v_prev = *in++;
  }
  last_region_ = static_cast<MosEval::Region>(static_cast<int>(*in++));
  return in;
}

void Mosfet::stamp_ac(Mna<std::complex<double>>& mna,
                      const std::vector<double>& op, double omega) const {
  using cd = std::complex<double>;
  const double vd = v_at(op, d_), vg = v_at(op, g_), vs = v_at(op, s_),
               vb = v_at(op, b_);
  const double p = model_.is_pmos ? -1.0 : 1.0;
  const bool swapped = p * (vd - vs) < 0.0;
  const int nd = swapped ? s_ : d_;
  const int ns = swapped ? d_ : s_;

  const MosEval e = evaluate(vd, vg, vs, vb);
  mna.add(nd, g_, cd{e.gm, 0.0});
  mna.add(nd, nd, cd{e.gds, 0.0});
  mna.add(nd, b_, cd{e.gmb, 0.0});
  mna.add(nd, ns, cd{-(e.gm + e.gds + e.gmb), 0.0});
  mna.add(ns, g_, cd{-e.gm, 0.0});
  mna.add(ns, nd, cd{-e.gds, 0.0});
  mna.add(ns, b_, cd{-e.gmb, 0.0});
  mna.add(ns, ns, cd{e.gm + e.gds + e.gmb, 0.0});

  const auto cs = meyer_caps(op);
  for (std::size_t k = 0; k < cs.size(); ++k) {
    if (cs[k] <= 0.0) continue;
    mna.stamp_conductance(cap_nodes_[k].first, cap_nodes_[k].second,
                          cd{0.0, omega * cs[k]});
  }
}

}  // namespace uwbams::spice
