/// @file block_variant.hpp
/// @brief The substitute-and-play registry.
///
/// The methodology's central operation: build the *same* system testbench
/// with a block at any abstraction level. IntegratorKind selects among the
/// paper's three I&D fidelities; make_integrator_factory returns a factory
/// the Receiver consumes, so swapping fidelity is a one-argument change —
/// "single blocks description can be changed ... without having to modify
/// the environment" (paper §3, Phase III).
#pragma once

#include <string>

#include "core/equiv.hpp"
#include "spice/itd_builder.hpp"
#include "spice/transient.hpp"
#include "uwb/config.hpp"
#include "uwb/integrator.hpp"
#include "uwb/receiver.hpp"

namespace uwbams::core {

enum class IntegratorKind {
  kIdeal,       ///< Phase II behavioral (vo' = K vin)
  kSpice,       ///< Phase III transistor-level netlist ("ELDO")
  kBehavioral,  ///< Phase IV calibrated two-pole model ("VHDL-AMS")
};

std::string to_string(IntegratorKind kind);

struct VariantOptions {
  /// Phase IV model parameters; defaults come from SystemConfig (the paper's
  /// published figures) but are normally overwritten by the Phase III -> IV
  /// characterization (core/characterize.hpp).
  uwb::TwoPoleParams behavioral;
  /// Netlist sizing for the spice variant.
  spice::ItdSizing sizing;
  /// Embedded solver configuration for the spice variant (defaults are the
  /// paper's setup: trapezoidal, EPS 1e-6). Scenarios select the
  /// stat_equiv engine profile or disable factorization reuse from here.
  spice::TransientOptions transient;
  bool behavioral_uses_clamp = false;  ///< paper's model: linear (no clamp)
};

/// Factory for the chosen fidelity. The SystemConfig supplies the ideal gain
/// and the default behavioral parameters; `options` refines them.
uwb::IntegratorFactory make_integrator_factory(IntegratorKind kind,
                                               const uwb::SystemConfig& sys,
                                               VariantOptions options = {});

/// Engine configuration for a declared exactness tier: `bit_exact` returns
/// the defaults (byte-compatible with every earlier PR), `stat_equiv`
/// returns the optimized profile (spice::apply_stat_equiv_profile) whose
/// results are gated by golden-stats equivalence instead of byte compares.
inline VariantOptions variant_for_tier(ExactnessTier tier) {
  VariantOptions vo;
  if (tier == ExactnessTier::kStatEquiv)
    spice::apply_stat_equiv_profile(&vo.transient);
  return vo;
}

}  // namespace uwbams::core
