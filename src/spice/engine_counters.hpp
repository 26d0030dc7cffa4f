/// @file engine_counters.hpp
/// @brief Process-wide simulation-engine performance counters.
///
/// Every TransientSession flushes its TransientStats here on destruction
/// and solve_op() reports each operating-point solve, so a scenario's total
/// engine work can be read as a snapshot delta without threading stats
/// through every layer (sessions are buried inside receivers inside sweep
/// tasks). The runner CLI wraps each scenario in two snapshots and emits
/// the difference as the `perf` block of summary.json.
///
/// All counters are atomics: sweep workers update them concurrently.
#pragma once

#include <cstdint>

namespace uwbams::spice {

struct TransientStats;

/// Monotonic totals since process start.
struct EngineCounterSnapshot {
  std::uint64_t sessions = 0;            ///< TransientSessions retired
  std::uint64_t steps = 0;               ///< committed transient steps
  std::uint64_t accepted_steps = 0;      ///< accepted step attempts
  std::uint64_t rejected_steps = 0;      ///< rejected (Newton-failed) attempts
  std::uint64_t fallback_steps = 0;      ///< BE / sub-step rescues
  std::uint64_t newton_iterations = 0;   ///< transient Newton iterations
  std::uint64_t factorizations = 0;      ///< fresh partial-pivot LU factors
  std::uint64_t refactorizations = 0;    ///< pivot-order-reusing refactors
  std::uint64_t solves = 0;              ///< forward/back substitutions
  std::uint64_t singular_failures = 0;   ///< solves hitting a singular matrix
  std::uint64_t nonconverged_failures = 0;  ///< Newton iteration-cap hits
  std::uint64_t op_solves = 0;           ///< operating-point solves
  std::uint64_t op_iterations = 0;       ///< operating-point Newton iterations
};

namespace engine_counters {

/// Current totals (coherent enough for before/after deltas; individual
/// counters are read with relaxed ordering).
EngineCounterSnapshot snapshot();

/// Accumulates a finished session's stats. Called by ~TransientSession().
void add_transient(const TransientStats& stats);

/// Records one operating-point solve of `iterations` Newton iterations.
void add_op(int iterations);

}  // namespace engine_counters

}  // namespace uwbams::spice
