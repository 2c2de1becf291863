// The benchmark's inputs: its own copies of the paper's Table II rows, the
// Fig. 11 grid and the Fig. 9 application mix, built into sweep points
// through the libraries' public API only. Nothing is shared with bench/, so
// edits to the paper drivers cannot change what this benchmark measures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/emulation.hpp"
#include "exp/sweep.hpp"
#include "platform/platform.hpp"
#include "tracing.hpp"

namespace dssoc::perf {

/// The fitted policy:table rules, relative to the repository root. The path
/// is part of the table points' scheduler spec, and so of their digests.
inline constexpr const char* kPolicyTablePath = "benchmark/policy_table.json";

struct WorkloadInfo {
  const char* name;
  /// Runs on exp::ProcessPool (journal + artifact) instead of SweepRunner.
  bool process_pool;
  /// The paper driver's seed, used when --seed is not given.
  std::uint64_t default_seed;
};

/// fig10, fig11, fig9, fig11-proc. Returns nullptr for any other name.
const WorkloadInfo* find_workload(const std::string& name);

/// What every point refers to by pointer: platforms, kernels, applications.
struct Harness {
  platform::Platform zcu102;
  platform::Platform odroid;
  core::SharedObjectRegistry registry;
  core::ApplicationLibrary library;
};

/// Builds the harness (and, for fig10, loads the policy table), recording
/// one setup span per step when `tracer` is non-null.
std::unique_ptr<Harness> make_harness(const WorkloadInfo& workload,
                                      Tracer* tracer);

/// The workload's sweep points for `seed` (EmulationOptions::seed, and the
/// per-point seeds of fig9). The harness must outlive them.
std::vector<exp::SweepPoint> make_points(const WorkloadInfo& workload,
                                         const Harness& harness,
                                         std::uint64_t seed, Tracer* tracer);

/// True for fig10's points at the highest Table II rate (6.92 jobs/ms), the
/// rows the snapshot/restore probe runs on.
bool is_top_rate_row(const exp::SweepPoint& point);

}  // namespace dssoc::perf
