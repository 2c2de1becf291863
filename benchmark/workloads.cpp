#include "workloads.hpp"

#include <algorithm>

#include "apps/registry.hpp"
#include "common/strings.hpp"
#include "policy/table_policy.hpp"

namespace dssoc::perf {
namespace {

constexpr WorkloadInfo kWorkloads[] = {
    {"fig10", false, 7},
    {"fig11", false, 11},
    {"fig9", false, 7},
    {"fig11-proc", true, 11},
};

/// Table II: per-application instance counts for a 100 ms frame.
struct TableTwoRow {
  double rate_jobs_per_ms;
  std::size_t pulse_doppler;
  std::size_t range_detection;
  std::size_t wifi_tx;
  std::size_t wifi_rx;
};

constexpr TableTwoRow kTableTwo[] = {
    {1.71, 8, 123, 20, 20},  {2.28, 10, 164, 27, 27},
    {3.42, 15, 245, 41, 41}, {4.57, 18, 329, 55, 55},
    {6.92, 32, 495, 82, 83},
};

/// Fig. 10 runs a 20 ms frame: one fifth of the paper's 100 ms, same rates.
constexpr double kFig10Scale = 0.2;
constexpr const char* kFig10Policies[] = {"EFT", "MET", "FRFS"};

constexpr const char* kFig11Configs[] = {
    "0BIG+3LTL", "1BIG+2LTL", "1BIG+3LTL", "2BIG+1LTL",
    "2BIG+2LTL", "2BIG+3LTL", "3BIG+1LTL", "3BIG+2LTL",
    "3BIG+3LTL", "4BIG+1LTL", "4BIG+2LTL", "4BIG+3LTL"};
constexpr double kFig11Rates[] = {4, 6, 8, 10, 12, 14, 16, 18};
constexpr double kFig11WindowMs = 10.0;
/// Table II's application mix (row 1.71), rescaled to each Fig. 11 rate.
constexpr double kTableTwoMix[4] = {8.0 / 171.0, 123.0 / 171.0, 20.0 / 171.0,
                                    20.0 / 171.0};

constexpr const char* kFig9Configs[] = {"1C+0F", "1C+1F", "1C+2F", "2C+0F",
                                        "2C+1F", "2C+2F", "3C+0F"};
constexpr int kFig9Iterations = 20;

core::EmulationSetup make_setup(const Harness& harness,
                                const platform::Platform& platform,
                                const std::string& config,
                                const std::string& scheduler,
                                std::uint64_t seed, bool run_kernels) {
  core::EmulationSetup setup;
  setup.platform = &platform;
  setup.soc = platform::parse_config_label(config);
  setup.apps = &harness.library;
  setup.registry = &harness.registry;
  setup.cost_model = platform::default_cost_model();
  setup.options.scheduler = scheduler;
  setup.options.seed = seed;
  setup.options.run_kernels = run_kernels;
  return setup;
}

/// The paper's open-loop periodic injection: `counts` instances of each
/// application (pulse_doppler, range_detection, wifi_tx, wifi_rx) spread
/// evenly over `frame`.
core::Workload periodic_workload(const std::size_t (&counts)[4],
                                 SimTime frame, std::uint64_t seed) {
  Rng rng(seed);
  return core::make_performance_workload(
      {{"pulse_doppler", core::period_for_count(frame, counts[0]), 1.0},
       {"range_detection", core::period_for_count(frame, counts[1]), 1.0},
       {"wifi_tx", core::period_for_count(frame, counts[2]), 1.0},
       {"wifi_rx", core::period_for_count(frame, counts[3]), 1.0}},
      frame, rng);
}

std::vector<exp::SweepPoint> fig10_points(const Harness& harness,
                                          std::uint64_t seed) {
  const SimTime frame = sim_from_ms(100.0 * kFig10Scale);
  const std::string table_spec = cat("policy:table:", kPolicyTablePath);
  std::vector<exp::SweepPoint> points;
  const auto add = [&](const TableTwoRow& row, const char* name,
                       const std::string& scheduler) {
    const auto scaled = [](std::size_t count) {
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(count) *
                                      kFig10Scale));
    };
    const std::size_t counts[4] = {
        scaled(row.pulse_doppler), scaled(row.range_detection),
        scaled(row.wifi_tx), scaled(row.wifi_rx)};
    exp::SweepPoint point;
    point.label =
        cat("3C+2F/", name, "/", format_double(row.rate_jobs_per_ms, 2));
    point.workload = periodic_workload(counts, frame, seed);
    point.time_frame = frame;
    point.setup = make_setup(harness, harness.zcu102, "3C+2F", scheduler, seed,
                             /*run_kernels=*/false);
    points.push_back(std::move(point));
  };
  for (const TableTwoRow& row : kTableTwo) {
    for (const char* policy : kFig10Policies) {
      add(row, policy, policy);
    }
  }
  for (const TableTwoRow& row : kTableTwo) {
    add(row, "table", table_spec);
  }
  return points;
}

std::vector<exp::SweepPoint> fig11_points(const Harness& harness,
                                          std::uint64_t seed) {
  const SimTime frame = sim_from_ms(kFig11WindowMs);
  std::vector<exp::SweepPoint> points;
  for (const char* config : kFig11Configs) {
    for (const double rate : kFig11Rates) {
      const double jobs = rate * kFig11WindowMs;
      std::size_t counts[4];
      for (int app = 0; app < 4; ++app) {
        counts[app] = std::max<std::size_t>(
            1, static_cast<std::size_t>(jobs * kTableTwoMix[app]));
      }
      exp::SweepPoint point;
      point.label = cat(config, "/", format_double(rate, 0), "j_ms");
      point.workload = periodic_workload(counts, frame, seed);
      point.time_frame = frame;
      point.setup = make_setup(harness, harness.odroid, config, "FRFS", seed,
                               /*run_kernels=*/false);
      points.push_back(std::move(point));
    }
  }
  return points;
}

std::vector<exp::SweepPoint> fig9_points(const Harness& harness,
                                         std::uint64_t seed) {
  // Validation mode: one instance of each application at t = 0. Modeled
  // overhead, unlike bench_fig9's measured mode, so digests are host-free.
  const core::Workload workload = core::make_validation_workload(
      {{"pulse_doppler", 1}, {"range_detection", 1}, {"wifi_tx", 1},
       {"wifi_rx", 1}});
  std::vector<exp::SweepPoint> points;
  for (const char* config : kFig9Configs) {
    for (int i = 0; i < kFig9Iterations; ++i) {
      exp::SweepPoint point;
      point.label = cat(config, "/iter", i);
      point.setup = make_setup(
          harness, harness.zcu102, config, "FRFS",
          exp::point_seed(seed, static_cast<std::size_t>(i)),
          /*run_kernels=*/true);
      point.workload = workload;
      points.push_back(std::move(point));
    }
  }
  return points;
}

}  // namespace

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

std::unique_ptr<Harness> make_harness(const WorkloadInfo& workload,
                                      Tracer* tracer) {
  auto harness = std::make_unique<Harness>();
  traced(tracer, "platform.build", "setup", [&] {
    harness->zcu102 = platform::zcu102();
    harness->odroid = platform::odroid_xu3();
  });
  traced(tracer, "apps.register_kernels", "setup",
         [&] { apps::register_all_kernels(harness->registry); });
  traced(tracer, "apps.library_build", "setup",
         [&] { harness->library = apps::default_application_library(); });
  if (std::string(workload.name) == "fig10") {
    // The table is re-read by every table point's scheduler; loading it once
    // here validates it before any timing starts.
    traced(tracer, "policy.table_load", "setup",
           [&] { policy::TablePolicy::from_file(kPolicyTablePath); });
  }
  return harness;
}

std::vector<exp::SweepPoint> make_points(const WorkloadInfo& workload,
                                         const Harness& harness,
                                         std::uint64_t seed, Tracer* tracer) {
  std::vector<exp::SweepPoint> points;
  traced(tracer, "core.workload_gen", "setup", [&] {
    const std::string name = workload.name;
    if (name == "fig10") {
      points = fig10_points(harness, seed);
    } else if (name == "fig9") {
      points = fig9_points(harness, seed);
    } else {
      points = fig11_points(harness, seed);
    }
  });
  return points;
}

bool is_top_rate_row(const exp::SweepPoint& point) {
  return ends_with(point.label, "/6.92");
}

}  // namespace dssoc::perf
