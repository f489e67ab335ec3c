// Fleet scaling sweep — 2 to 64 stations on the Monte Carlo runner.
//
// The paper deployed two stations; the fleet layer makes station count
// configuration. This bench answers the scaling questions that come with
// that: does the §III min-rule still converge every dGPS pair when there
// are 32 of them on one server, how much sync-convergence lag does a cold
// (deliberately diverged) fleet carry, and how does simulated event load
// grow per station as the fleet grows.
//
// Each sweep point is one independent trial on the MonteCarloRunner
// (GW_BENCH_THREADS pins the pool; results are byte-identical at any
// thread count — scripts/check.sh diffs the export at 1 thread vs default
// as the fleet determinism gate). The exported gauges are all derived from
// simulated time and simulated counters, so BENCH_fleet_scale.json is
// reproducible byte-for-byte; wall-clock timings go to stderr only, so
// stdout is the same on every run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "runner/monte_carlo_runner.h"
#include "station/fleet.h"
#include "station/sharded_fleet.h"
#include "util/strings.h"

namespace gw {
namespace {

constexpr int kDays = 14;
constexpr std::uint64_t kSeedBase = 42000;
const std::vector<int> kSizes{2, 4, 8, 16, 32, 64};

// The sharded points: fleet sizes the serial sweep cannot afford at 14
// days, run on the ShardedSimulation for fewer days each. Sized so the
// whole sweep stays a few seconds on one core.
struct ShardedSize {
  int stations;
  int days;
};
const std::vector<ShardedSize> kShardedSizes{{256, 2}, {1024, 1}, {4096, 1}};

struct ScalePoint {
  int stations = 0;
  int convergence_lag_days = -1;  // first day every group was in lockstep
  int diverged_group_days = 0;    // sum over days of non-converged groups
  std::uint64_t sim_events = 0;
  double yield_bytes = 0.0;
  double stations_up = 0.0;
  double groups_total = 0.0;
  double groups_converged = 0.0;
  double probes_alive = 0.0;
  double wall_seconds = 0.0;  // stderr only — never exported
};

// One fleet season, entirely derived from its sweep entry (the runner's
// usage contract), on either fleet type: the serial points build a
// station::Fleet, the sharded points a station::ShardedFleet. The uniform
// preset starts every pair diverged (state 3 vs state 2, full vs 70 %
// battery), so convergence lag measures real min-rule work, not an
// already-settled fleet.
template <typename FleetType, typename Config>
ScalePoint run_point(Config config, int days) {
  // gwlint: allow(banned-api): wall-clock sweep timing feeds wall_seconds,
  // a host_dependent field excluded from the determinism diff
  const auto wall_start = std::chrono::steady_clock::now();
  FleetType fleet{std::move(config)};
  ScalePoint point;
  point.stations = int(fleet.size());
  for (int day = 1; day <= days; ++day) {
    fleet.run_days(1.0);
    auto& rollup = fleet.update_rollup();
    const double total = rollup.gauge_value("fleet", "groups_total");
    const double converged = rollup.gauge_value("fleet", "groups_converged");
    if (point.convergence_lag_days < 0 && converged == total) {
      point.convergence_lag_days = day;
    }
    point.diverged_group_days += int(total - converged);
  }
  if constexpr (std::is_same_v<FleetType, station::Fleet>) {
    point.sim_events = fleet.simulation().events_executed();
  } else {
    point.sim_events = fleet.events_executed();
  }
  auto& rollup = fleet.rollup_metrics();
  point.yield_bytes = rollup.gauge_value("fleet", "yield_bytes");
  point.stations_up = rollup.gauge_value("fleet", "stations_up");
  point.groups_total = rollup.gauge_value("fleet", "groups_total");
  point.groups_converged = rollup.gauge_value("fleet", "groups_converged");
  point.probes_alive = rollup.gauge_value("fleet", "probes_alive");
  // gwlint: allow(banned-api): wall-clock sweep timing feeds wall_seconds,
  // a host_dependent field excluded from the determinism diff
  point.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  return point;
}

station::FleetConfig sweep_config(int stations) {
  return station::uniform_fleet_config(
      stations, kSeedBase + std::uint64_t(stations));
}

void run() {
  bench::heading("Fleet scaling: 2 -> 64 stations, " +
                 std::to_string(kDays) + "-day seasons");
  runner::MonteCarloRunner pool{bench::thread_count()};
  std::printf("  threads: %u, one trial per fleet size\n", pool.threads());

  const auto points = pool.run(kSizes.size(), [](std::size_t trial) {
    return run_point<station::Fleet>(sweep_config(kSizes[trial]), kDays);
  });

  bench::row({"Stations", "Converged", "Lag", "Div grp-days",
              "Sim ev/stn/day", "Yield KiB/stn"},
             {8, 10, 6, 12, 14, 13});
  for (const auto& point : points) {
    const double per_station_day =
        double(point.sim_events) / (double(point.stations) * kDays);
    bench::row(
        {std::to_string(point.stations),
         util::format_fixed(point.groups_converged, 0) + "/" +
             util::format_fixed(point.groups_total, 0),
         point.convergence_lag_days < 0
             ? "never"
             : std::to_string(point.convergence_lag_days) + "d",
         std::to_string(point.diverged_group_days),
         util::format_fixed(per_station_day, 1),
         util::format_fixed(point.yield_bytes / (1024.0 * point.stations), 1)},
        {8, 10, 6, 12, 14, 13});
    std::fprintf(stderr, "  %d stations: wall-clock %.2f s\n", point.stations,
                 point.wall_seconds);
  }
  bench::note(
      "every pair starts diverged (state 3 vs 2); lag = first day all "
      "groups were in lockstep. Sim ev/stn/day should stay ~flat: per-"
      "station event load must not grow with fleet size.");

  // Wall-clock throughput: stderr only. The JSON below must stay byte-
  // identical across hosts and thread counts, so nothing timed enters it.
  double wall_total = 0.0;
  for (const auto& point : points) wall_total += point.wall_seconds;
  std::fprintf(stderr,
               "  total trial wall-clock %.2f s (pool may overlap trials)\n",
               wall_total);

  // --- sharded points: 256 -> 4096 stations on the window kernel ---------
  const std::size_t shards = bench::fleet_shards();
  // One world at a time, so its shards get the whole machine: with the
  // default workers = 0 the ShardedSimulation runs this many.
  const std::size_t shard_workers = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), shards);
  bench::subheading("sharded fleet: 256 -> 4096 stations (" +
                    std::to_string(shards) + " shards, " +
                    std::to_string(shard_workers) + " workers)");
  bench::row({"Stations", "Days", "Converged", "Lag", "Sim ev/stn/day",
              "Yield KiB/stn"},
             {8, 5, 10, 6, 14, 13});
  std::vector<ScalePoint> sharded_points;
  std::vector<int> sharded_days;
  for (const ShardedSize size : kShardedSizes) {
    // The shard count is a knob (GW_BENCH_FLEET_SHARDS) precisely because
    // it must not matter: scripts/check.sh byte-diffs the export at 1
    // shard vs the default.
    station::ShardedFleetConfig config;
    config.fleet = sweep_config(size.stations);
    config.shards = shards;
    const ScalePoint point =
        run_point<station::ShardedFleet>(std::move(config), size.days);
    sharded_points.push_back(point);
    sharded_days.push_back(size.days);
    const double per_station_day =
        double(point.sim_events) / (double(point.stations) * size.days);
    bench::row(
        {std::to_string(point.stations), std::to_string(size.days),
         util::format_fixed(point.groups_converged, 0) + "/" +
             util::format_fixed(point.groups_total, 0),
         point.convergence_lag_days < 0
             ? "never"
             : std::to_string(point.convergence_lag_days) + "d",
         util::format_fixed(per_station_day, 1),
         util::format_fixed(point.yield_bytes / (1024.0 * point.stations), 1)},
        {8, 5, 10, 6, 14, 13});
    std::fprintf(stderr, "  %d stations (sharded): wall-clock %.2f s\n",
                 point.stations, point.wall_seconds);
  }
  bench::note("GW_BENCH_FLEET_SHARDS moves the partition; the exported "
              "gauges are byte-identical at any shard or worker count "
              "(scripts/check.sh diffs 1 shard vs default)");

  obs::MetricsRegistry registry;
  const auto export_point = [&registry](const std::string& component,
                                        const ScalePoint& point, int days) {
    auto set = [&](const char* name, double value) {
      registry.gauge(component, name).set(value);
    };
    set("stations", double(point.stations));
    set("convergence_lag_days", double(point.convergence_lag_days));
    set("diverged_group_days", double(point.diverged_group_days));
    set("sim_events", double(point.sim_events));
    set("sim_events_per_station_day",
        double(point.sim_events) / (double(point.stations) * days));
    set("yield_bytes", point.yield_bytes);
    set("yield_bytes_per_station", point.yield_bytes / point.stations);
    set("stations_up", point.stations_up);
    set("groups_total", point.groups_total);
    set("groups_converged", point.groups_converged);
    set("probes_alive", point.probes_alive);
  };
  for (const auto& point : points) {
    char component[8];
    std::snprintf(component, sizeof component, "n%03d", point.stations);
    export_point(component, point, kDays);
  }
  for (std::size_t i = 0; i < sharded_points.size(); ++i) {
    char component[8];
    std::snprintf(component, sizeof component, "s%04d",
                  sharded_points[i].stations);
    export_point(component, sharded_points[i], sharded_days[i]);
  }
  obs::BenchReport report;
  report.bench = "fleet_scale";
  report.meta = {{"days", std::to_string(kDays)},
                 {"deterministic", "true"},
                 {"seed_base", std::to_string(kSeedBase)},
                 {"sharded_sizes", "256x2d,1024x1d,4096x1d"},
                 {"sizes", "2,4,8,16,32,64"}};
  report.sections = {{"sweep", &registry, nullptr}};
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
