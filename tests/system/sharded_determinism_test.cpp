// Sharded-fleet determinism: the acceptance gate for the sharded kernel.
// One 8-station faulted season rendered as a full glacsweb.bench.v1 export
// — every station registry and journal, the fault instrumentation, the
// rollup, the hub ledgers, every trace series, the merged journal, and the
// event count — must be byte-identical at 1/2/8 workers and 1/2/4 shards.
// This is the end-to-end form of the three-part determinism argument in
// docs/PARALLELISM.md: if any observable depended on the partition, the
// thread schedule, or the barrier grid, these strings would differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "sim/trace_export.h"
#include "station/fleet.h"
#include "station/sharded_fleet.h"

namespace gw {
namespace {

constexpr int kStations = 8;
constexpr int kDays = 6;

// A compressed adversarial season (docs/FAULTS.md): the windows land
// inside the 6-day horizon so the faulted paths — retry backoff, server
// down, flaky CF writes — are exercised under the sharded drain too.
constexpr const char* kSeasonSpec =
    "gprs_outage   start=2d duration=1d  severity=1.0\n"
    "cf_write_fail start=1d duration=4d  severity=0.3\n"
    "server_down   start=3d duration=12h\n";

station::ShardedFleetConfig season_config(std::size_t shards,
                                          unsigned workers) {
  station::ShardedFleetConfig config;
  config.fleet = station::uniform_fleet_config(kStations, 20080601u);
  config.fleet.fault_spec = kSeasonSpec;
  config.fleet.trace_enabled = true;
  config.shards = shards;
  config.workers = workers;
  return config;
}

// The comparison unit: everything the season observably produced, in the
// partition-invariant orders the fleet layer promises.
std::string render_season(std::size_t shards, unsigned workers) {
  station::ShardedFleet fleet{season_config(shards, workers)};
  for (int day = 0; day < kDays; ++day) {
    fleet.run_days(1.0);
    fleet.update_rollup();  // journal flips at a fixed daily cadence
  }

  obs::MetricsRegistry hub_registry;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string& name = fleet.station(i).name();
    hub_registry.gauge(name, "files").set(double(fleet.hub().files_from(name)));
    hub_registry.gauge(name, "bytes").set(
        double(fleet.hub().bytes_from(name).count()));
  }
  hub_registry.gauge("hub", "files_received")
      .set(double(fleet.hub().files_received()));
  hub_registry.gauge("hub", "special_results")
      .set(double(fleet.hub().special_results().size()));
  hub_registry.gauge("hub", "beacons").set(double(fleet.hub().beacons().size()));

  obs::BenchReport report;
  report.bench = "sharded_determinism_probe";
  report.meta = {{"stations", std::to_string(kStations)},
                 {"days", std::to_string(kDays)}};
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string& name = fleet.station(i).name();
    report.sections.push_back(
        {name, &fleet.station(i).metrics(), &fleet.station(i).journal()});
    report.sections.push_back({name + "/fault",
                               &fleet.station_fault_metrics(i),
                               &fleet.station_fault_journal(i)});
  }
  report.sections.push_back(
      {"rollup", &fleet.rollup_metrics(), &fleet.rollup_journal()});
  report.sections.push_back({"hub", &hub_registry, nullptr});

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const sim::Trace& trace = fleet.station_trace(i);
    for (auto& series : sim::to_obs_series(trace, trace.series_names())) {
      report.series.push_back(std::move(series));
    }
  }
  std::sort(report.series.begin(), report.series.end(),
            [](const obs::Series& a, const obs::Series& b) {
              return a.name < b.name;
            });

  std::string out = obs::to_json(report);
  out += "\nmerged_journal:";
  for (const auto& merged : fleet.merged_journal()) {
    out += "\n" + merged.station + "," +
           std::to_string(merged.event.time_ms) + "," +
           obs::to_string(merged.event.type) + "," + merged.event.component +
           "," + std::to_string(merged.event.a) + "," +
           std::to_string(merged.event.b);
  }
  out += "\nevents_executed:" + std::to_string(fleet.events_executed());
  out += "\nwindows_run:" + std::to_string(fleet.sharded().windows_run());
  return out;
}

TEST(ShardedDeterminism, ExportIsByteIdenticalAcrossWorkerCounts) {
  const std::string reference = render_season(4, 1);
  EXPECT_EQ(reference, render_season(4, 2));
  EXPECT_EQ(reference, render_season(4, 8));
}

TEST(ShardedDeterminism, ExportIsByteIdenticalAcrossShardCounts) {
  const std::string reference = render_season(1, 1);
  EXPECT_EQ(reference, render_season(2, 2));
  EXPECT_EQ(reference, render_season(4, 2));
}

TEST(ShardedDeterminism, FaultedSeasonActuallyBit) {
  station::ShardedFleet fleet{season_config(2, 2)};
  fleet.run_days(double(kDays));
  std::size_t trips = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    trips += fleet.station_fault_journal(i).count(obs::EventType::kFaultTrip);
  }
  EXPECT_GT(trips, 0u);
  // And despite the outage week the season still reconciled: each
  // station's completed transfers equal the hub's ingested files.
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string& name = fleet.station(i).name();
    EXPECT_EQ(fleet.station(i).metrics().counter_value("transfer_manager",
                                                       "files_completed"),
              std::uint64_t(fleet.hub().files_from(name)))
        << name;
  }
}

}  // namespace
}  // namespace gw
