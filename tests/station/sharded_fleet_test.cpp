#include "station/sharded_fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "station/fleet.h"

namespace gw::station {
namespace {

// The fleet_test quad, doubled: four dGPS pairs with reliable comms, so
// the partition / routing assertions are about wiring, not luck.
FleetConfig pair_config(int stations) {
  FleetConfig config;
  config.seed = 99;
  config.trace_enabled = false;
  for (int i = 0; i < stations; ++i) {
    StationSpec spec;
    spec.station.name = "s" + std::to_string(i);
    spec.station.role = (i % 2 == 0) ? StationRole::kBaseStation
                                     : StationRole::kReferenceStation;
    spec.station.gprs.registration_success = 1.0;
    spec.station.gprs.drop_per_minute = 0.0;
    spec.station.power.battery.initial_soc = 1.0;
    spec.sync_group = "pair" + std::to_string(i / 2);
    spec.chargers = (i % 2 == 0)
                        ? std::vector<ChargerKind>{ChargerKind::kSolar,
                                                   ChargerKind::kWind}
                        : std::vector<ChargerKind>{ChargerKind::kSolar,
                                                   ChargerKind::kMains};
    spec.probe_count = (i % 2 == 0) ? 2 : 0;
    config.stations.push_back(std::move(spec));
  }
  return config;
}

ShardedFleetConfig sharded_config(int stations, std::size_t shards,
                                  unsigned workers) {
  ShardedFleetConfig config;
  config.fleet = pair_config(stations);
  config.shards = shards;
  config.workers = workers;
  return config;
}

TEST(ShardedFleetTest, GroupsStayTogetherAndRoundRobinOverShards) {
  ShardedFleet fleet{sharded_config(8, 3, 1)};
  EXPECT_EQ(fleet.shard_count(), 3u);
  for (std::size_t pair = 0; pair < 4; ++pair) {
    EXPECT_EQ(fleet.shard_of(2 * pair), fleet.shard_of(2 * pair + 1))
        << "pair" << pair;
    EXPECT_EQ(fleet.shard_of(2 * pair), pair % 3);
  }
}

TEST(ShardedFleetTest, ShardCountClampsToGroupCount) {
  ShardedFleet fleet{sharded_config(4, 99, 1)};
  EXPECT_EQ(fleet.shard_count(), 2u);  // only two sync groups exist
}

TEST(ShardedFleetTest, DerivedLookaheadIsTheGprsRegistrationFloor) {
  auto config = pair_config(4);
  // Minimum over the fleet decides; one fast-registering station lowers it.
  config.stations[2].station.gprs.registration_time = sim::seconds(20);
  EXPECT_EQ(derive_fleet_lookahead(config),
            sim::seconds(20) + sim::seconds(1));
  EXPECT_EQ(derive_fleet_lookahead(FleetConfig{}), sim::minutes(1));

  ShardedFleetConfig sharded;
  sharded.fleet = config;
  sharded.shards = 2;
  ShardedFleet fleet{sharded};
  EXPECT_EQ(fleet.latency(), sim::seconds(21));
  EXPECT_EQ(fleet.sharded().lookahead(), sim::seconds(21));
}

TEST(ShardedFleetTest, SyncConvergesThroughBarrierMessages) {
  ShardedFleet fleet{sharded_config(4, 2, 2)};
  fleet.run_days(6.0);
  // Pairs start deliberately alike here (full batteries), but the min-rule
  // still has to hold them together through the replica relay.
  EXPECT_EQ(fleet.station(0).current_state(),
            fleet.station(1).current_state());
  EXPECT_EQ(fleet.station(2).current_state(),
            fleet.station(3).current_state());
  const auto groups = fleet.group_status();
  ASSERT_EQ(groups.size(), 2u);
  for (const auto& group : groups) {
    EXPECT_EQ(group.members, 2);
    EXPECT_TRUE(group.converged) << group.name;
  }
  // The relay actually carried reports: each replica's ledger holds a
  // peer-stamped entry it could not have produced locally.
  EXPECT_GT(fleet.sharded().messages_delivered(), 0u);
}

TEST(ShardedFleetTest, HubLedgerMatchesReplicaTotals) {
  ShardedFleet fleet{sharded_config(4, 2, 2)};
  fleet.run_days(5.0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string& name = fleet.station(i).name();
    EXPECT_GT(fleet.hub().files_from(name), 0) << name;
    // The hub's per-station totals equal the replica's exact counters:
    // every receipt was drained and re-played, none duplicated.
    EXPECT_EQ(fleet.hub().files_from(name),
              fleet.station_server(i).files_from(name))
        << name;
    EXPECT_EQ(fleet.hub().bytes_from(name).count(),
              fleet.station_server(i).bytes_from(name).count())
        << name;
    total += std::uint64_t(fleet.hub().files_from(name));
  }
  EXPECT_EQ(total, fleet.hub().files_received());
}

TEST(ShardedFleetTest, QueuedSpecialRoutesToItsStationAndResultsFlowBack) {
  ShardedFleet fleet{sharded_config(4, 2, 1)};
  core::SpecialCommand command;
  command.id = "sp-route";
  command.script = "cat /proc/loadavg";
  fleet.queue_special("s2", command);
  fleet.run_days(3.0);
  EXPECT_GE(fleet.station(2).stats().specials_executed, 1);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(fleet.station(i).stats().specials_executed, 0)
        << fleet.station(i).name();
  }
  // The execution record reached the authoritative hub via the barrier.
  ASSERT_FALSE(fleet.hub().special_results().empty());
  EXPECT_EQ(fleet.hub().special_results().front().id, "sp-route");
}

// Fingerprint for partition-invariance checks: everything a season
// observably produced, cheap enough to compare across many runs. The full
// byte-level export gate lives in tests/system/sharded_determinism_test.cpp.
std::string fingerprint(int stations, std::size_t shards, unsigned workers,
                        sim::Duration latency, double days) {
  auto config = sharded_config(stations, shards, workers);
  config.latency = latency;
  ShardedFleet fleet{config};
  fleet.run_days(days);
  fleet.update_rollup();
  std::string out;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& stats = fleet.station(i).stats();
    out += fleet.station(i).name() + ":" +
           std::to_string(stats.runs_completed) + "," +
           std::to_string(power::to_int(fleet.station(i).current_state())) +
           "," +
           std::to_string(
               fleet.hub().bytes_from(fleet.station(i).name()).count()) +
           ";";
  }
  out += "|events=" + std::to_string(fleet.events_executed());
  out += "|journal=" + std::to_string(fleet.merged_journal().size());
  out += "|converged=";
  for (const auto& group : fleet.group_status()) {
    out += group.converged ? "y" : "n";
  }
  return out;
}

TEST(ShardedFleetTest, SessionLandingOnAWindowBarrierIsPartitionInvariant) {
  // Regression: with a 12-hour latency and the default midnight start, the
  // window grid puts a barrier at exactly 12:00 — the stations' wake
  // instant. The wake event sits on the closing edge of one window while
  // the GPRS session it opens (registration, upload, sync fetch) runs in
  // the next; the drain must still relay every report and receipt exactly
  // once, independent of partition and thread count.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(pair_config(4).stations[i].station.wake_time_of_day,
              sim::hours(12));
  }
  const std::string reference =
      fingerprint(4, 1, 1, sim::hours(12), 4.0);
  EXPECT_EQ(reference, fingerprint(4, 2, 1, sim::hours(12), 4.0));
  EXPECT_EQ(reference, fingerprint(4, 2, 2, sim::hours(12), 4.0));
  // And the half-day latency still converges the pairs.
  EXPECT_NE(reference.find("|converged=yy"), std::string::npos) << reference;
}

TEST(ShardedFleetTest, FingerprintIsInvariantAtDerivedLatency) {
  const std::string reference = fingerprint(8, 1, 1, sim::Duration{0}, 3.0);
  EXPECT_EQ(reference, fingerprint(8, 2, 2, sim::Duration{0}, 3.0));
  EXPECT_EQ(reference, fingerprint(8, 4, 3, sim::Duration{0}, 3.0));
}

// The sharded assembly applies the serial fleet's name check.
TEST(ShardedFleetTest, RefusesDuplicateStationNames) {
  ShardedFleetConfig config;
  config.fleet = uniform_fleet_config(4, 7);
  config.fleet.stations[1].station.name = "s000";
  config.shards = 2;
  config.workers = 1;
  try {
    ShardedFleet fleet{config};
    FAIL() << "a sharded fleet with two stations named s000 was built";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("s000"), std::string::npos)
        << error.what();
  }
}

// The sharded assembly applies the serial fleet's trace-interval check.
TEST(ShardedFleetTest, RefusesNonPositiveTraceInterval) {
  for (const sim::Duration interval : {sim::Duration{0}, sim::minutes(-5)}) {
    ShardedFleetConfig config;
    config.fleet = uniform_fleet_config(2, 1);
    config.fleet.trace_enabled = true;
    config.fleet.trace_interval = interval;
    config.workers = 1;
    try {
      ShardedFleet fleet{config};
      FAIL() << "a sharded fleet tracing every " << interval.millis()
             << " ms was built";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("trace_interval"),
                std::string::npos)
          << error.what();
    }
  }
}

// The sharded assembly applies the serial fleet's station-name check.
TEST(ShardedFleetTest, RefusesStationNameTheWireCannotCarry) {
  for (const std::string name : {"s=1", "s&1", "s#1"}) {
    ShardedFleetConfig config;
    config.fleet = uniform_fleet_config(2, 1);
    config.fleet.stations[1].station.name = name;
    config.workers = 1;
    try {
      ShardedFleet fleet{config};
      FAIL() << "a sharded fleet with a station named " << name
             << " was built";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
          << error.what();
    }
  }
}

TEST(ShardedFleetTest, FindStationAndProbeNaming) {
  ShardedFleet fleet{sharded_config(4, 2, 1)};
  ASSERT_NE(fleet.find_station("s3"), nullptr);
  EXPECT_EQ(fleet.find_station("s3")->name(), "s3");
  EXPECT_EQ(fleet.find_station("nope"), nullptr);
  EXPECT_EQ(fleet.probe_series_name("s2", 21), "s2/probe21");
  EXPECT_EQ(fleet.probes_alive(), 4);
}

}  // namespace
}  // namespace gw::station
