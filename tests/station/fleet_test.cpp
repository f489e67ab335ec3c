#include "station/fleet.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace gw::station {
namespace {

// A 4-station fleet: two dGPS pairs, base-role stations carrying probes,
// reliable comms so the structural assertions are about wiring, not luck.
FleetConfig quad_config() {
  FleetConfig config;
  config.seed = 99;
  for (int i = 0; i < 4; ++i) {
    StationSpec spec;
    spec.station.name = "s" + std::to_string(i);
    spec.station.role =
        (i % 2 == 0) ? StationRole::kBaseStation
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

TEST(FleetTest, EveryStationRunsDaily) {
  Fleet fleet{quad_config()};
  fleet.run_days(5.0);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& stats = fleet.station(i).stats();
    EXPECT_GE(stats.runs_completed + stats.runs_aborted, 4)
        << fleet.station(i).name();
    EXPECT_GT(fleet.server().files_from(fleet.station(i).name()), 0)
        << fleet.station(i).name();
  }
}

TEST(FleetTest, SyncGroupsConvergeIndependently) {
  Fleet fleet{quad_config()};
  fleet.run_days(6.0);
  // Within a pair the §III min-rule holds; across pairs there is no link.
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
}

TEST(FleetTest, GroupOverrideHoldsOnlyItsPair) {
  Fleet fleet{quad_config()};
  fleet.server().sync().set_group_override("pair0",
                                           power::PowerState::kState1);
  fleet.run_days(4.0);
  EXPECT_EQ(fleet.station(0).current_state(), power::PowerState::kState1);
  EXPECT_EQ(fleet.station(1).current_state(), power::PowerState::kState1);
  // pair1 climbed to what its (full, mains-backed) batteries allow.
  EXPECT_GT(power::to_int(fleet.station(2).current_state()), 1);
}

TEST(FleetTest, ProbeSeriesAreStationScoped) {
  auto config = quad_config();
  config.trace_enabled = true;
  Fleet fleet{config};
  fleet.run_days(2.0);
  for (const auto* name :
       {"s0.voltage", "s3.state", "s0/probe20.conductivity",
        "s2/probe21.conductivity"}) {
    EXPECT_TRUE(fleet.trace().has_series(name)) << name;
  }
  // The two base-role stations each carry probes 20..21 without colliding.
  EXPECT_EQ(fleet.probe_series_name("s2", 20), "s2/probe20");
  EXPECT_FALSE(fleet.trace().has_series("probe20.conductivity"));
}

TEST(FleetTest, RollupGaugesAndConvergenceJournal) {
  Fleet fleet{quad_config()};
  auto& rollup = fleet.update_rollup();
  EXPECT_EQ(rollup.gauge_value("fleet", "stations_total"), 4.0);
  EXPECT_EQ(rollup.gauge_value("fleet", "groups_total"), 2.0);
  EXPECT_EQ(rollup.gauge_value("fleet", "probes_alive"), 4.0);
  // First refresh journals the initial convergence status of each group.
  EXPECT_EQ(fleet.rollup_journal().size(), 2u);

  fleet.run_days(6.0);
  fleet.update_rollup();
  EXPECT_EQ(rollup.gauge_value("fleet", "stations_up"), 4.0);
  EXPECT_EQ(rollup.gauge_value("fleet", "groups_converged"), 2.0);
  EXPECT_GT(rollup.gauge_value("fleet", "yield_bytes"), 0.0);
  // Steady state journals nothing new: only flips are recorded.
  const std::size_t after_settle = fleet.rollup_journal().size();
  fleet.update_rollup();
  EXPECT_EQ(fleet.rollup_journal().size(), after_settle);
}

TEST(FleetTest, FindStationByName) {
  Fleet fleet{quad_config()};
  ASSERT_NE(fleet.find_station("s2"), nullptr);
  EXPECT_EQ(fleet.find_station("s2")->name(), "s2");
  EXPECT_EQ(fleet.find_station("nope"), nullptr);
}

// Two stations named alike would fork one rng stream and hide one another
// from find_station(); construction refuses them, naming the station.
TEST(FleetTest, RefusesDuplicateStationNames) {
  FleetConfig config = uniform_fleet_config(4, 7);
  config.stations[1].station.name = "s000";
  try {
    Fleet fleet{config};
    FAIL() << "a fleet with two stations named s000 was built";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("s000"), std::string::npos)
        << error.what();
  }
}

// A sampler rescheduled at its own instant would never let the clock
// advance, and a negative interval would only fail deep in the kernel; the
// fleet refuses both up front, naming the field.
TEST(FleetTest, RefusesNonPositiveTraceInterval) {
  for (const sim::Duration interval : {sim::Duration{0}, sim::minutes(-5)}) {
    FleetConfig config = uniform_fleet_config(2, 1);
    config.trace_enabled = true;
    config.trace_interval = interval;
    try {
      Fleet fleet{config};
      FAIL() << "a fleet tracing every " << interval.millis()
             << " ms was built";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("trace_interval"),
                std::string::npos)
          << error.what();
    }
  }
  // With the trace off the interval is never used.
  FleetConfig config = uniform_fleet_config(2, 1);
  config.trace_interval = sim::Duration{0};
  Fleet fleet{config};
  fleet.run_days(1.0);
  EXPECT_GT(fleet.simulation().events_executed(), 0u);
}

// A station name rides every control-plane wire as a form value, which
// cannot carry the codec's '=', '&' or '#'. The constructor refuses such
// a name, naming the station, before anything runs.
TEST(FleetTest, RefusesStationNameTheWireCannotCarry) {
  for (const std::string name : {"s=1", "s&1", "s#1"}) {
    FleetConfig config = uniform_fleet_config(2, 1);
    config.stations[1].station.name = name;
    try {
      Fleet fleet{config};
      FAIL() << "a fleet with a station named " << name << " was built";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
          << error.what();
    }
  }
}

TEST(FleetTest, ServerReceivedWindowIsWiredThrough) {
  auto config = quad_config();
  config.server_received_window = 8;
  config.trace_enabled = false;
  Fleet fleet{config};
  fleet.run_days(5.0);
  EXPECT_LE(fleet.server().received().size(), 8u);
  // Totals are exact counters, far beyond the window.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    total += std::uint64_t(
        fleet.server().files_from(fleet.station(i).name()));
  }
  EXPECT_EQ(total, fleet.server().files_received());
  EXPECT_GT(total, 8u);
}

TEST(FleetTest, DeterministicFromSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    auto config = quad_config();
    config.seed = seed;
    config.trace_enabled = false;
    Fleet fleet{config};
    fleet.run_days(5.0);
    return std::tuple{fleet.station(0).stats().runs_completed,
                      fleet.server().bytes_from("s0").count(),
                      fleet.server().bytes_from("s3").count(),
                      fleet.station(2).power().battery().soc()};
  };
  EXPECT_EQ(fingerprint(7), fingerprint(7));
  EXPECT_NE(fingerprint(7), fingerprint(8));
}

}  // namespace
}  // namespace gw::station
