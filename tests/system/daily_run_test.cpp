// Pins the Fig 4 daily run, step by step.
//
// Each station-day runs Fig 4's chain of steps: some run once, some in
// chunks (one probe session, one dGPS file) so the 2-hour watchdog can cut
// the run between them (§VI), and the state-0 stop gates every step that
// talks to Southampton. What a run leaves behind is pinned here: the steps
// the last finished run completed, the count and sum of every
// station.step_seconds.<step> histogram and of station.run_seconds (each
// sum compared bit for bit), and the kernel's event count, which sees
// every chunk's continuation. A faulted paper-preset season pins the
// deployed order over a year; a state-0 day shows the gated steps
// completing in zero time; a special-first day the §VI reordering; a
// hung-transfer day the watchdog's cut, with the steps done before it and
// the log bytes its "2h limit hit during step <name>" line adds; and a
// flat battery the brown-out's cut. A cut run finishes exactly once.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "station/deployment.h"
#include "station/station.h"

namespace gw::station {
namespace {

using Steps = std::vector<std::string>;

// A station.run_seconds or station.step_seconds.<step> histogram.
struct Timing {
  std::string name;
  std::uint64_t count;
  double sum;
};

// Every run timing the station has, in metric-name order; each sum is
// compared by its bits.
void expect_timings(const Station& station,
                    const std::vector<Timing>& expected) {
  std::vector<Timing> actual;
  for (const auto& [key, histogram] : station.metrics().histograms()) {
    if (key.component != "station") continue;
    if (key.name == "run_seconds" || key.name.starts_with("step_seconds.")) {
      actual.push_back({key.name, histogram.count(), histogram.sum()});
    }
  }
  ASSERT_EQ(actual.size(), expected.size()) << station.name();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].name, expected[i].name) << station.name();
    EXPECT_EQ(actual[i].count, expected[i].count)
        << station.name() << " " << actual[i].name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i].sum),
              std::bit_cast<std::uint64_t>(expected[i].sum))
        << station.name() << " " << actual[i].name << ": " << actual[i].sum
        << " != " << expected[i].sum;
  }
}

// Every wake ended in exactly one finished run: none finished twice.
void expect_one_finish_per_wake(const Station& station) {
  EXPECT_EQ(std::uint64_t(station.stats().runs_completed +
                          station.stats().runs_aborted),
            station.metrics().counter_value("station", "wakes"))
      << station.name();
}

constexpr const char* kFaultSoakSpec =
    "# adversarial season (docs/FAULTS.md)\n"
    "gprs_outage      start=20d duration=7d  severity=1.0\n"
    "dgps_no_fix      start=35d duration=3d  severity=0.9\n"
    "cf_write_fail    start=45d duration=2d  severity=0.3\n"
    "server_down      start=50d duration=36h\n"
    "harvest_blackout start=70d duration=12d severity=1.0\n";

TEST(DailyRun, FaultedPaperPresetSeason) {
  DeploymentConfig deployment;
  deployment.fault_spec = kFaultSoakSpec;
  Fleet fleet{deployment.to_fleet_config()};
  fleet.run_days(365.0);
  const Station& base = fleet.station(0);
  const Station& reference = fleet.station(1);

  EXPECT_EQ(base.last_run_steps(),
            (Steps{"get_probe_data", "read_msp", "calc_power_state",
                   "get_gps_files", "package_data", "upload_power_state",
                   "upload_data", "get_override", "get_special",
                   "check_updates", "check_config"}));
  EXPECT_EQ(reference.last_run_steps(),
            (Steps{"read_msp", "calc_power_state", "get_gps_files",
                   "package_data", "upload_power_state", "upload_data",
                   "get_override", "get_special", "check_updates",
                   "check_config"}));
  expect_timings(base,
                 {{"run_seconds", 365, 812521.44600224495},
                  {"step_seconds.calc_power_state", 365, 365},
                  {"step_seconds.check_config", 365, 0},
                  {"step_seconds.check_updates", 365, 0},
                  {"step_seconds.get_gps_files", 365, 51453.597000000016},
                  {"step_seconds.get_override", 365, 13044.26300000011},
                  {"step_seconds.get_probe_data", 365, 22220.672999999995},
                  {"step_seconds.get_special", 365, 13235.960000000057},
                  {"step_seconds.package_data", 365, 4380},
                  {"step_seconds.read_msp", 365, 2920},
                  {"step_seconds.upload_data", 365, 691979.76700000162},
                  {"step_seconds.upload_power_state", 365,
                   12922.185999999889}});
  expect_timings(reference,
                 {{"run_seconds", 365, 752479.43300008774},
                  {"step_seconds.calc_power_state", 365, 365},
                  {"step_seconds.check_config", 365, 0},
                  {"step_seconds.check_updates", 365, 0},
                  {"step_seconds.get_gps_files", 365, 50441.292000000001},
                  {"step_seconds.get_override", 365, 13033.560000000107},
                  {"step_seconds.get_special", 365, 13234.584000000057},
                  {"step_seconds.package_data", 365, 4380},
                  {"step_seconds.read_msp", 365, 2920},
                  {"step_seconds.upload_data", 365, 655186.12800000201},
                  {"step_seconds.upload_power_state", 365,
                   12918.868999999895}});
  EXPECT_EQ(base.stats().runs_completed, 365);
  EXPECT_EQ(reference.stats().runs_completed, 365);
  expect_one_finish_per_wake(base);
  expect_one_finish_per_wake(reference);
  EXPECT_EQ(base.simulation().events_executed(), 1174856u);
}

// One station with reliable GPRS, as in station_test.cpp.
struct Rig {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{5};
  SouthamptonServer server;
  std::unique_ptr<Station> station;

  static StationConfig reference_config() {
    StationConfig config;
    config.name = "reference";
    config.role = StationRole::kReferenceStation;
    config.gprs.registration_success = 1.0;
    config.gprs.drop_per_minute = 0.0;
    return config;
  }

  Station& make(StationConfig config, bool with_mains) {
    station = std::make_unique<Station>(simulation, environment, server,
                                        util::Rng{99}, std::move(config));
    if (with_mains) {
      power::MainsChargerConfig mains;
      mains.season_start_month = 1;
      mains.season_end_month = 12;
      station->add_charger(std::make_unique<power::MainsCharger>(mains));
    }
    station->start();
    return *station;
  }

  void run_days(double days) {
    simulation.run_until(simulation.now() + sim::days(days));
  }
};

TEST(DailyRun, StateZeroDayGatesInZeroTime) {
  // Probe jobs run in every state; everything past the state-0 stop
  // completes at once, without a session or an event of its own.
  Rig rig;
  StationConfig config = Rig::reference_config();
  config.name = "base";
  config.role = StationRole::kBaseStation;
  config.power.battery.initial_soc = 0.06;
  config.initial_state = power::PowerState::kState0;
  Station& station = rig.make(config, /*with_mains=*/false);
  ProbeNodeConfig probe_config;
  probe_config.probe_id = 21;
  probe_config.weibull_scale_days = 5000.0;
  ProbeNode probe{rig.simulation, rig.environment, util::Rng{21},
                  probe_config};
  station.add_probe(probe);
  rig.run_days(1.0);

  EXPECT_EQ(station.last_run_steps(),
            (Steps{"get_probe_data", "read_msp", "calc_power_state",
                   "get_gps_files", "package_data", "upload_power_state",
                   "upload_data", "get_override", "get_special",
                   "check_updates", "check_config"}));
  expect_timings(station, {{"run_seconds", 1, 12.03600001335144},
                           {"step_seconds.calc_power_state", 1, 1},
                           {"step_seconds.check_config", 1, 0},
                           {"step_seconds.check_updates", 1, 0},
                           {"step_seconds.get_gps_files", 1, 0},
                           {"step_seconds.get_override", 1, 0},
                           {"step_seconds.get_probe_data", 1, 3.036},
                           {"step_seconds.get_special", 1, 0},
                           {"step_seconds.package_data", 1, 0},
                           {"step_seconds.read_msp", 1, 8},
                           {"step_seconds.upload_data", 1, 0},
                           {"step_seconds.upload_power_state", 1, 0}});
  EXPECT_EQ(station.stats().state0_days, 1);
  EXPECT_EQ(station.gprs().sessions_attempted(), 0);
  expect_one_finish_per_wake(station);
  EXPECT_EQ(rig.simulation.events_executed(), 1518u);
}

TEST(DailyRun, SpecialBeforeUploadRunsEarly) {
  Rig rig;
  StationConfig config = Rig::reference_config();
  config.power.battery.initial_soc = 1.0;
  config.execute_special_before_upload = true;
  Station& station = rig.make(config, /*with_mains=*/true);
  rig.server.queue_special("reference", {.id = "df", .script = "df -h"});
  rig.run_days(1.0);

  EXPECT_EQ(station.last_run_steps(),
            (Steps{"read_msp", "calc_power_state", "get_special_early",
                   "get_gps_files", "package_data", "upload_power_state",
                   "upload_data", "get_override", "check_updates",
                   "check_config"}));
  expect_timings(station,
                 {{"run_seconds", 1, 229.74699997901917},
                  {"step_seconds.calc_power_state", 1, 1},
                  {"step_seconds.check_config", 1, 0},
                  {"step_seconds.check_updates", 1, 0},
                  {"step_seconds.get_gps_files", 1, 0},
                  {"step_seconds.get_override", 1, 35.808},
                  {"step_seconds.get_special_early", 1, 66.376000000000005},
                  {"step_seconds.package_data", 1, 12},
                  {"step_seconds.read_msp", 1, 8},
                  {"step_seconds.upload_data", 1, 71.111999999999995},
                  {"step_seconds.upload_power_state", 1,
                   35.451000000000001}});
  EXPECT_EQ(station.stats().specials_executed, 1);
  expect_one_finish_per_wake(station);
  EXPECT_EQ(rig.simulation.events_executed(), 1510u);
}

TEST(DailyRun, WatchdogCutsHungTransfer) {
  // StationDaily.WatchdogKillsHungTransfer's world: the first session
  // wedges, and the watchdog cuts the run inside upload_power_state.
  Rig rig;
  StationConfig config = Rig::reference_config();
  config.power.battery.initial_soc = 1.0;
  config.gprs.hang_per_session = 1.0;
  Station& station = rig.make(config, /*with_mains=*/true);
  rig.run_days(1.0);

  EXPECT_EQ(station.last_run_steps(),
            (Steps{"read_msp", "calc_power_state", "get_gps_files",
                   "package_data"}));
  expect_timings(station, {{"run_seconds", 1, 7200},
                           {"step_seconds.calc_power_state", 1, 1},
                           {"step_seconds.get_gps_files", 1, 0},
                           {"step_seconds.package_data", 1, 12},
                           {"step_seconds.read_msp", 1, 8}});
  EXPECT_EQ(station.stats().runs_aborted, 1);
  EXPECT_EQ(station.watchdog().expiry_count(), 1);
  expect_one_finish_per_wake(station);
  // Logged after package_data took the day's file: the watchdog's line
  // naming the step it cut (74 bytes) and the state change (37 bytes).
  EXPECT_EQ(station.log_manager().pending_bytes(), 111u);
  EXPECT_EQ(rig.simulation.events_executed(), 1503u);
}

TEST(DailyRun, BrownOutAbortsTheRun) {
  // A small bank and a wedged session: the battery empties inside
  // upload_power_state, before the watchdog's limit.
  Rig rig;
  StationConfig config = Rig::reference_config();
  config.power.battery.capacity = util::AmpHours{0.5};
  config.power.battery.initial_soc = 0.9;
  config.gprs.hang_per_session = 1.0;
  Station& station = rig.make(config, /*with_mains=*/false);
  rig.run_days(1.0);

  EXPECT_EQ(station.last_run_steps(),
            (Steps{"read_msp", "calc_power_state", "get_gps_files",
                   "package_data"}));
  expect_timings(station, {{"run_seconds", 1, 4714.9400000572205},
                           {"step_seconds.calc_power_state", 1, 1},
                           {"step_seconds.get_gps_files", 1, 0},
                           {"step_seconds.package_data", 1, 12},
                           {"step_seconds.read_msp", 1, 8}});
  EXPECT_EQ(station.stats().brown_outs, 1);
  EXPECT_EQ(station.stats().runs_aborted, 1);
  EXPECT_EQ(station.watchdog().expiry_count(), 0);
  expect_one_finish_per_wake(station);
  EXPECT_EQ(station.log_manager().pending_bytes(), 130u);
  EXPECT_EQ(rig.simulation.events_executed(), 1494u);
}

}  // namespace
}  // namespace gw::station
