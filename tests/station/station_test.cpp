#include "station/station.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace gw::station {
namespace {

using namespace util::literals;

// A harness giving tests full control: reliable GPRS by default (the
// stochastic failure paths have their own tests), mains power on demand.
struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{5};
  SouthamptonServer server;
  std::unique_ptr<Station> station;

  StationConfig reference_config() {
    StationConfig config;
    config.name = "reference";
    config.role = StationRole::kReferenceStation;
    config.gprs.registration_success = 1.0;
    config.gprs.drop_per_minute = 0.0;
    return config;
  }

  StationConfig base_config() {
    StationConfig config = reference_config();
    config.name = "base";
    config.role = StationRole::kBaseStation;
    return config;
  }

  Station& make(StationConfig config, bool with_mains = true) {
    station = std::make_unique<Station>(simulation, environment, server,
                                        util::Rng{99}, std::move(config));
    if (with_mains) {
      power::MainsChargerConfig mains;
      mains.season_start_month = 1;  // always-on bench supply
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

TEST(StationDaily, RunsOncePerDayAndReportsToServer) {
  Fixture f;
  auto& station = f.make(f.reference_config());
  f.run_days(3.0);
  EXPECT_EQ(station.stats().runs_completed, 3);
  EXPECT_EQ(station.stats().runs_aborted, 0);
  // Each run uploads at least the sensor package and the log.
  EXPECT_GE(f.server.files_from("reference"), 4);
  EXPECT_TRUE(f.server.sync().reported_state("reference").has_value());
}

TEST(StationDaily, HealthyBatteryReachesStateThree) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  auto& station = f.make(config);
  f.run_days(2.0);
  // Mains-backed full battery averages well above 12.5 V.
  EXPECT_EQ(station.current_state(), power::PowerState::kState3);
  ASSERT_FALSE(station.daily_averages().empty());
  EXPECT_GT(station.daily_averages().back().average.value(), 12.5);
}

TEST(StationDaily, LowBatteryDropsToLowState) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 0.10;  // below the OCV knee
  auto& station = f.make(config, /*with_mains=*/false);
  f.run_days(2.0);
  EXPECT_LE(power::to_int(station.current_state()), 1);
}

TEST(StationDaily, StateZeroGateStopsCommunications) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 0.06;  // deep in the collapsed tail
  config.initial_state = power::PowerState::kState0;
  auto& station = f.make(config, /*with_mains=*/false);
  f.run_days(2.0);
  // Fig 4: state 0 -> Stop. No GPRS sessions at all.
  EXPECT_EQ(station.gprs().sessions_attempted(), 0);
  EXPECT_EQ(f.server.files_from("reference"), 0);
  EXPECT_GT(station.stats().state0_days, 0);
}

TEST(StationDaily, GpsProgramFollowsState) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  config.initial_state = power::PowerState::kState3;
  auto& station = f.make(config);
  f.run_days(2.0);
  // State 3: ~12 scheduled readings/day (rescheduling at the window drops
  // the odd slot) plus the fetch-time bonus readings (powering the receiver
  // for the serial fetch auto-starts one, §II). Readings after the last
  // noon window are still on the receiver.
  EXPECT_GE(station.dgps().readings_taken(), 21);
  EXPECT_LE(station.dgps().readings_taken(), 28);
  EXPECT_GE(station.stats().gps_files_fetched, 14);
}

TEST(StationDaily, StateOneSkipsGps) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.initial_state = power::PowerState::kState1;
  config.power.battery.initial_soc = 0.30;  // ~12.05 V rest: state 2 band
  auto& station = f.make(config, /*with_mains=*/false);
  f.run_days(1.0);
  // Initial state 1 scheduled no readings on day 0.
  EXPECT_EQ(station.dgps().readings_taken(), 0);
}

TEST(StationDaily, ServerOverrideHoldsStationDown) {
  // Fig 5's annotation: voltage allowed state 3, but the override held 2.
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  f.server.sync().set_manual_override(power::PowerState::kState2);
  auto& station = f.make(config);
  f.run_days(3.0);
  EXPECT_EQ(station.current_state(), power::PowerState::kState2);
  // Released: climbs back to 3 on the next daily run.
  f.server.sync().set_manual_override(std::nullopt);
  // The other ledger entry (its own report) must not hold it down.
  f.run_days(2.0);
  EXPECT_EQ(station.current_state(), power::PowerState::kState3);
}

TEST(StationDaily, OverrideCannotForceStateZero) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  f.server.sync().set_manual_override(power::PowerState::kState0);
  auto& station = f.make(config);
  f.run_days(2.0);
  EXPECT_EQ(station.current_state(), power::PowerState::kState1);
  EXPECT_GT(station.gprs().sessions_attempted(), 0);  // still talking
}

TEST(StationDaily, BaseStationFetchesProbeData) {
  Fixture f;
  StationConfig config = f.base_config();
  auto& station = f.make(config);
  ProbeNodeConfig probe_config;
  probe_config.probe_id = 21;
  probe_config.weibull_scale_days = 5000.0;  // immortal for the test
  ProbeNode probe{f.simulation, f.environment, util::Rng{21}, probe_config};
  station.add_probe(probe);
  f.run_days(2.0);
  EXPECT_GT(station.stats().probe_readings_delivered, 30u);
  // Drained at each noon window; only samples taken since then pend.
  EXPECT_LT(probe.store().pending_count(), 14u);
}

TEST(StationDaily, WatchdogKillsHungTransfer) {
  // §VI's motivating scenario: an SCP transfer hangs; only the 2-hour
  // watchdog stops the station from running its battery flat.
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  config.gprs.hang_per_session = 1.0;  // every session wedges
  auto& station = f.make(config);
  f.run_days(1.0);
  EXPECT_EQ(station.stats().runs_aborted, 1);
  EXPECT_EQ(station.watchdog().expiry_count(), 1);
  EXPECT_GE(station.gprs().hangs(), 1);
  // Gumstix was powered off by the abort path, not left running.
  EXPECT_FALSE(station.board().gumstix().running());
  // Uptime this window is the watchdog limit plus boot, not 24 h.
  EXPECT_LT(station.board().gumstix().uptime().to_hours(), 2.2);
}

TEST(StationDaily, OversizedBacklogSelfLimitsToWindow) {
  // A months-long dGPS backlog: far more than fits one window (§VI). The
  // upload manager stops at the window edge, so the run completes and the
  // backlog drains file by file across days.
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  auto& station = f.make(config);
  for (int i = 0; i < 600; ++i) {
    station.uploads().enqueue("backlog_" + std::to_string(i), 165_KiB);
  }
  f.run_days(1.0);
  EXPECT_EQ(station.stats().runs_aborted, 0);
  EXPECT_GT(f.server.files_from("reference"), 5);
  EXPECT_LT(f.server.files_from("reference"), 100);
  EXPECT_GT(station.uploads().queued_files(), 500u);
}

TEST(StationDaily, BacklogDrainsOverDays) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  auto& station = f.make(config);
  for (int i = 0; i < 50; ++i) {
    station.uploads().enqueue("backlog_" + std::to_string(i), 165_KiB);
  }
  f.run_days(4.0);
  // ~22 x 165 KiB files fit one 2 h GPRS window; 50 clear in 3 days.
  EXPECT_TRUE(std::none_of(
      station.uploads().queue().begin(), station.uploads().queue().end(),
      [](const auto& file) {
        return file.name.rfind("backlog_", 0) == 0;
      }));
}

TEST(StationDaily, SpecialExecutesWithDayLatency) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  auto& station = f.make(config);
  f.server.queue_special("reference", {.id = "df", .script = "df -h"});
  f.run_days(1.5);
  EXPECT_EQ(station.stats().specials_executed, 1);
  ASSERT_EQ(f.server.special_results().size(), 1u);
  const auto& result = f.server.special_results()[0];
  // §VI: deployed ordering -> results ride the *next* day's upload.
  EXPECT_NEAR((result.results_visible_at - result.executed_at).to_hours(),
              24.0, 0.1);
}

TEST(StationDaily, SpecialBeforeUploadCutsLatency) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  config.execute_special_before_upload = true;  // §VI suggested fix
  auto& station = f.make(config);
  f.server.queue_special("reference", {.id = "df", .script = "df -h"});
  f.run_days(1.5);
  EXPECT_EQ(station.stats().specials_executed, 1);
  ASSERT_EQ(f.server.special_results().size(), 1u);
  const auto& result = f.server.special_results()[0];
  EXPECT_LT((result.results_visible_at - result.executed_at).to_hours(), 1.0);
}

TEST(StationDaily, UpdatePipelineInstallsAndBeacons) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 1.0;
  auto& station = f.make(config);
  core::UpdatePackage package;
  package.name = "basestation.py";
  package.payload = std::string(4000, 'p');
  package.expected_md5 = util::Md5::hex_digest(package.payload);
  f.server.queue_update("reference", package);
  f.run_days(3.0);  // retries cover the 3% corruption draw
  EXPECT_TRUE(station.updates().has("basestation.py"));
  ASSERT_GE(f.server.beacons().size(), 1u);
  EXPECT_TRUE(f.server.beacons().back().beacon.verified);
}

TEST(StationDaily, RemoteConfigChangesProbeStrategy) {
  // §V: "Small adjustments could be made to the base station behaviour in
  // order to try different strategies for retrieving data."
  Fixture f;
  StationConfig config = f.base_config();
  config.power.battery.initial_soc = 1.0;
  auto& station = f.make(config);
  core::ConfigUpdate update;
  update.version = 1;
  update.entries["probe.max_rounds"] = "9";
  update.entries["probe.rerequest_all_ratio"] = "0.25";
  update.entries["probe.individual_limit"] = "150";
  update.seal();
  f.server.queue_config_update("base", update);
  f.run_days(1.5);
  EXPECT_EQ(station.remote_config().version(), 1u);
  EXPECT_EQ(station.remote_config().get_int("probe.max_rounds", 0), 9);
  EXPECT_EQ(station.remote_config().applied(), 1);
}

TEST(StationDaily, CorruptRemoteConfigRefusedOldStays) {
  Fixture f;
  StationConfig config = f.base_config();
  config.power.battery.initial_soc = 1.0;
  auto& station = f.make(config);
  core::ConfigUpdate good;
  good.version = 1;
  good.entries["probe.max_rounds"] = "5";
  good.seal();
  f.server.queue_config_update("base", good);
  f.run_days(1.5);
  ASSERT_EQ(station.remote_config().version(), 1u);

  core::ConfigUpdate bad;
  bad.version = 2;
  bad.entries["probe.max_rounds"] = "1";
  bad.seal();
  bad.entries["probe.max_rounds"] = "99";  // corrupted in transit
  f.server.queue_config_update("base", bad);
  f.run_days(1.0);
  EXPECT_EQ(station.remote_config().version(), 1u);  // old config live
  EXPECT_EQ(station.remote_config().get_int("probe.max_rounds", 0), 5);
  EXPECT_GE(station.remote_config().rejected(), 1);
}

TEST(StationRecovery, BrownOutThenColdBootRestoresOperation) {
  Fixture f;
  StationConfig config = f.reference_config();
  config.power.battery.initial_soc = 0.04;
  config.power.battery.self_discharge_per_day = 0.05;  // hasten the death
  auto& station = f.make(config, /*with_mains=*/false);
  // Radio left on drains the bank to zero within hours.
  station.gprs().power_on();
  f.run_days(3.0);
  EXPECT_GE(station.stats().brown_outs, 1);
  EXPECT_TRUE(station.power().browned_out());
  // RTC is at the epoch and no wake schedule exists: windows pass silently.
  EXPECT_LT(station.board().msp().rtc_now(), sim::at_midnight(1971, 1, 1));
  EXPECT_FALSE(station.board().msp().wake_schedule().has_value());
  EXPECT_FALSE(station.board().wake_armed());

  // Charge returns (field-season mains hookup).
  power::MainsChargerConfig mains;
  mains.season_start_month = 1;
  mains.season_end_month = 12;
  station.add_charger(std::make_unique<power::MainsCharger>(mains));
  f.run_days(4.0);
  EXPECT_GE(station.stats().cold_boots, 1);
  EXPECT_FALSE(station.power().browned_out());
  // §IV: clock resynced via GPS, restarted in state 0, runs resumed.
  EXPECT_GE(station.recovery().gps_resyncs() +
                station.recovery().ntp_resyncs(), 1);
  EXPECT_LT(std::abs(station.board().msp().rtc_error_ms()), 120'000);
  EXPECT_GT(station.stats().runs_completed, 0);
  // §IV: the station rewrote the RAM schedule it lost and re-armed the wake.
  EXPECT_EQ(station.board().msp().wake_schedule(), config.wake_time_of_day);
  EXPECT_TRUE(station.board().wake_armed());
}

TEST(StationDaily, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Fixture f;
    StationConfig config = f.reference_config();
    config.power.battery.initial_soc = 0.9;
    auto& station = f.make(config);
    f.run_days(5.0);
    return std::tuple{station.stats().runs_completed,
                      station.gprs().bytes_sent().count(),
                      station.power().battery().soc()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace gw::station
