// Breadth tests: exercising public-API edges the focused suites don't —
// the seams a downstream user will hit first.
#include <gtest/gtest.h>

#include "station/deployment.h"

namespace gw {
namespace {

using namespace util::literals;

TEST(Coverage, SimulationRunForAndPending) {
  sim::Simulation simulation;
  int fired = 0;
  simulation.schedule_in(sim::minutes(10), [&] { ++fired; });
  simulation.schedule_in(sim::minutes(50), [&] { ++fired; });
  EXPECT_EQ(simulation.pending(), 2u);
  simulation.run_for(sim::minutes(30));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulation.pending(), 1u);
  EXPECT_FALSE(simulation.empty());
  simulation.run_for(sim::minutes(30));
  EXPECT_TRUE(simulation.empty());
}

TEST(Coverage, DgpsPeekMatchesFetch) {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystem power{simulation, environment,
                           power::PowerSystemConfig{}};
  hw::DgpsReceiver dgps{simulation, power, util::Rng{3}};
  dgps.power_on();
  simulation.run_until(simulation.now() + sim::seconds(308));
  dgps.power_off();
  const auto peeked = dgps.peek_oldest();
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(dgps.stored_files(), 1u);  // peek does not consume
  const auto fetched = dgps.fetch_oldest();
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().name, peeked.value().name);
  EXPECT_EQ(fetched.value().size, peeked.value().size);
  EXPECT_FALSE(dgps.peek_oldest().ok());
}

TEST(Coverage, Msp430DriftIsDeterministicPerSeed) {
  auto error_after_30_days = [](std::uint64_t seed) {
    sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
    env::Environment environment{1};
    power::PowerSystem power{simulation, environment,
                             power::PowerSystemConfig{}};
    hw::Msp430 msp{simulation, power, util::Rng{seed}};
    simulation.run_until(simulation.now() + sim::days(30));
    return msp.rtc_error_ms();
  };
  EXPECT_EQ(error_after_30_days(7), error_after_30_days(7));
  EXPECT_NE(error_after_30_days(7), error_after_30_days(8));
}

TEST(Coverage, StationAccessorsAfterRun) {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{5};
  station::SouthamptonServer server;
  station::StationConfig config;
  config.name = "reference";
  config.role = station::StationRole::kReferenceStation;
  config.gprs.registration_success = 1.0;
  config.gprs.drop_per_minute = 0.0;
  config.power.battery.initial_soc = 1.0;
  station::Station s{simulation, environment, server, util::Rng{9}, config};
  power::MainsChargerConfig mains{.season_start_month = 1,
                                  .season_end_month = 12};
  s.add_charger(std::make_unique<power::MainsCharger>(mains));
  s.start();
  simulation.run_until(simulation.now() + sim::days(2));

  // History structures are populated and consistent.
  EXPECT_FALSE(s.state_history().empty());
  ASSERT_EQ(s.daily_averages().size(), 2u);
  EXPECT_GT(s.daily_averages()[0].average.value(), 11.0);
  EXPECT_FALSE(s.last_run_steps().empty());
  EXPECT_EQ(s.last_run_steps().front(), "read_msp");
  // CF card holds the fetched dGPS files + daily sensor files.
  EXPECT_GT(s.cf().file_count(), 2u);
  EXPECT_FALSE(s.cf().metadata_corrupted());
  // Watchdog idle between windows.
  EXPECT_FALSE(s.watchdog().armed());
}

TEST(Coverage, DeploymentTraceCadenceExact) {
  station::DeploymentConfig config;
  config.seed = 5;
  station::Fleet deployment{config.to_fleet_config()};
  deployment.run_days(1.0);
  const auto& series = deployment.trace().series("base.soc");
  ASSERT_GE(series.size(), 48u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_EQ((series[i].time - series[i - 1].time).millis(),
              sim::minutes(30).millis());
  }
}

TEST(Coverage, SyncServerManyStations) {
  core::SyncServer server;
  for (const char* name : {"a", "b", "c"}) server.assign_group(name, "trio");
  server.report_state("a", power::PowerState::kState3);
  server.report_state("b", power::PowerState::kState2);
  server.report_state("c", power::PowerState::kState1);
  EXPECT_EQ(*server.override_for_client("a"), power::PowerState::kState1);
  server.report_state("c", power::PowerState::kState3);
  EXPECT_EQ(*server.override_for_client("a"), power::PowerState::kState2);
}

TEST(Coverage, TransferManagerDropResumeAccounting) {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystem power{simulation, environment,
                           power::PowerSystemConfig{}};
  hw::GprsConfig flaky;
  flaky.registration_success = 1.0;
  flaky.drop_per_minute = 0.25;
  hw::GprsModem modem{simulation, power, util::Rng{5}, flaky};
  modem.power_on();
  proto::TransferManagerConfig manager_config;
  manager_config.chunk_resume = true;
  manager_config.max_session_retries = 50;
  proto::TransferManager manager{manager_config};
  manager.enqueue("big", 800_KiB);
  int windows = 0;
  util::Bytes total_sent{0};
  while (!manager.empty() && windows < 20) {
    const auto report = manager.run_window(modem, sim::hours(2));
    total_sent += report.bytes_sent;
    ++windows;
  }
  EXPECT_TRUE(manager.empty());
  // With resume, total payload moved is the file size (server-side dedup of
  // retried chunks is not modelled; progress is).
  EXPECT_GE(total_sent, 800_KiB);
}

}  // namespace
}  // namespace gw
