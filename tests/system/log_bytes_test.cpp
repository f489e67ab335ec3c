// Pins the bytes of the daily logfile (§VI), per station.
//
// Nothing else sees the log's size on its own: the BENCH exports fold it
// into the GPRS totals. Each station's `log_<iso>` uploads are counted and
// summed as Southampton received them, beside the lines its LogManager
// suppressed, for two worlds: the faulted paper preset (the glacbench
// paper_season world, seed 42) and a station with one chatty probe whose
// per-reading debug lines overrun their daily budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "station/deployment.h"
#include "station/station.h"

namespace gw::station {
namespace {

struct LogTotals {
  std::size_t files = 0;
  std::int64_t bytes = 0;
};

LogTotals log_totals(const SouthamptonServer& server,
                     const std::string& station) {
  LogTotals totals;
  for (const auto& file : server.received()) {
    if (file.station == station && file.name.rfind("log_", 0) == 0) {
      ++totals.files;
      totals.bytes += file.size.count();
    }
  }
  return totals;
}

constexpr const char* kFaultSoakSpec =
    "# adversarial season (docs/FAULTS.md)\n"
    "gprs_outage      start=20d duration=7d  severity=1.0\n"
    "dgps_no_fix      start=35d duration=3d  severity=0.9\n"
    "cf_write_fail    start=45d duration=2d  severity=0.3\n"
    "server_down      start=50d duration=36h\n"
    "harvest_blackout start=70d duration=12d severity=1.0\n";

TEST(LogBytes, FaultedPaperPresetSixtyDays) {
  DeploymentConfig deployment;
  deployment.fault_spec = kFaultSoakSpec;
  Fleet fleet{deployment.to_fleet_config()};
  fleet.run_days(60.0);

  const LogTotals base = log_totals(fleet.server(), "base");
  EXPECT_EQ(base.files, 60u);
  EXPECT_EQ(base.bytes, 731475);
  EXPECT_EQ(fleet.station(0).log_manager().total_suppressed(), 0u);

  const LogTotals reference = log_totals(fleet.server(), "reference");
  EXPECT_EQ(reference.files, 60u);
  EXPECT_EQ(reference.bytes, 3808);
  EXPECT_EQ(fleet.station(1).log_manager().total_suppressed(), 0u);
}

TEST(LogBytes, ChattyProbeStationIsBudgeted) {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{5};
  SouthamptonServer server;
  StationConfig config;
  config.name = "base";
  config.role = StationRole::kBaseStation;
  config.gprs.registration_success = 1.0;
  config.gprs.drop_per_minute = 0.0;
  config.power.battery.initial_soc = 1.0;
  config.initial_state = power::PowerState::kState3;
  Station station{simulation, environment, server, util::Rng{99}, config};
  power::MainsChargerConfig mains{.season_start_month = 1,
                                  .season_end_month = 12};
  station.add_charger(std::make_unique<power::MainsCharger>(mains));
  station.start();
  ProbeNodeConfig probe_config;
  probe_config.probe_id = 21;
  probe_config.sample_interval = sim::minutes(2);
  probe_config.weibull_scale_days = 5000.0;
  ProbeNode probe{simulation, environment, util::Rng{21}, probe_config};
  station.add_probe(probe);
  simulation.run_until(simulation.now() + sim::days(2));

  const LogTotals totals = log_totals(server, "base");
  EXPECT_EQ(totals.files, 2u);
  EXPECT_EQ(totals.bytes, 33062);
  EXPECT_EQ(station.log_manager().total_suppressed(), 608u);
}

}  // namespace
}  // namespace gw::station
