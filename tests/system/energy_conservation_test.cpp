// The conservation invariant, end to end (docs/ENERGY.md): over a full
// scripted faulted season — brown-outs, harvest blackout, degraded mode and
// all — every station's per-component, per-state microjoule ledgers sum
// *exactly* to its battery-side delivered meter, and the per-charger
// harvest ledgers sum exactly to the absorbed meter. Not within a
// tolerance: to the microjoule, because both books are fed the same
// integer quanta in the same tick.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/component_model.h"
#include "power/power_system.h"
#include "station/fleet.h"

namespace gw {
namespace {

constexpr const char* kSeasonSpec =
    "# adversarial season (docs/FAULTS.md)\n"
    "gprs_outage      start=5d  duration=7d  severity=1.0\n"
    "dgps_no_fix      start=14d duration=2d  severity=0.9\n"
    "cf_write_fail    start=16d duration=1d  severity=0.3\n"
    "server_down      start=18d duration=12h\n"
    "harvest_blackout start=25d duration=8d  severity=1.0\n";

station::FleetConfig season_config() {
  station::FleetConfig config;
  config.seed = 20080601;
  config.start = sim::DateTime{2008, 6, 1, 0, 0, 0};
  config.trace_enabled = false;
  config.fault_spec = kSeasonSpec;

  station::StationSpec base;
  base.station.name = "base";
  base.station.role = station::StationRole::kBaseStation;
  // Under-provisioned and leaky so the season actually browns out — the
  // invariant must survive the brown-out edge, not just fair weather.
  base.station.power.battery.capacity = util::AmpHours{6.0};
  base.station.power.battery.initial_soc = 0.6;
  base.station.power.battery.self_discharge_per_day = 0.10;
  base.station.uploads.session_timeout = sim::minutes(15);
  base.station.uploads.retry_backoff_base = sim::minutes(1);
  base.station.degrade_after_failed_days = 3;
  base.sync_group = "g1";
  base.chargers = {station::ChargerKind::kSolar, station::ChargerKind::kWind};
  base.probe_count = 3;
  config.stations.push_back(std::move(base));

  station::StationSpec reference;
  reference.station.name = "reference";
  reference.station.role = station::StationRole::kReferenceStation;
  reference.sync_group = "g1";
  reference.chargers = {station::ChargerKind::kSolar,
                        station::ChargerKind::kMains};
  reference.probe_count = 0;
  config.stations.push_back(std::move(reference));
  return config;
}

void expect_books_balance(station::Fleet& fleet) {
  for (std::size_t i = 0; i < 2; ++i) {
    power::PowerSystem& power = fleet.station(i).power();
    // Consumption side: ledgers vs the battery-side delivered meter.
    EXPECT_EQ(power.component_microjoules(), power.delivered_microjoules())
        << fleet.station(i).config().name;
    // Harvest side: the station's own charger ledgers vs the absorbed meter.
    energy::MicroJoules harvested = 0;
    for (std::size_t c = 0; c < power.charger_count(); ++c) {
      harvested += power.harvested_microjoules(c);
    }
    EXPECT_EQ(harvested, power.absorbed_microjoules())
        << fleet.station(i).config().name;
    // The season was not a no-op: energy actually flowed on both sides.
    EXPECT_GT(power.delivered_microjoules(), 0);
    EXPECT_GT(power.absorbed_microjoules(), 0);
  }
}

TEST(EnergyConservation, ExactOverFullFaultedSeason) {
  station::Fleet fleet{season_config()};
  fleet.run_days(40.0);
  // The scripted season must have exercised the hard path.
  EXPECT_GT(fleet.station(0).stats().brown_outs, 0);
  expect_books_balance(fleet);
}

TEST(EnergyConservation, SurvivesSnapshotRoundTripMidSeason) {
  station::Fleet fleet{season_config()};
  fleet.run_days(20.0);
  fleet.simulation().run_until(fleet.simulation().now() + sim::minutes(17));
  const std::vector<std::uint8_t> snapshot = fleet.save_snapshot();

  auto restored = std::make_unique<station::Fleet>(season_config());
  restored->restore_snapshot(snapshot);
  expect_books_balance(*restored);

  // Both worlds carry the season to the same instant; the restored one
  // must keep the exact same books as the one that never left memory.
  const sim::SimTime season_end =
      sim::to_time(fleet.config().start) + sim::days(40.0);
  fleet.simulation().run_until(season_end);
  restored->simulation().run_until(season_end);
  expect_books_balance(fleet);
  expect_books_balance(*restored);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(fleet.station(i).power().delivered_microjoules(),
              restored->station(i).power().delivered_microjoules());
    EXPECT_EQ(fleet.station(i).power().absorbed_microjoules(),
              restored->station(i).power().absorbed_microjoules());
  }
}

}  // namespace
}  // namespace gw
