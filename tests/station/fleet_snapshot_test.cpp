// Whole-world checkpoint / fork tests (docs/SNAPSHOT.md).
//
// The contract under test: a fleet restored from a mid-season snapshot and
// run to the end of the season is indistinguishable — state for state —
// from the same world replayed cold from day 0. The comparison is the
// strongest one available: snapshot both end states and require every
// section CRC to match (the kernel section alone is exempt, because the
// cold replay's events_executed counts rebuild-dropped no-op pops the fork
// never sees). Mismatched-config and damaged-byte restores must refuse with
// typed errors before touching any state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "sim/trace.h"
#include "snapshot/archive.h"
#include "snapshot/error.h"
#include "snapshot/state_writer.h"
#include "station/fleet.h"

namespace gw::station {
namespace {

FleetConfig small_faulted_config(std::uint64_t seed = 20080601) {
  FleetConfig config;
  config.seed = seed;
  config.start = sim::DateTime{2008, 6, 1, 0, 0, 0};
  // Trace on: its 30-minute sampler is a fleet-owned pending event the
  // restore path must rebuild.
  config.trace_enabled = true;
  config.fault_spec =
      "gprs_outage      start=3d duration=2d severity=1.0\n"
      "harvest_blackout start=8d duration=3d severity=1.0\n";

  StationSpec base;
  base.station.name = "base";
  base.station.role = StationRole::kBaseStation;
  base.station.power.battery.capacity = util::AmpHours{6.0};
  base.station.power.battery.initial_soc = 0.6;
  base.sync_group = "g1";
  base.chargers = {ChargerKind::kSolar, ChargerKind::kWind};
  base.probe_count = 2;
  config.stations.push_back(std::move(base));

  StationSpec reference;
  reference.station.name = "reference";
  reference.station.role = StationRole::kReferenceStation;
  reference.sync_group = "g1";
  reference.chargers = {ChargerKind::kSolar, ChargerKind::kMains};
  reference.probe_count = 0;
  config.stations.push_back(std::move(reference));
  return config;
}

// 17 minutes past a day boundary: off every wake window, sample slot, and
// fault edge, so the world is quiescent and the save is accepted.
sim::Duration checkpoint_offset() {
  return sim::days(6) + sim::minutes(17);
}

sim::SimTime season_end(const Fleet& fleet) {
  return sim::to_time(fleet.config().start) + sim::days(12) +
         sim::minutes(17);
}

// Section-for-section byte agreement of two end states.
void expect_same_sections(Fleet& cold, Fleet& forked) {
  const auto cold_end = cold.save_snapshot();
  const auto fork_end = forked.save_snapshot();
  const snapshot::StateReader cold_reader(cold_end);
  const snapshot::StateReader fork_reader(fork_end);
  ASSERT_EQ(cold_reader.sections().size(), fork_reader.sections().size());
  for (std::size_t i = 0; i < cold_reader.sections().size(); ++i) {
    const auto& a = cold_reader.sections()[i];
    const auto& b = fork_reader.sections()[i];
    ASSERT_EQ(a.name, b.name);
    if (a.name == "kernel") continue;
    EXPECT_EQ(a.crc, b.crc) << "section drifted after fork: " << a.name;
  }
}

TEST(FleetSnapshotTest, ForkResumedSeasonMatchesColdReplay) {
  Fleet cold{small_faulted_config()};
  cold.simulation().run_until(cold.simulation().now() + checkpoint_offset());
  const std::vector<std::uint8_t> snapshot = cold.save_snapshot();
  cold.simulation().run_until(season_end(cold));

  Fleet forked{small_faulted_config()};
  forked.restore_snapshot(snapshot);
  EXPECT_EQ(forked.simulation().now().millis_since_epoch(),
            (sim::to_time(forked.config().start) + checkpoint_offset())
                .millis_since_epoch());
  forked.simulation().run_until(season_end(forked));

  expect_same_sections(cold, forked);

  // And the human-readable outcomes agree too.
  EXPECT_EQ(cold.station(0).stats().runs_completed,
            forked.station(0).stats().runs_completed);
  EXPECT_EQ(cold.server().files_from("base"),
            forked.server().files_from("base"));
  EXPECT_EQ(cold.probes_alive(), forked.probes_alive());
}

// The base browns out under a harvest blackout and recharges into a cold
// boot whose GPS time fix a dgps_no_fix window refuses, so the station
// sleeps a day before it retries (§IV). With seed 20080601 the bank browns
// out on day 1, comes back at 00:34 on day 4 and defers until the window
// closes on day 7.
FleetConfig deferred_cold_boot_config() {
  FleetConfig config = small_faulted_config();
  config.fault_spec =
      "harvest_blackout start=1d duration=3d severity=1.0\n"
      "dgps_no_fix      start=1d duration=6d severity=1.0\n";
  StationConfig& base = config.stations[0].station;
  base.power.battery.capacity = util::AmpHours{0.3};
  base.power.battery.initial_soc = 0.3;
  return config;
}

// The pending retry is a station-owned event the restore must rebuild.
TEST(FleetSnapshotTest, DeferredColdBootRetrySurvivesRestore) {
  Fleet cold{deferred_cold_boot_config()};
  const sim::SimTime cut =
      cold.simulation().now() + sim::days(5) + sim::minutes(17);
  cold.simulation().run_until(cut);
  const std::vector<std::uint8_t> snapshot = cold.save_snapshot();
  const int cold_boots_at_cut = cold.station(0).stats().cold_boots;

  // The last recovery record before the cut is a deferral less than a
  // day old, so its retry is still pending.
  const obs::Event* last = nullptr;
  for (const obs::Event& event : cold.station(0).journal().events()) {
    if (event.type == obs::EventType::kRecoveryDeferred ||
        event.type == obs::EventType::kRecoveryResync) {
      last = &event;
    }
  }
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->type, obs::EventType::kRecoveryDeferred);
  EXPECT_GT(last->time_ms, (cut - sim::days(1)).millis_since_epoch());
  EXPECT_LT(last->time_ms, cut.millis_since_epoch());

  const sim::SimTime end = cut + sim::days(4);
  cold.simulation().run_until(end);
  Fleet forked{deferred_cold_boot_config()};
  forked.restore_snapshot(snapshot);
  forked.simulation().run_until(end);

  EXPECT_GT(forked.station(0).stats().cold_boots, cold_boots_at_cut);
  EXPECT_EQ(forked.station(0).recovery().gps_resyncs(), 1);
  expect_same_sections(cold, forked);
}

TEST(FleetSnapshotTest, SaveIsDeterministic) {
  Fleet first{small_faulted_config()};
  first.simulation().run_until(first.simulation().now() +
                               checkpoint_offset());
  Fleet second{small_faulted_config()};
  second.simulation().run_until(second.simulation().now() +
                                checkpoint_offset());
  EXPECT_EQ(first.save_snapshot(), second.save_snapshot());
}

TEST(FleetSnapshotTest, RestoreRejectsMismatchedWorld) {
  Fleet source{small_faulted_config(20080601)};
  source.simulation().run_until(source.simulation().now() +
                                checkpoint_offset());
  const auto snapshot = source.save_snapshot();

  Fleet other{small_faulted_config(999)};
  try {
    other.restore_snapshot(snapshot);
    FAIL() << "restored a snapshot from a differently-seeded world";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::SnapshotErrc::kStateMismatch);
    EXPECT_EQ(error.section(), "meta");
  }
}

// The trace mode is configuration, not saved state, so a snapshot only
// restores into a fleet that traces exactly when the saved one did.
void expect_trace_mode_refused(bool saved_traced) {
  FleetConfig config = uniform_fleet_config(2, 1);
  config.trace_enabled = saved_traced;
  Fleet source{config};
  source.simulation().run_until(source.simulation().now() +
                                checkpoint_offset());
  const auto snapshot = source.save_snapshot();

  config.trace_enabled = !saved_traced;
  Fleet target{config};
  try {
    target.restore_snapshot(snapshot);
    FAIL() << "restored a trace-" << (saved_traced ? "on" : "off")
           << " snapshot into a trace-" << (saved_traced ? "off" : "on")
           << " fleet";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::SnapshotErrc::kStateMismatch);
    EXPECT_EQ(error.section(), "fleet");
  }
}

TEST(FleetSnapshotTest, TraceOnSnapshotRefusedByTraceOffFleet) {
  expect_trace_mode_refused(true);
}

TEST(FleetSnapshotTest, TraceOffSnapshotRefusedByTraceOnFleet) {
  expect_trace_mode_refused(false);
}

// The fleet resolves its series handles once, at construction; a restore
// fills those series in place, so the next sample lands in the restored
// series and continues its run, as it does in the cold world.
TEST(FleetSnapshotTest, RestoredTraceTakesTheNextSample) {
  Fleet cold{small_faulted_config()};
  cold.simulation().run_until(cold.simulation().now() + checkpoint_offset());
  const std::vector<std::uint8_t> snapshot = cold.save_snapshot();

  Fleet forked{small_faulted_config()};
  forked.restore_snapshot(snapshot);
  const std::vector<std::string> names = cold.trace().series_names();
  ASSERT_EQ(forked.trace().series_names(), names);
  std::vector<std::size_t> restored_sizes;
  for (const std::string& name : names) {
    const sim::SeriesView series = forked.trace().series(name);
    ASSERT_EQ(series.size(), cold.trace().series(name).size()) << name;
    EXPECT_EQ(series.runs(), 1u) << name;
    restored_sizes.push_back(series.size());
  }

  // The cut is 17 minutes past midnight: the next sample is 13 minutes on.
  for (Fleet* fleet : {&cold, &forked}) {
    fleet->simulation().run_until(fleet->simulation().now() +
                                  sim::minutes(14));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    const sim::SeriesView got = forked.trace().series(names[i]);
    const sim::SeriesView want = cold.trace().series(names[i]);
    ASSERT_EQ(got.size(), restored_sizes[i] + 1) << names[i];
    EXPECT_EQ(got.runs(), 1u) << names[i];
    EXPECT_EQ(got[got.size() - 1].time, want[want.size() - 1].time)
        << names[i];
    EXPECT_EQ(got[got.size() - 1].value, want[want.size() - 1].value)
        << names[i];
  }
}

// `bytes` sealed again with series `drop` taken out of the fleet section's
// trace, every other byte as it was.
std::vector<std::uint8_t> without_series(std::span<const std::uint8_t> bytes,
                                         const std::string& drop) {
  const snapshot::StateReader reader(bytes);
  return snapshot::StateWriter::seal([&](snapshot::StateWriter& out) {
    for (const snapshot::Section& section : reader.sections()) {
      out.section(section.name, [&](snapshot::Saver& ar) {
        std::span<const std::uint8_t> rest = section.payload;
        if (section.name == "fleet") {
          snapshot::Loader loader(section.payload);
          sim::Trace saved;
          loader.value(saved);
          sim::Trace trimmed;
          for (const std::string& name : saved.series_names()) {
            if (name == drop) continue;
            const sim::SeriesId id = trimmed.declare(name);
            for (const sim::TracePoint& point : saved.series(name)) {
              trimmed.add(id, point.time, point.value);
            }
          }
          ar.value(trimmed);
          rest = rest.last(loader.remaining());
        }
        if (std::uint8_t* at = ar.block(rest.size())) {
          std::copy(rest.begin(), rest.end(), at);
        }
      });
    }
  });
}

TEST(FleetSnapshotTest, SnapshotLackingASampledSeriesRefused) {
  Fleet source{small_faulted_config()};
  source.simulation().run_until(source.simulation().now() +
                                checkpoint_offset());
  const std::vector<std::uint8_t> snapshot = source.save_snapshot();
  ASSERT_TRUE(source.trace().has_series("base/probe21.conductivity"));
  const std::vector<std::uint8_t> forged =
      without_series(snapshot, "base/probe21.conductivity");
  ASSERT_LT(forged.size(), snapshot.size());

  Fleet target{small_faulted_config()};
  try {
    target.restore_snapshot(forged);
    FAIL() << "restored a snapshot that lacks a sampled series";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::SnapshotErrc::kStateMismatch);
    EXPECT_EQ(error.section(), "fleet");
  }
  // The unforged bytes restore into the same kind of fleet.
  Fleet control{small_faulted_config()};
  EXPECT_NO_THROW(control.restore_snapshot(snapshot));
}

TEST(FleetSnapshotTest, CorruptOrTruncatedSnapshotRefused) {
  Fleet source{small_faulted_config()};
  source.simulation().run_until(source.simulation().now() +
                                checkpoint_offset());
  const auto snapshot = source.save_snapshot();

  auto damaged = snapshot;
  damaged[damaged.size() / 2] ^= 0x01;
  Fleet target{small_faulted_config()};
  EXPECT_THROW(target.restore_snapshot(damaged), snapshot::SnapshotError);

  const std::vector<std::uint8_t> truncated(
      snapshot.begin(), snapshot.begin() + std::ptrdiff_t(snapshot.size() / 3));
  Fleet target2{small_faulted_config()};
  EXPECT_THROW(target2.restore_snapshot(truncated), snapshot::SnapshotError);
}

}  // namespace
}  // namespace gw::station
