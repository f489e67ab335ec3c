// Fleet checkpoint / restore: the whole-world GWSNAP container
// (docs/SNAPSHOT.md).
//
// Layout is one section per subsystem, written in a fixed order:
//
//   meta               world shape — seed, start, station names, probe counts
//   kernel             simulation clock, sequence counter, live-event count
//   fault              fault-oracle trip counters + instrumentation
//   server             the Southampton ingest/query server
//   fleet              trace, rollup sinks, convergence memory, trace event
//   station/<name>     one per station, in spec order
//   probe/<station>/<id>  one per probe, station-major
//
// Restore rebuilds the object graph by constructing a fresh Fleet from the
// identical FleetConfig (wiring, callbacks, and configuration all come from
// the constructor), then overwrites the dynamic state section by section.
// The environment has no section: it is a pure function of the seed, the
// config and the start that meta pins, so the restored fleet's weather
// tape rebuilds itself from the start as it is read.
// Pending events are not serialised as closures: each owner records a
// rebuild record (live flag + execution time + sequence number) and
// re-schedules its own callback through Simulation::schedule_rebuilt, which
// replays the exact heap position. The save refuses (kNotQuiescent) unless
// every pending kernel event is claimed by exactly one rebuild record —
// that is the catch-all that keeps untracked one-shot events (a comms
// session's power-down, a boot trampoline) from being silently dropped.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snapshot/archive.h"
#include "snapshot/error.h"
#include "snapshot/state_writer.h"
#include "station/fleet.h"

namespace gw::station {

namespace {

// The world-shape facts a snapshot is only valid against. Everything else
// about configuration is rebuilt by the Fleet constructor; these are the
// fields whose disagreement would make the restored bytes land in a
// structurally different world (wrong rng streams, wrong station list).
struct SnapshotMeta {
  std::uint64_t seed = 0;
  std::int64_t start_ms = 0;
  bool station_scoped_probe_names = true;
  std::vector<std::string> station_names;
  std::vector<std::uint64_t> probe_counts;

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(seed);
    ar.value(start_ms);
    ar.value(station_scoped_probe_names);
    ar.value(station_names);
    ar.value(probe_counts);
  }
};

SnapshotMeta fleet_shape(const FleetConfig& config) {
  SnapshotMeta meta;
  meta.seed = config.seed;
  meta.start_ms = sim::to_time(config.start).millis_since_epoch();
  meta.station_scoped_probe_names = config.station_scoped_probe_names;
  meta.station_names.reserve(config.stations.size());
  meta.probe_counts.reserve(config.stations.size());
  for (const StationSpec& spec : config.stations) {
    meta.station_names.push_back(spec.station.name);
    meta.probe_counts.push_back(std::uint64_t(spec.probe_count));
  }
  return meta;
}

void check_meta(const SnapshotMeta& saved, const SnapshotMeta& mine) {
  using snapshot::SnapshotErrc;
  using snapshot::SnapshotError;
  if (saved.seed != mine.seed) {
    throw SnapshotError(SnapshotErrc::kStateMismatch,
                        "snapshot seed " + std::to_string(saved.seed) +
                            " != fleet seed " + std::to_string(mine.seed),
                        "meta");
  }
  if (saved.start_ms != mine.start_ms) {
    throw SnapshotError(SnapshotErrc::kStateMismatch,
                        "snapshot start " + std::to_string(saved.start_ms) +
                            "ms != fleet start " +
                            std::to_string(mine.start_ms) + "ms",
                        "meta");
  }
  if (saved.station_scoped_probe_names != mine.station_scoped_probe_names) {
    throw SnapshotError(SnapshotErrc::kStateMismatch,
                        "probe naming mode differs", "meta");
  }
  if (saved.station_names != mine.station_names) {
    throw SnapshotError(SnapshotErrc::kStateMismatch,
                        "station list differs (snapshot has " +
                            std::to_string(saved.station_names.size()) +
                            " stations, fleet has " +
                            std::to_string(mine.station_names.size()) + ")",
                        "meta");
  }
  if (saved.probe_counts != mine.probe_counts) {
    throw SnapshotError(SnapshotErrc::kStateMismatch,
                        "per-station probe counts differ", "meta");
  }
}

std::string station_section(const std::string& name) {
  return "station/" + name;
}

std::string probe_section(const std::string& station, int probe_id) {
  return "probe/" + station + "/" + std::to_string(probe_id);
}

}  // namespace

template <class Archive>
void Fleet::persist_fault_section(Archive& ar) {
  ar.value(fault_oracle_);
  ar.value(fault_metrics_);
  ar.value(fault_journal_);
}

template <class Archive>
void Fleet::persist_fleet_section(Archive& ar) {
  ar.value(trace_);
  ar.value(rollup_);
  ar.value(rollup_journal_);
  ar.value(last_converged_);
  sim::persist_pending(ar, simulation_, trace_event_,
                       [this] { sample_trace(); });
  // The sampler's rebuild record is live exactly when the saved world
  // traced. Restored into the other mode, a trace-off fleet would sample
  // into series it never declared, and a trace-on fleet would silently
  // stop tracing. (A trace-on fleet refuses a trace-off snapshot earlier,
  // in the trace itself: the snapshot holds none of the series it
  // samples.)
  if constexpr (!Archive::kIsSaver) {
    if ((trace_event_ != sim::EventId{0}) != config_.trace_enabled) {
      throw snapshot::SnapshotError(snapshot::SnapshotErrc::kStateMismatch,
                                    "trace mode differs", "fleet");
    }
  }
}

std::vector<std::uint8_t> Fleet::save_snapshot() {
  return snapshot::StateWriter::seal([&](snapshot::StateWriter& out) {
    out.section("meta", [&](snapshot::Saver& ar) {
      SnapshotMeta meta = fleet_shape(config_);
      ar.value(meta);
    });
    out.section("kernel", [&](snapshot::Saver& ar) {
      auto checkpoint = simulation_.checkpoint();
      ar.value(checkpoint);
    });
    out.section("fault",
                [&](snapshot::Saver& ar) { persist_fault_section(ar); });
    out.section("server", [&](snapshot::Saver& ar) { ar.value(server_); });
    out.section("fleet",
                [&](snapshot::Saver& ar) { persist_fleet_section(ar); });
    for (std::size_t s = 0; s < stations_.size(); ++s) {
      out.section(station_section(stations_[s]->name()),
                  [&](snapshot::Saver& ar) { ar.value(*stations_[s]); });
      for (const auto& probe : probes_[s]) {
        out.section(probe_section(stations_[s]->name(), probe->id()),
                    [&](snapshot::Saver& ar) { ar.value(*probe); });
      }
    }

    // Every live kernel event must have been claimed by exactly one
    // rebuild record above. A shortfall means some component holds an
    // untracked one-shot (comms power-down, boot trampoline) — resuming
    // without it would silently change the world, so the save refuses
    // instead, in the counting pass, before the container is allocated.
    if (out.rebuild_records() != simulation_.pending()) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotErrc::kNotQuiescent,
          std::to_string(simulation_.pending()) + " pending events but " +
              std::to_string(out.rebuild_records()) + " rebuild records",
          "kernel");
    }
  });
}

void Fleet::restore_snapshot(std::span<const std::uint8_t> bytes) {
  const snapshot::StateReader reader(bytes);
  const auto read_section = [&](const std::string& name, auto&& fill) {
    snapshot::Loader loader = reader.open(name);
    fill(loader);
    loader.expect_end();
  };

  // Shape check before any state is touched: a snapshot from a different
  // world must fail loudly, not half-apply.
  read_section("meta", [&](snapshot::Loader& ar) {
    SnapshotMeta saved;
    ar.value(saved);
    check_meta(saved, fleet_shape(config_));
  });

  sim::Simulation::KernelCheckpoint checkpoint;
  read_section("kernel",
               [&](snapshot::Loader& ar) { ar.value(checkpoint); });
  simulation_.begin_restore(checkpoint);

  read_section("fault",
               [&](snapshot::Loader& ar) { persist_fault_section(ar); });
  read_section("server", [&](snapshot::Loader& ar) { ar.value(server_); });
  read_section("fleet",
               [&](snapshot::Loader& ar) { persist_fleet_section(ar); });
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    read_section(station_section(stations_[s]->name()),
                 [&](snapshot::Loader& ar) { ar.value(*stations_[s]); });
    for (auto& probe : probes_[s]) {
      read_section(probe_section(stations_[s]->name(), probe->id()),
                   [&](snapshot::Loader& ar) { ar.value(*probe); });
    }
  }

  simulation_.finish_restore();
}

}  // namespace gw::station
