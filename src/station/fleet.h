// Fleet: a config-driven N-station deployment.
//
// The paper deployed exactly two stations (glacier base + café reference),
// and for three PRs this repo hard-wired that shape into Deployment. The
// fleet layer makes station count, role mix, harvest mix, probe load, and
// sync topology *configuration*: a FleetConfig is a vector of StationSpec,
// each naming its chargers, its subglacial probe count, and the sync group
// it records in lockstep with (a dGPS pair is one group; an ungrouped
// station self-syncs). One Fleet owns the shared simulation, environment,
// fault oracle, Southampton server, the stations and their probes, a
// 30-minute trace, and a fleet-level rollup registry.
//
// Deployment (station/deployment.h) is now a thin two-station preset over
// this class and keeps its byte-identical exports; bench_fleet_scale sweeps
// 2 -> 64 stations on the MonteCarloRunner. See docs/FLEET.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "env/environment.h"
#include "fault/fault.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "station/probe_node.h"
#include "station/southampton.h"
#include "station/station.h"

namespace gw::station {

// Harvest hardware a spec can install, in declaration order (§III mixes:
// base = solar + wind, reference = solar + seasonal mains).
enum class ChargerKind { kSolar, kWind, kMains };

// One station in the fleet: its full StationConfig plus the fleet-level
// facts the assembly needs (who it syncs with, what charges it, how many
// subglacial probes it serves).
struct StationSpec {
  StationConfig station;
  // Sync-group name; members apply the §III min-rule to each other. Empty =
  // ungrouped (self-syncing).
  std::string sync_group;
  std::vector<ChargerKind> chargers;
  int probe_count = 0;
};

// One station's 30-minute trace series names: "<station>.voltage",
// "<station>.state", "<station>.soc", and "<probe series>.conductivity"
// per probe, in the station's probe order. Both fleets build them once,
// when the trace starts, instead of on every sample. They are names, not
// handles into a trace, so a restore that replaces the trace invalidates
// nothing.
struct StationTraceNames {
  StationTraceNames() = default;
  explicit StationTraceNames(const std::string& station)
      : voltage(station + ".voltage"),
        state(station + ".state"),
        soc(station + ".soc") {}

  std::string voltage;
  std::string state;
  std::string soc;
  std::vector<std::string> conductivity;
};

struct FleetConfig {
  std::uint64_t seed = 42;
  sim::DateTime start{2008, 9, 1, 0, 0, 0};
  env::EnvironmentConfig environment;
  std::vector<StationSpec> stations;
  bool trace_enabled = true;
  sim::Duration trace_interval = sim::minutes(30);
  // Optional fault plan (docs/FAULTS.md spec text). When non-empty it is
  // parsed at construction, anchored at `start`, and wired into every
  // station and the server. A parse error throws std::invalid_argument: a
  // scripted season that silently runs clean would defeat the test.
  std::string fault_spec;
  // Probe trace-series / rng namespace: "<station>/probe<id>" when true
  // (the fleet default — two stations may both serve a probe 20), bare
  // "probe<id>" when false (the legacy two-station Deployment preset,
  // which must keep byte-identical exports).
  bool station_scoped_probe_names = true;
  // Rolling receipt-ledger window handed to the server (0 = unbounded, the
  // legacy preset's setting). Totals stay exact either way.
  std::size_t server_received_window = 0;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Advances the whole system by `days` simulated days.
  void run_days(double days);

  [[nodiscard]] std::size_t size() const { return stations_.size(); }
  [[nodiscard]] Station& station(std::size_t index) {
    return *stations_[index];
  }
  [[nodiscard]] const Station& station(std::size_t index) const {
    return *stations_[index];
  }
  // Station by name; null when absent.
  [[nodiscard]] Station* find_station(const std::string& name);

  // The probes served by station `index` (empty vector for probe-less
  // specs, e.g. the reference role).
  [[nodiscard]] std::vector<std::unique_ptr<ProbeNode>>& probes(
      std::size_t index) {
    return probes_[index];
  }

  [[nodiscard]] int probes_alive() const;

  [[nodiscard]] sim::Simulation& simulation() { return simulation_; }
  [[nodiscard]] env::Environment& environment() { return environment_; }
  [[nodiscard]] SouthamptonServer& server() { return server_; }

  // 30-minute series: "<station>.voltage", "<station>.state",
  // "<station>.soc", and "<station>/probe<id>.conductivity" (bare
  // "probe<id>.conductivity" under legacy naming) — the raw material for
  // the Fig 5 / Fig 6 benches.
  [[nodiscard]] sim::Trace& trace() { return trace_; }

  // The trace-series / rng namespace of one probe under this fleet's
  // naming mode ("base/probe21" or legacy "probe21").
  [[nodiscard]] std::string probe_series_name(const std::string& station,
                                              int probe_id) const;

  // The shared fault oracle (always present; empty plan when no fault_spec
  // was given) and its instrumentation pair — fleet-level observables the
  // soak harness exports alongside the per-station registries.
  [[nodiscard]] fault::FaultOracle& fault_oracle() { return fault_oracle_; }
  [[nodiscard]] obs::MetricsRegistry& fault_metrics() {
    return fault_metrics_;
  }
  [[nodiscard]] obs::EventJournal& fault_journal() { return fault_journal_; }

  // --- fleet rollup (docs/FLEET.md) --------------------------------------

  // Convergence status of one sync group: converged when every member sits
  // in the same power state right now.
  struct GroupStatus {
    std::string name;
    int members = 0;
    bool converged = false;
    core::PowerState state = core::PowerState::kState0;  // when converged
  };
  // Status of every sync group, in group-name order.
  [[nodiscard]] std::vector<GroupStatus> group_status() const;

  // Recomputes the fleet gauges (fleet.stations_total/up, groups_total/
  // converged, yield_bytes, probes_alive) into the rollup registry and
  // journals group convergence flips (kGroupDiverged / kGroupConverged)
  // since the previous refresh. Call it at whatever cadence the harness
  // samples — it draws no randomness and schedules nothing.
  obs::MetricsRegistry& update_rollup();

  // The rollup sinks (refreshed by update_rollup, not continuously).
  [[nodiscard]] obs::MetricsRegistry& rollup_metrics() { return rollup_; }
  [[nodiscard]] obs::EventJournal& rollup_journal() {
    return rollup_journal_;
  }

  [[nodiscard]] const FleetConfig& config() const { return config_; }

  // --- checkpoint / fork (docs/SNAPSHOT.md) -------------------------------

  // Serialises the whole world — kernel clock/queue, environment, fault
  // oracle, server, every station and probe — into a versioned GWSNAP
  // container (fleet_snapshot.cpp). The fleet must be quiescent: a save
  // taken mid-daily-run, mid-comms-session, or with any pending event no
  // component claims throws SnapshotError(kNotQuiescent).
  [[nodiscard]] std::vector<std::uint8_t> save_snapshot();

  // Restores a snapshot into a fleet freshly constructed from the *same*
  // FleetConfig. The meta section is cross-checked against this fleet's
  // shape (seed, start, station names, probe counts); any disagreement
  // throws SnapshotError(kStateMismatch) before state is touched.
  void restore_snapshot(std::span<const std::uint8_t> bytes);

 private:
  void sample_trace();

  // Shared field lists for the multi-object snapshot sections, one template
  // each so the save and restore byte streams can never drift
  // (fleet_snapshot.cpp).
  template <class Archive>
  void persist_fault_section(Archive& ar);
  template <class Archive>
  void persist_fleet_section(Archive& ar);

  FleetConfig config_;
  sim::Simulation simulation_;
  env::Environment environment_;
  // Declared before the stations: devices hold FaultOracle* into this.
  obs::MetricsRegistry fault_metrics_;
  obs::EventJournal fault_journal_;
  fault::FaultOracle fault_oracle_;
  SouthamptonServer server_;
  std::vector<std::unique_ptr<Station>> stations_;
  // probes_[i] belong to stations_[i].
  std::vector<std::vector<std::unique_ptr<ProbeNode>>> probes_;
  // trace_names_[i] names stations_[i]'s series; empty with the trace off.
  std::vector<StationTraceNames> trace_names_;
  sim::Trace trace_;
  obs::MetricsRegistry rollup_;
  obs::EventJournal rollup_journal_;
  // Convergence as of the last update_rollup(), per group name (absent =
  // never observed), for flip detection.
  std::map<std::string, bool> last_converged_;
  // The 30-minute trace sampler's pending event (rebuilt on restore).
  sim::EventId trace_event_ = 0;
};

// The canonical scaling preset used by bench_fleet_scale and the fleet
// determinism tests: `stations` stations named s000..s<N-1>, paired into
// dGPS sync groups g000.. (even = base role with solar + wind and two
// subglacial probes, odd = reference role with solar + mains), wake windows
// staggered a few minutes apart, and each pair starting deliberately
// diverged (state 3 vs state 2, full vs 70 % battery) so the §III min-rule
// has real convergence work to do. Trace off, receipt window capped —
// sized for repeated 2 -> 64 sweeps.
[[nodiscard]] FleetConfig uniform_fleet_config(int stations,
                                               std::uint64_t seed);

}  // namespace gw::station
