// FleetAssembly: what the serial Fleet and the ShardedFleet share — the
// fleet description (FleetConfig), the per-station build, the trace sampler
// and the rollup. A fleet derives from it and keeps only what really
// differs: its kernel and environment (one per kernel), a shared versus
// per-station server / fault oracle, the sharded barrier drain, and
// snapshots.
//
// Construction order is part of the determinism contract, because it fixes
// kernel sequence numbers and rng draw order: a fleet builds every station
// (build_station, spec order), then finish_build() builds every probe and
// starts every station, and only then, with the trace on, does the fleet
// declare each station's series (declare_series) and take its first trace
// sample. See docs/FLEET.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
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
#include "util/rng.h"

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

struct FleetConfig {
  std::uint64_t seed = 42;
  sim::DateTime start{2008, 9, 1, 0, 0, 0};
  env::EnvironmentConfig environment;
  std::vector<StationSpec> stations;
  bool trace_enabled = true;
  // Must be positive when the trace is on: a sampler that reschedules
  // itself at the same instant never lets the clock advance.
  sim::Duration trace_interval = sim::minutes(30);
  // Optional fault plan (docs/FAULTS.md spec text). When non-empty it is
  // parsed at construction, anchored at `start`, and wired into every
  // station and the server. A parse error throws std::invalid_argument: a
  // scripted season that silently runs clean would defeat the test.
  std::string fault_spec;
  // Probe trace-series / rng namespace: "<station>/probe<id>" when true
  // (the fleet default — two stations may both serve a probe 20), bare
  // "probe<id>" when false (the paper's two-station preset,
  // DeploymentConfig::to_fleet_config, which must keep byte-identical
  // exports).
  bool station_scoped_probe_names = true;
  // Rolling receipt-ledger window handed to the server (0 = unbounded, the
  // paper preset's setting). Totals stay exact either way.
  std::size_t server_received_window = 0;
};

class FleetAssembly {
 public:
  FleetAssembly(const FleetAssembly&) = delete;
  FleetAssembly& operator=(const FleetAssembly&) = delete;

  // --- stations (spec order) ----------------------------------------------

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

  // The trace-series / rng namespace of one probe under this fleet's
  // naming mode ("base/probe21" or bare "probe21").
  [[nodiscard]] std::string probe_series_name(const std::string& station,
                                              int probe_id) const;

  [[nodiscard]] const FleetConfig& config() const { return config_; }

  // --- fleet rollup (docs/FLEET.md) --------------------------------------

  // Convergence status of one sync group: converged when every member sits
  // in the same power state right now.
  struct GroupStatus {
    std::string name;
    int members = 0;
    bool converged = false;
    power::PowerState state = power::PowerState::kState0;  // when converged
  };
  // Status of every sync group, in group-name order.
  // gw::context(coordinator)
  [[nodiscard]] std::vector<GroupStatus> group_status() const;

  // Recomputes the fleet gauges (fleet.stations_total/up, groups_total/
  // converged, yield_bytes, probes_alive) into the rollup registry and
  // journals group convergence flips (kGroupDiverged / kGroupConverged)
  // since the previous refresh. Call it between runs, at whatever cadence
  // the harness samples — it draws no randomness and schedules nothing.
  // gw::context(coordinator)
  obs::MetricsRegistry& update_rollup();

  // The rollup sinks (refreshed by update_rollup, not continuously).
  [[nodiscard]] obs::MetricsRegistry& rollup_metrics() { return rollup_; }
  [[nodiscard]] obs::EventJournal& rollup_journal() {
    return rollup_journal_;
  }

 protected:
  // Checks `config` — unique station names the wire codec can carry, a
  // positive trace interval when the trace is on, a parseable fault plan —
  // and wires the fleet server.
  // `owner` ("Fleet" or "ShardedFleet") prefixes every
  // std::invalid_argument.
  FleetAssembly(FleetConfig config, const std::string& owner);

  // Pass 1, one spec at a time in spec order: station `index` on `kernel`,
  // `environment` and `server`, with its chargers, its sync group declared
  // to `server`, and `oracle` attached when non-null. Its rng stream forks
  // by name, so the assembly sequence never perturbs the draws.
  void build_station(std::size_t index, sim::Simulation& kernel,
                     const env::Environment& environment,
                     SouthamptonServer& server, fault::FaultOracle* oracle);
  // Pass 2, after every station: each station's probes from the variant
  // table, on its station's kernel and environment; then every station's
  // start().
  void finish_build();

  // With the trace on, after finish_build(): declares station `index`'s
  // series in `trace`, the trace sample_stations records it into, and
  // keeps their handles. Each fleet calls it once per station.
  void declare_series(std::size_t index, sim::Trace& trace);

  // Records stations [first, last) into `trace`, where declare_series put
  // their series, at their kernel's clock: voltage, state and SoC of each,
  // then the conductivity of each live probe, read from its station's
  // environment with noise keyed by (series, sample time): an observer
  // draws from no stream of the world.
  void sample_stations(std::size_t first, std::size_t last,
                       sim::Trace& trace) const;

  FleetConfig config_;
  // config_.fault_spec, parsed; absent when the spec is empty.
  std::optional<fault::FaultPlan> fault_plan_;
  obs::MetricsRegistry rollup_;
  obs::EventJournal rollup_journal_;
  // The fleet's Southampton ledger: the one server every station talks to
  // (Fleet) or the hub the replicas drain into (ShardedFleet). Rollup
  // yield is read from it.
  SouthamptonServer server_;
  // Outlive the derived fleet's kernel, environments and oracles, which
  // are destroyed first; no station or probe destructor touches them.
  std::vector<std::unique_ptr<Station>> stations_;
  // probes_[i] belong to stations_[i].
  std::vector<std::vector<std::unique_ptr<ProbeNode>>> probes_;
  // Convergence as of the last update_rollup(), per group name (absent =
  // never observed), for flip detection.
  std::map<std::string, bool> last_converged_;

 private:
  // One station's trace series, resolved once by declare_series:
  // "<station>.voltage", "<station>.state", "<station>.soc", and
  // "<probe series>.conductivity" per probe, in the station's probe order,
  // beside each conductivity series' noise stream,
  // util::Rng{seed}.fork(series). A restore fills a trace's declared
  // series in place, so the handles stay valid across it.
  struct StationSeries {
    sim::SeriesId voltage{};
    sim::SeriesId state{};
    sim::SeriesId soc{};
    std::vector<sim::SeriesId> conductivity;
    std::vector<util::Rng> conductivity_noise;
  };
  // station_series_[i] holds stations_[i]'s series; empty with the trace
  // off.
  std::vector<StationSeries> station_series_;
};

}  // namespace gw::station
