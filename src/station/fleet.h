// Fleet: a config-driven N-station deployment on one kernel.
//
// The paper deployed exactly two stations (glacier base + café reference);
// the fleet layer makes station count, role mix, harvest mix, probe load,
// and sync topology *configuration*: a FleetConfig is a vector of
// StationSpec, each naming its chargers, its subglacial probe count, and the
// sync group it records in lockstep with (a dGPS pair is one group; an
// ungrouped station self-syncs). One Fleet owns the shared simulation,
// environment, fault oracle and Southampton server, the stations and their
// probes, a 30-minute trace, and a fleet-level rollup registry; the station
// build, trace sampler and rollup live in FleetAssembly, which it shares
// with ShardedFleet.
//
// The paper's pair is DeploymentConfig::to_fleet_config()
// (station/deployment.h); bench_fleet_scale sweeps 2 -> 64 stations on the
// MonteCarloRunner. See docs/FLEET.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "env/environment.h"
#include "fault/fault.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "station/fleet_assembly.h"
#include "station/southampton.h"

namespace gw::station {

class Fleet : public FleetAssembly {
 public:
  explicit Fleet(FleetConfig config);

  // Advances the whole system by `days` simulated days.
  void run_days(double days);

  [[nodiscard]] sim::Simulation& simulation() { return simulation_; }
  [[nodiscard]] SouthamptonServer& server() { return server_; }

  // 30-minute series: "<station>.voltage", "<station>.state",
  // "<station>.soc", and "<station>/probe<id>.conductivity" (bare
  // "probe<id>.conductivity" under the paper preset's naming) — the raw
  // material for the Fig 5 / Fig 6 benches.
  [[nodiscard]] const sim::Trace& trace() const { return trace_; }

  // The shared fault oracle (always present; empty plan when no fault_spec
  // was given) and its instrumentation pair — fleet-level observables the
  // soak harness exports alongside the per-station registries.
  [[nodiscard]] fault::FaultOracle& fault_oracle() { return fault_oracle_; }
  [[nodiscard]] obs::MetricsRegistry& fault_metrics() {
    return fault_metrics_;
  }
  [[nodiscard]] obs::EventJournal& fault_journal() { return fault_journal_; }

  // --- checkpoint / fork (docs/SNAPSHOT.md) -------------------------------

  // Serialises the whole world — kernel clock/queue, environment, fault
  // oracle, server, every station and probe — into a versioned GWSNAP
  // container (fleet_snapshot.cpp). The fleet must be quiescent: a save
  // taken mid-daily-run, mid-comms-session, or with any pending event no
  // component claims throws SnapshotError(kNotQuiescent), from the
  // writer's counting pass, before the container is allocated.
  [[nodiscard]] std::vector<std::uint8_t> save_snapshot();

  // Restores a snapshot into a fleet freshly constructed from the *same*
  // FleetConfig. The meta section is cross-checked against this fleet's
  // shape (seed, start, station names, probe counts) before state is
  // touched, and the trace mode when the fleet section is read; any
  // disagreement throws SnapshotError(kStateMismatch).
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

  sim::Simulation simulation_;
  env::Environment environment_;
  obs::MetricsRegistry fault_metrics_;
  obs::EventJournal fault_journal_;
  fault::FaultOracle fault_oracle_;
  sim::Trace trace_;
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
