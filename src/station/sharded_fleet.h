// ShardedFleet: a fleet world partitioned across a ShardedSimulation.
//
// The serial Fleet runs every station on one kernel with one shared
// environment and one Southampton server. That is exactly what blocks
// within-world parallelism, so the sharded assembly changes the ownership
// story (docs/PARALLELISM.md):
//
//   * stations are partitioned by *sync group* (a dGPS pair records in
//     lockstep and chats daily — keep it on one shard; an ungrouped
//     station is its own singleton group), groups round-robined over
//     shards in spec order;
//   * each shard owns one env::Environment: the weather is a pure
//     function of (seed, config, start, time), so every shard's answers
//     are the serial Fleet's, and no shard touches another's;
//   * every station gets its own SouthamptonServer *replica* (the only
//     server object its daily run touches) and its own FaultOracle + fault
//     instrumentation pair;
//   * cross-station coupling happens only through timestamped messages
//     drained from the replicas at window barriers: fresh sync reports are
//     relayed into every group peer's replica as kernel-exact events at
//     report time + latency, and uploads / beacons / special results flow
//     to the authoritative *hub* server as coordinator messages. The
//     latency is the GPRS session set-up floor (derive_fleet_lookahead) —
//     uniform even between stations that happen to share a shard, so
//     behaviour never depends on who was co-resident.
//
// The result: rollup gauges, per-station metrics/journals, traces, hub
// ledgers, and events_executed() are byte-identical at any worker count
// and any shard count (tests/system/sharded_determinism_test.cpp). Its
// weather is the serial Fleet's, but the message latency makes it the
// serial world of the sharded semantics, defined as shards=1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/environment.h"
#include "fault/fault.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "sim/sharded_simulation.h"
#include "sim/trace.h"
#include "station/fleet_assembly.h"
#include "station/southampton.h"

namespace gw::station {

// The conservative lookahead of a fleet: the fastest any station-to-server
// interaction can cross a shard boundary. A GPRS session must register
// before the first byte moves (§VI: ~35 s), so the floor is the minimum
// registration time over the fleet plus one second of transfer margin.
// Falls back to one minute for an empty fleet.
[[nodiscard]] sim::Duration derive_fleet_lookahead(const FleetConfig& config);

struct ShardedFleetConfig {
  FleetConfig fleet;
  // Desired shard count; clamped to [1, number of sync groups].
  std::size_t shards = 1;
  // Worker threads advancing shards (0 = hardware concurrency, capped at
  // the shard count).
  unsigned workers = 0;
  // Cross-shard message latency = window length. Non-positive (the
  // default) derives derive_fleet_lookahead(fleet). Must cover the window:
  // the ShardedSimulation uses this same value as its lookahead.
  sim::Duration latency{0};
};

class ShardedFleet : public FleetAssembly {
 public:
  explicit ShardedFleet(ShardedFleetConfig config);

  // Advances the whole system by `days` simulated days (whole windows; the
  // final, deadline-truncated window ends exactly at the deadline).
  void run_days(double days);

  // --- partition ----------------------------------------------------------

  [[nodiscard]] sim::ShardedSimulation& sharded() { return *sharded_; }
  [[nodiscard]] std::size_t shard_count() const {
    return sharded_->shard_count();
  }
  [[nodiscard]] sim::Duration latency() const { return latency_; }
  // Shard of station `index`; group members always share one shard.
  [[nodiscard]] std::size_t shard_of(std::size_t index) const {
    return worlds_[index]->shard;
  }

  // --- per-station worlds -------------------------------------------------

  // The replica server station `index` talks to (its queues, its sync
  // ledger view). Operator actions go through the fleet-level helpers
  // below, which route to the right replica.
  [[nodiscard]] SouthamptonServer& station_server(std::size_t index) {
    return *worlds_[index]->server;
  }
  [[nodiscard]] const sim::Trace& station_trace(std::size_t index) const {
    return worlds_[index]->trace;
  }
  [[nodiscard]] const obs::MetricsRegistry& station_fault_metrics(
      std::size_t index) const {
    return worlds_[index]->fault_metrics;
  }
  [[nodiscard]] const obs::EventJournal& station_fault_journal(
      std::size_t index) const {
    return worlds_[index]->fault_journal;
  }

  // --- operator actions (coordinator context, between runs) ---------------

  // Each returns what the station's replica said: false when its bounded
  // per-station queue refused the item (SouthamptonServer backpressure).
  // gw::context(coordinator)
  bool queue_special(const std::string& station_name,
                     core::SpecialCommand command);
  // gw::context(coordinator)
  bool queue_update(const std::string& station_name,
                    core::UpdatePackage package);
  // gw::context(coordinator)
  bool queue_config_update(const std::string& station_name,
                           core::ConfigUpdate update);
  // gw::context(coordinator)
  void set_manual_override(std::optional<power::PowerState> override_state);
  // gw::context(coordinator)
  void set_group_override(const std::string& group,
                          std::optional<power::PowerState> override_state);

  // --- the hub ------------------------------------------------------------

  // The authoritative Southampton ledger: receives every upload, beacon,
  // and special result as barrier messages at +latency. Mutated only on
  // the coordinator thread; read it between runs. The rollup
  // (FleetAssembly::update_rollup, coordinator context) reads its yield
  // from here.
  [[nodiscard]] SouthamptonServer& hub() { return server_; }
  [[nodiscard]] const SouthamptonServer& hub() const { return server_; }

  // --- merged emission (partition-invariant order) ------------------------

  // Station + fault journals merged by (time, station, seq); fault
  // journals are labelled "<station>/fault".
  [[nodiscard]] std::vector<obs::MergedEvent> merged_journal() const;

  [[nodiscard]] std::uint64_t events_executed() const {
    return sharded_->events_executed();
  }

 private:
  // What one station owns or is the only writer of while its shard runs,
  // besides the station and probes themselves (FleetAssembly holds those).
  // unique_ptr-held so addresses stay stable across construction.
  struct World {
    std::size_t shard = 0;
    std::vector<std::size_t> peers;   // same-group worlds, excluding self
    obs::MetricsRegistry fault_metrics;
    obs::EventJournal fault_journal;
    std::unique_ptr<fault::FaultOracle> oracle;  // null when no fault plan
    std::unique_ptr<SouthamptonServer> server;   // the station's replica
    sim::Trace trace;
  };

  // Barrier hook: drains every replica's outbound ledgers into messages.
  // gw::context(coordinator)
  void drain(sim::SimTime barrier);
  // Runs on the worker advancing the station's shard (scheduled as a
  // kernel-exact repeating event); touches only that shard's World.
  // gw::context(worker)
  void sample_trace(std::size_t index);
  [[nodiscard]] std::size_t index_of(const std::string& station_name) const;

  // Cross-shard message latency = window length (ShardedFleetConfig).
  sim::Duration latency_;
  std::unique_ptr<sim::ShardedSimulation> sharded_;
  std::vector<std::unique_ptr<env::Environment>> environments_;  // by shard
  std::vector<std::unique_ptr<World>> worlds_;
};

}  // namespace gw::station
