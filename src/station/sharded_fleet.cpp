#include "station/sharded_fleet.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace gw::station {

sim::Duration derive_fleet_lookahead(const FleetConfig& config) {
  // The fastest cross-boundary interaction is a report landing in
  // Southampton: no station can influence another before its GPRS session
  // has even registered. One extra second stands in for the first byte of
  // transfer — generous lookahead only costs window length, never
  // correctness.
  if (config.stations.empty()) return sim::minutes(1);
  sim::Duration min_registration =
      config.stations.front().station.gprs.registration_time;
  for (const StationSpec& spec : config.stations) {
    min_registration =
        std::min(min_registration, spec.station.gprs.registration_time);
  }
  if (min_registration <= sim::Duration{0}) {
    min_registration = sim::seconds(1);
  }
  return min_registration + sim::seconds(1);
}

ShardedFleet::ShardedFleet(ShardedFleetConfig config)
    : FleetAssembly(std::move(config.fleet), "ShardedFleet"),
      latency_(config.latency > sim::Duration{0}
                   ? config.latency
                   : derive_fleet_lookahead(config_)) {
  // Partition: distinct groups in spec-appearance order, round-robined
  // over shards; an ungrouped station forms a singleton group keyed by its
  // own (checked unique) name. Appearance order is configuration, so the
  // assignment never depends on thread scheduling.
  const auto group_key = [](const StationSpec& spec) {
    return spec.sync_group.empty() ? "~solo:" + spec.station.name
                                   : spec.sync_group;
  };
  std::map<std::string, std::size_t> group_slot;
  std::size_t distinct_groups = 0;
  for (const StationSpec& spec : config_.stations) {
    if (group_slot.emplace(group_key(spec), distinct_groups).second) {
      ++distinct_groups;
    }
  }
  if (distinct_groups == 0) distinct_groups = 1;
  const std::size_t shard_count =
      std::clamp<std::size_t>(config.shards, 1, distinct_groups);

  sim::ShardedConfig sharded_config;
  sharded_config.shards = shard_count;
  sharded_config.workers = config.workers;
  sharded_config.lookahead = latency_;
  sharded_config.start = sim::to_time(config_.start);
  sharded_ = std::make_unique<sim::ShardedSimulation>(sharded_config);
  environments_.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    environments_.push_back(std::make_unique<env::Environment>(
        config_.environment, config_.seed, sharded_config.start));
  }

  // Pass 1: one world per station, on its group's shard and that shard's
  // environment. The replica server mirrors the serial wiring (oracle, sync
  // groups) but owns only this station's traffic; its report log feeds the
  // barrier drains. The hub is FleetAssembly's server, wired like the
  // serial fleet's.
  std::map<std::string, std::vector<std::size_t>> groups;
  worlds_.reserve(config_.stations.size());
  for (std::size_t s = 0; s < config_.stations.size(); ++s) {
    const StationSpec& spec = config_.stations[s];
    auto world = std::make_unique<World>();
    world->shard = group_slot.at(group_key(spec)) % shard_count;
    world->server = std::make_unique<SouthamptonServer>();
    world->server->sync().enable_report_log();
    if (fault_plan_.has_value()) {
      world->oracle = std::make_unique<fault::FaultOracle>(
          *fault_plan_, sim::to_time(config_.start));
      world->oracle->set_hooks(
          obs::Hooks{&world->fault_metrics, &world->fault_journal});
    }
    build_station(s, sharded_->shard(world->shard),
                  *environments_[world->shard], *world->server,
                  world->oracle.get());
    if (!spec.sync_group.empty()) groups[spec.sync_group].push_back(s);
    worlds_.push_back(std::move(world));
  }

  // Group wiring: every replica knows its whole group's membership (the
  // min-rule runs over the replica ledger), and every world lists its
  // peers for the report relay.
  for (const auto& [group, members] : groups) {
    for (const std::size_t member : members) {
      World& world = *worlds_[member];
      for (const std::size_t other : members) {
        world.server->sync().assign_group(station(other).name(), group);
        if (other != member) world.peers.push_back(other);
      }
    }
  }

  // Pass 2: probes, on their station's shard and environment.
  finish_build();
  if (config_.trace_enabled) {
    for (std::size_t s = 0; s < worlds_.size(); ++s) {
      declare_series(s, worlds_[s]->trace);
      sample_trace(s);
    }
  }

  sharded_->set_barrier_hook(
      [this](sim::SimTime barrier) { drain(barrier); });
}

void ShardedFleet::run_days(double days) {
  sharded_->run_until(sharded_->now() + sim::days(days));
}

std::size_t ShardedFleet::index_of(const std::string& station_name) const {
  for (std::size_t s = 0; s < size(); ++s) {
    if (station(s).name() == station_name) return s;
  }
  throw std::invalid_argument("ShardedFleet: unknown station " +
                              station_name);
}

bool ShardedFleet::queue_special(const std::string& station_name,
                                 core::SpecialCommand command) {
  return worlds_[index_of(station_name)]->server->queue_special(
      station_name, std::move(command));
}

bool ShardedFleet::queue_update(const std::string& station_name,
                                core::UpdatePackage package) {
  return worlds_[index_of(station_name)]->server->queue_update(
      station_name, std::move(package));
}

bool ShardedFleet::queue_config_update(const std::string& station_name,
                                       core::ConfigUpdate update) {
  return worlds_[index_of(station_name)]->server->queue_config_update(
      station_name, std::move(update));
}

void ShardedFleet::set_manual_override(
    std::optional<power::PowerState> override_state) {
  for (auto& world : worlds_) {
    world->server->sync().set_manual_override(override_state);
  }
  hub().sync().set_manual_override(override_state);
}

void ShardedFleet::set_group_override(
    const std::string& group, std::optional<power::PowerState> override_state) {
  for (auto& world : worlds_) {
    world->server->sync().set_group_override(group, override_state);
  }
  hub().sync().set_group_override(group, override_state);
}

std::vector<obs::MergedEvent> ShardedFleet::merged_journal() const {
  std::vector<std::pair<std::string, const obs::EventJournal*>> journals;
  journals.reserve(worlds_.size() * 2);
  for (std::size_t s = 0; s < worlds_.size(); ++s) {
    journals.emplace_back(station(s).name(), &station(s).journal());
    journals.emplace_back(station(s).name() + "/fault",
                          &worlds_[s]->fault_journal);
  }
  return obs::merge_journals(journals);
}

void ShardedFleet::drain(sim::SimTime barrier) {
  (void)barrier;
  for (std::size_t s = 0; s < worlds_.size(); ++s) {
    World& world = *worlds_[s];
    // Fresh sync reports relay to every group peer's replica as
    // kernel-exact events at report time + latency: visibility is uniform
    // whether or not the peer shares a shard, so partition never shows.
    for (const auto& report : world.server->sync().drain_report_log()) {
      for (const std::size_t peer : world.peers) {
        core::SyncServer* target = &worlds_[peer]->server->sync();
        sharded_->post(worlds_[peer]->shard,
                       report.reported_at + latency_, report.station,
                       [target, report] {
                         target->record_remote_state(report.station,
                                                     report.state,
                                                     report.reported_at);
                       });
      }
    }
    // Ingest flows to the hub as coordinator messages; the hub ledger
    // keeps the station-side timestamps.
    for (auto& file : world.server->drain_received()) {
      sharded_->post_apply(file.received_at + latency_, file.station,
                           [this, file](sim::SimTime) {
                             hub().receive_file(file.station, file.name,
                                                file.size, file.received_at);
                           });
    }
    for (auto& beacon : world.server->drain_beacons()) {
      sharded_->post_apply(beacon.at + latency_, station(s).name(),
                           [this, beacon](sim::SimTime) {
                             hub().receive_beacon(beacon.station,
                                                  beacon.beacon, beacon.at);
                           });
    }
    for (auto& result : world.server->drain_special_results()) {
      sharded_->post_apply(result.executed_at + latency_, station(s).name(),
                           [this, result](sim::SimTime) {
                             hub().record_special_result(result);
                           });
    }
  }
}

void ShardedFleet::sample_trace(std::size_t index) {
  sample_stations(index, index + 1, worlds_[index]->trace);
  sharded_->shard(worlds_[index]->shard)
      .schedule_in(config_.trace_interval,
                   [this, index] { sample_trace(index); });
}

}  // namespace gw::station
