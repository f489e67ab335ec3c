#include "station/sharded_fleet.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "station/fleet_assembly.h"

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
    : config_(std::move(config)) {
  FleetConfig& fleet = config_.fleet;
  assembly::require_unique_station_names(fleet, "ShardedFleet");
  if (config_.latency <= sim::Duration{0}) {
    config_.latency = derive_fleet_lookahead(fleet);
  }

  // Partition: distinct groups in spec-appearance order, round-robined
  // over shards; an ungrouped station forms a singleton group keyed by its
  // own (checked unique) name. Appearance order is configuration, so the
  // assignment never depends on thread scheduling.
  std::map<std::string, std::size_t> group_slot;
  std::size_t distinct_groups = 0;
  for (const StationSpec& spec : fleet.stations) {
    const std::string key = spec.sync_group.empty()
                                ? "~solo:" + spec.station.name
                                : spec.sync_group;
    if (group_slot.emplace(key, distinct_groups).second) ++distinct_groups;
  }
  if (distinct_groups == 0) distinct_groups = 1;
  const std::size_t shard_count =
      std::clamp<std::size_t>(config_.shards, 1, distinct_groups);

  sim::ShardedConfig sharded_config;
  sharded_config.shards = shard_count;
  sharded_config.workers = config_.workers;
  sharded_config.lookahead = config_.latency;
  sharded_config.start = sim::to_time(fleet.start);
  sharded_ = std::make_unique<sim::ShardedSimulation>(sharded_config);

  std::optional<fault::FaultPlan> plan;
  if (!fleet.fault_spec.empty()) {
    auto parsed = fault::FaultPlan::parse(fleet.fault_spec);
    if (!parsed.ok()) {
      throw std::invalid_argument("ShardedFleet: " + parsed.error().message);
    }
    plan = std::move(parsed.value());
  }

  hub_.set_received_window(fleet.server_received_window);
  // Hub-side anomaly journal (ingest_rejected, future_report) mirrors the
  // serial Fleet wiring; honest seasons record nothing here. The replicas
  // stay uninstrumented — their ledgers drain into the hub anyway.
  hub_.set_hooks(obs::Hooks{&rollup_, &rollup_journal_});

  util::Rng rng{fleet.seed};

  // Pass 1: one world per station, on its group's shard. The replica
  // server mirrors the serial wiring (oracle, sync groups) but owns only
  // this station's traffic; its report log feeds the barrier drains.
  worlds_.reserve(fleet.stations.size());
  for (const StationSpec& spec : fleet.stations) {
    auto world = std::make_unique<World>();
    const std::string key = spec.sync_group.empty()
                                ? "~solo:" + spec.station.name
                                : spec.sync_group;
    world->shard = group_slot.at(key) % shard_count;
    world->group = spec.sync_group;
    world->environment =
        std::make_unique<env::Environment>(fleet.environment, fleet.seed);
    world->server = std::make_unique<SouthamptonServer>();
    world->server->sync().enable_report_log();
    if (plan.has_value()) {
      world->oracle = std::make_unique<fault::FaultOracle>(
          *plan, sim::to_time(fleet.start));
      world->oracle->set_hooks(
          obs::Hooks{&world->fault_metrics, &world->fault_journal});
      world->server->set_fault_oracle(world->oracle.get());
    }
    world->station = std::make_unique<Station>(
        sharded_->shard(world->shard), *world->environment, *world->server,
        rng.fork(spec.station.name), spec.station);
    if (plan.has_value()) {
      world->station->set_fault_oracle(world->oracle.get());
    }
    for (const ChargerKind kind : spec.chargers) {
      world->station->add_charger(assembly::make_charger(kind));
    }
    if (!spec.sync_group.empty()) {
      groups_[spec.sync_group].push_back(worlds_.size());
    }
    worlds_.push_back(std::move(world));
  }

  // Group wiring: every replica knows its whole group's membership (the
  // min-rule runs over the replica ledger), and every world lists its
  // peers for the report relay.
  for (const auto& [group, members] : groups_) {
    for (const std::size_t member : members) {
      World& world = *worlds_[member];
      for (const std::size_t other : members) {
        world.server->sync().assign_group(
            worlds_[other]->station->name(), group);
        if (other != member) world.peers.push_back(other);
      }
    }
  }

  // Pass 2: probes, on their station's shard and environment replica.
  for (std::size_t s = 0; s < fleet.stations.size(); ++s) {
    const StationSpec& spec = fleet.stations[s];
    World& world = *worlds_[s];
    for (int i = 0; i < spec.probe_count; ++i) {
      const auto& variant = assembly::probe_variant(i);
      ProbeNodeConfig probe_config;
      probe_config.probe_id = 20 + i;
      probe_config.conductivity_base_us = variant.base_us;
      probe_config.conductivity_gain_us = variant.gain_us;
      probe_config.link_quality_factor = variant.link_quality;
      world.probes.push_back(std::make_unique<ProbeNode>(
          sharded_->shard(world.shard), *world.environment,
          rng.fork(
              probe_series_name(spec.station.name, probe_config.probe_id)),
          probe_config));
      world.station->add_probe(*world.probes.back());
    }
  }

  for (auto& world : worlds_) world->station->start();

  if (fleet.trace_enabled) {
    for (std::size_t s = 0; s < worlds_.size(); ++s) {
      World& world = *worlds_[s];
      const std::string& name = world.station->name();
      world.trace_names = StationTraceNames{name};
      for (const auto& probe : world.probes) {
        world.trace_names.conductivity.push_back(
            probe_series_name(name, probe->id()) + ".conductivity");
      }
      sample_trace(s);
    }
  }

  sharded_->set_barrier_hook(
      [this](sim::SimTime barrier) { drain(barrier); });
}

void ShardedFleet::run_days(double days) {
  sharded_->run_until(sharded_->now() + sim::days(days));
}

Station* ShardedFleet::find_station(const std::string& name) {
  for (auto& world : worlds_) {
    if (world->station->name() == name) return world->station.get();
  }
  return nullptr;
}

int ShardedFleet::probes_alive() const {
  int alive = 0;
  for (const auto& world : worlds_) {
    for (const auto& probe : world->probes) {
      if (probe->alive()) ++alive;
    }
  }
  return alive;
}

std::size_t ShardedFleet::index_of(const std::string& station_name) const {
  for (std::size_t s = 0; s < worlds_.size(); ++s) {
    if (worlds_[s]->station->name() == station_name) return s;
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
    std::optional<core::PowerState> override_state) {
  for (auto& world : worlds_) {
    world->server->sync().set_manual_override(override_state);
  }
  hub_.sync().set_manual_override(override_state);
}

void ShardedFleet::set_group_override(
    const std::string& group, std::optional<core::PowerState> override_state) {
  for (auto& world : worlds_) {
    world->server->sync().set_group_override(group, override_state);
  }
  hub_.sync().set_group_override(group, override_state);
}

std::vector<Fleet::GroupStatus> ShardedFleet::group_status() const {
  std::vector<Fleet::GroupStatus> all;
  all.reserve(groups_.size());
  for (const auto& [name, members] : groups_) {
    Fleet::GroupStatus status;
    status.name = name;
    status.converged = true;
    for (const std::size_t member : members) {
      const core::PowerState state = worlds_[member]->station->current_state();
      if (status.members == 0) {
        status.state = state;
      } else if (state != status.state) {
        status.converged = false;
      }
      ++status.members;
    }
    all.push_back(std::move(status));
  }
  return all;
}

obs::MetricsRegistry& ShardedFleet::update_rollup() {
  int up = 0;
  double yield_bytes = 0.0;
  for (const auto& world : worlds_) {
    if (world->station->current_state() != core::PowerState::kState0) ++up;
    yield_bytes +=
        double(hub_.bytes_from(world->station->name()).count());
  }
  const auto groups = group_status();
  int converged = 0;
  const std::int64_t now_ms = sharded_->now().millis_since_epoch();
  for (const auto& group : groups) {
    if (group.converged) ++converged;
    const auto last = last_converged_.find(group.name);
    if (last == last_converged_.end() || last->second != group.converged) {
      rollup_journal_.record(
          now_ms,
          group.converged ? obs::EventType::kGroupConverged
                          : obs::EventType::kGroupDiverged,
          group.name, double(group.members),
          group.converged ? double(core::to_int(group.state)) : 0.0);
      last_converged_[group.name] = group.converged;
    }
  }
  rollup_.gauge("fleet", "stations_total").set(double(worlds_.size()));
  rollup_.gauge("fleet", "stations_up").set(double(up));
  rollup_.gauge("fleet", "groups_total").set(double(groups.size()));
  rollup_.gauge("fleet", "groups_converged").set(double(converged));
  rollup_.gauge("fleet", "yield_bytes").set(yield_bytes);
  rollup_.gauge("fleet", "probes_alive").set(double(probes_alive()));
  return rollup_;
}

std::vector<obs::MergedEvent> ShardedFleet::merged_journal() const {
  std::vector<std::pair<std::string, const obs::EventJournal*>> journals;
  journals.reserve(worlds_.size() * 2);
  for (const auto& world : worlds_) {
    journals.emplace_back(world->station->name(),
                          &world->station->journal());
    journals.emplace_back(world->station->name() + "/fault",
                          &world->fault_journal);
  }
  return obs::merge_journals(journals);
}

std::vector<std::string> ShardedFleet::merged_trace_series_names() const {
  std::vector<std::string> names;
  for (const auto& world : worlds_) {
    for (const auto& name : world->trace.series_names()) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string ShardedFleet::probe_series_name(const std::string& station_name,
                                            int probe_id) const {
  const std::string bare = "probe" + std::to_string(probe_id);
  return config_.fleet.station_scoped_probe_names ? station_name + "/" + bare
                                                  : bare;
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
                       report.reported_at + config_.latency, report.station,
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
      sharded_->post_apply(file.received_at + config_.latency, file.station,
                           [this, file](sim::SimTime) {
                             hub_.receive_file(file.station, file.name,
                                               file.size, file.received_at);
                           });
    }
    for (auto& beacon : world.server->drain_beacons()) {
      sharded_->post_apply(beacon.at + config_.latency,
                           world.station->name(),
                           [this, beacon](sim::SimTime) {
                             hub_.receive_beacon(beacon.station, beacon.beacon,
                                                 beacon.at);
                           });
    }
    for (auto& result : world.server->drain_special_results()) {
      sharded_->post_apply(result.executed_at + config_.latency,
                           world.station->name(),
                           [this, result](sim::SimTime) {
                             hub_.record_special_result(result);
                           });
    }
  }
}

void ShardedFleet::sample_trace(std::size_t index) {
  World& world = *worlds_[index];
  sim::Simulation& shard = sharded_->shard(world.shard);
  const sim::SimTime now = shard.now();
  const StationTraceNames& names = world.trace_names;
  world.trace.add(names.voltage, now,
                  world.station->power().terminal_voltage().value());
  world.trace.add(names.state, now,
                  double(core::to_int(world.station->current_state())));
  world.trace.add(names.soc, now, world.station->power().battery().soc());
  for (std::size_t p = 0; p < world.probes.size(); ++p) {
    const ProbeNode& probe = *world.probes[p];
    if (!probe.alive()) continue;
    const auto conductivity = world.environment->melt().conductivity(
        now, world.environment->temperature(),
        probe.config().conductivity_base_us,
        probe.config().conductivity_gain_us);
    world.trace.add(names.conductivity[p], now, conductivity.value());
  }
  shard.schedule_in(config_.fleet.trace_interval,
                    [this, index] { sample_trace(index); });
}

}  // namespace gw::station
