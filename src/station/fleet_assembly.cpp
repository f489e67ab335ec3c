#include "station/fleet_assembly.h"

#include <set>
#include <stdexcept>
#include <utility>

#include "power/chargers.h"

namespace gw::station {

namespace {

// Per-probe spread: Fig 6 shows distinct conductivity curves for probes
// 21/24/25 — different positions relative to basal drainage give different
// baselines and melt responses; radio quality varies with depth/orientation.
// Fleets cycle the same seven variants per station.
struct ProbeVariant {
  double base_us;
  double gain_us;
  double link_quality;
};

constexpr ProbeVariant kProbeVariants[] = {
    {0.5, 9.0, 1.0},  {0.8, 13.5, 1.1}, {0.3, 7.0, 0.9}, {1.2, 15.0, 1.3},
    {0.6, 11.0, 1.0}, {0.9, 8.5, 1.2},  {0.4, 12.0, 0.8},
};

std::unique_ptr<power::Charger> make_charger(ChargerKind kind) {
  switch (kind) {
    case ChargerKind::kSolar:
      return std::make_unique<power::SolarPanel>(power::SolarPanelConfig{});
    case ChargerKind::kWind:
      return std::make_unique<power::WindTurbine>(power::WindTurbineConfig{});
    case ChargerKind::kMains:
      return std::make_unique<power::MainsCharger>(
          power::MainsChargerConfig{});
  }
  throw std::invalid_argument("Fleet: unknown charger kind");
}

}  // namespace

FleetAssembly::FleetAssembly(FleetConfig config, const std::string& owner)
    : config_(std::move(config)) {
  // A station's name keys its rng stream, its server ledgers,
  // find_station() and its snapshot section, so two specs may not share
  // one. It also rides every control-plane wire as a form value, which
  // cannot carry the codec's '=', '&' or '#'.
  std::set<std::string> seen;
  for (const StationSpec& spec : config_.stations) {
    if (!seen.insert(spec.station.name).second) {
      throw std::invalid_argument(owner + ": duplicate station name " +
                                  spec.station.name);
    }
    if (spec.station.name.find_first_of("=&#") != std::string::npos) {
      throw std::invalid_argument(owner + ": station name " +
                                  spec.station.name +
                                  " contains '=', '&' or '#'");
    }
  }
  if (config_.trace_enabled && config_.trace_interval <= sim::Duration{0}) {
    throw std::invalid_argument(owner +
                                ": trace_interval must be positive");
  }
  if (!config_.fault_spec.empty()) {
    auto plan = fault::FaultPlan::parse(config_.fault_spec);
    if (!plan.ok()) {
      throw std::invalid_argument(owner + ": " + plan.error().message);
    }
    fault_plan_ = std::move(plan.value());
  }
  server_.set_received_window(config_.server_received_window);
  // Anomaly paths (ingest_rejected, future_report) journal into the rollup
  // sinks; an honest season under default limits records nothing here.
  server_.set_hooks(obs::Hooks{&rollup_, &rollup_journal_});
}

void FleetAssembly::build_station(std::size_t index, sim::Simulation& kernel,
                                  const env::Environment& environment,
                                  SouthamptonServer& server,
                                  fault::FaultOracle* oracle) {
  const StationSpec& spec = config_.stations[index];
  auto& built = stations_.emplace_back(std::make_unique<Station>(
      kernel, environment, server,
      util::Rng{config_.seed}.fork(spec.station.name), spec.station));
  if (oracle != nullptr) built->set_fault_oracle(oracle);
  for (const ChargerKind kind : spec.chargers) {
    built->add_charger(make_charger(kind));
  }
  if (!spec.sync_group.empty()) {
    server.sync().assign_group(spec.station.name, spec.sync_group);
  }
}

void FleetAssembly::finish_build() {
  // Probe ids start at 20 per station (the paper names probes 21/24/25).
  probes_.resize(stations_.size());
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    Station& built = *stations_[s];
    for (int i = 0; i < config_.stations[s].probe_count; ++i) {
      const ProbeVariant& variant =
          kProbeVariants[std::size_t(i) % std::size(kProbeVariants)];
      ProbeNodeConfig probe_config;
      probe_config.probe_id = 20 + i;
      probe_config.conductivity_base_us = variant.base_us;
      probe_config.conductivity_gain_us = variant.gain_us;
      probe_config.link_quality_factor = variant.link_quality;
      probes_[s].push_back(std::make_unique<ProbeNode>(
          built.simulation(), built.environment(),
          util::Rng{config_.seed}.fork(
              probe_series_name(built.name(), probe_config.probe_id)),
          probe_config));
      built.add_probe(*probes_[s].back());
    }
  }

  for (auto& built : stations_) built->start();
  if (config_.trace_enabled) station_series_.resize(stations_.size());
}

void FleetAssembly::declare_series(std::size_t index, sim::Trace& trace) {
  const std::string& name = stations_[index]->name();
  StationSeries& series = station_series_[index];
  series.voltage = trace.declare(name + ".voltage");
  series.state = trace.declare(name + ".state");
  series.soc = trace.declare(name + ".soc");
  const util::Rng noise{config_.seed};
  series.conductivity.reserve(probes_[index].size());
  series.conductivity_noise.reserve(probes_[index].size());
  for (const auto& probe : probes_[index]) {
    const std::string conductivity =
        probe_series_name(name, probe->id()) + ".conductivity";
    series.conductivity.push_back(trace.declare(conductivity));
    series.conductivity_noise.push_back(noise.fork(conductivity));
  }
}

void FleetAssembly::sample_stations(std::size_t first, std::size_t last,
                                    sim::Trace& trace) const {
  for (std::size_t s = first; s < last; ++s) {
    const Station& built = station(s);
    const StationSeries& series = station_series_[s];
    const sim::SimTime now = built.simulation().now();
    trace.add(series.voltage, now, built.power().terminal_voltage().value());
    trace.add(series.state, now,
              double(power::to_int(built.current_state())));
    trace.add(series.soc, now, built.power().battery().soc());
  }
  for (std::size_t s = first; s < last; ++s) {
    const Station& built = station(s);
    const StationSeries& series = station_series_[s];
    const env::MeltModel& melt = built.environment().melt();
    const sim::SimTime now = built.simulation().now();
    for (std::size_t p = 0; p < probes_[s].size(); ++p) {
      const ProbeNode& probe = *probes_[s][p];
      if (!probe.alive()) continue;
      const auto conductivity = melt.conductivity(
          now, probe.config().conductivity_base_us,
          probe.config().conductivity_gain_us,
          series.conductivity_noise[p]
              .fork(std::uint64_t(now.millis_since_epoch()))
              .normal());
      trace.add(series.conductivity[p], now, conductivity.value());
    }
  }
}

Station* FleetAssembly::find_station(const std::string& name) {
  for (auto& built : stations_) {
    if (built->name() == name) return built.get();
  }
  return nullptr;
}

int FleetAssembly::probes_alive() const {
  int alive = 0;
  for (const auto& station_probes : probes_) {
    for (const auto& probe : station_probes) {
      if (probe->alive()) ++alive;
    }
  }
  return alive;
}

std::string FleetAssembly::probe_series_name(const std::string& station,
                                             int probe_id) const {
  const std::string bare = "probe" + std::to_string(probe_id);
  return config_.station_scoped_probe_names ? station + "/" + bare : bare;
}

std::vector<FleetAssembly::GroupStatus> FleetAssembly::group_status() const {
  std::map<std::string, GroupStatus> by_group;
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    const std::string& group = config_.stations[s].sync_group;
    if (group.empty()) continue;
    const power::PowerState state = stations_[s]->current_state();
    GroupStatus& status = by_group[group];
    if (status.members == 0) {
      status.name = group;
      status.converged = true;
      status.state = state;
    } else if (state != status.state) {
      status.converged = false;
    }
    ++status.members;
  }
  std::vector<GroupStatus> all;
  all.reserve(by_group.size());
  for (auto& [name, status] : by_group) all.push_back(std::move(status));
  return all;
}

obs::MetricsRegistry& FleetAssembly::update_rollup() {
  int up = 0;
  double yield_bytes = 0.0;
  for (std::size_t s = 0; s < size(); ++s) {
    const Station& built = station(s);
    if (built.current_state() != power::PowerState::kState0) ++up;
    yield_bytes += double(server_.bytes_from(built.name()).count());
  }
  const auto groups = group_status();
  int converged = 0;
  // Flips are stamped with the fleet's time, which every station's kernel
  // reads between runs (the sharded kernel parks each shard at its last
  // barrier). No stations means no groups, so nothing to stamp.
  const std::int64_t now_ms =
      stations_.empty()
          ? 0
          : stations_.front()->simulation().now().millis_since_epoch();
  for (const auto& group : groups) {
    if (group.converged) ++converged;
    // Journal the flips, not the steady state: the rollup journal reads as
    // "when did pair g3 fall out of lockstep, when did it recover".
    const auto last = last_converged_.find(group.name);
    if (last == last_converged_.end() || last->second != group.converged) {
      rollup_journal_.record(
          now_ms,
          group.converged ? obs::EventType::kGroupConverged
                          : obs::EventType::kGroupDiverged,
          group.name, double(group.members),
          group.converged ? double(power::to_int(group.state)) : 0.0);
      last_converged_[group.name] = group.converged;
    }
  }
  rollup_.gauge("fleet", "stations_total").set(double(stations_.size()));
  rollup_.gauge("fleet", "stations_up").set(double(up));
  rollup_.gauge("fleet", "groups_total").set(double(groups.size()));
  rollup_.gauge("fleet", "groups_converged").set(double(converged));
  rollup_.gauge("fleet", "yield_bytes").set(yield_bytes);
  rollup_.gauge("fleet", "probes_alive").set(double(probes_alive()));
  return rollup_;
}

}  // namespace gw::station
