#include "station/fleet.h"

#include <stdexcept>

#include "power/chargers.h"
#include "station/fleet_assembly.h"

namespace gw::station {

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)),
      simulation_(sim::to_time(config_.start)),
      environment_(config_.environment, config_.seed) {
  assembly::require_unique_station_names(config_, "Fleet");
  util::Rng rng{config_.seed};

  if (!config_.fault_spec.empty()) {
    auto plan = fault::FaultPlan::parse(config_.fault_spec);
    if (!plan.ok()) {
      throw std::invalid_argument("Fleet: " + plan.error().message);
    }
    fault_oracle_ = fault::FaultOracle{std::move(plan.value()),
                                      sim::to_time(config_.start)};
    fault_oracle_.set_hooks(obs::Hooks{&fault_metrics_, &fault_journal_});
    server_.set_fault_oracle(&fault_oracle_);
  }
  server_.set_received_window(config_.server_received_window);
  // Anomaly paths (ingest_rejected, future_report) journal into the rollup
  // sinks; an honest season under default limits records nothing here.
  server_.set_hooks(obs::Hooks{&rollup_, &rollup_journal_});

  // Pass 1: stations with their harvest mix, in spec order. Every station
  // forks its rng stream by name (order-insensitive), so the assembly
  // sequence itself never perturbs the draws.
  for (const StationSpec& spec : config_.stations) {
    auto& built = stations_.emplace_back(std::make_unique<Station>(
        simulation_, environment_, server_, rng.fork(spec.station.name),
        spec.station));
    if (!config_.fault_spec.empty()) built->set_fault_oracle(&fault_oracle_);
    for (const ChargerKind kind : spec.chargers) {
      built->add_charger(assembly::make_charger(kind));
    }
    if (!spec.sync_group.empty()) {
      server_.sync().assign_group(spec.station.name, spec.sync_group);
    }
  }

  // Pass 2: subglacial probes, attached to their serving station. Probe ids
  // start at 20 per station (the paper names probes 21/24/25); the rng /
  // trace namespace is station-scoped unless the legacy preset asked for
  // the bare two-station names.
  probes_.resize(stations_.size());
  for (std::size_t s = 0; s < config_.stations.size(); ++s) {
    const StationSpec& spec = config_.stations[s];
    for (int i = 0; i < spec.probe_count; ++i) {
      const auto& variant = assembly::probe_variant(i);
      ProbeNodeConfig probe_config;
      probe_config.probe_id = 20 + i;
      probe_config.conductivity_base_us = variant.base_us;
      probe_config.conductivity_gain_us = variant.gain_us;
      probe_config.link_quality_factor = variant.link_quality;
      probes_[s].push_back(std::make_unique<ProbeNode>(
          simulation_, environment_,
          rng.fork(
              probe_series_name(spec.station.name, probe_config.probe_id)),
          probe_config));
      stations_[s]->add_probe(*probes_[s].back());
    }
  }

  for (auto& built : stations_) built->start();

  if (config_.trace_enabled) {
    for (std::size_t s = 0; s < stations_.size(); ++s) {
      const std::string& name = stations_[s]->name();
      StationTraceNames& names = trace_names_.emplace_back(name);
      for (const auto& probe : probes_[s]) {
        names.conductivity.push_back(probe_series_name(name, probe->id()) +
                                     ".conductivity");
      }
    }
    sample_trace();
  }
}

void Fleet::run_days(double days) {
  simulation_.run_until(simulation_.now() + sim::days(days));
}

Station* Fleet::find_station(const std::string& name) {
  for (auto& built : stations_) {
    if (built->name() == name) return built.get();
  }
  return nullptr;
}

int Fleet::probes_alive() const {
  int alive = 0;
  for (const auto& station_probes : probes_) {
    for (const auto& probe : station_probes) {
      if (probe->alive()) ++alive;
    }
  }
  return alive;
}

std::string Fleet::probe_series_name(const std::string& station,
                                     int probe_id) const {
  const std::string bare = "probe" + std::to_string(probe_id);
  return config_.station_scoped_probe_names ? station + "/" + bare : bare;
}

std::vector<Fleet::GroupStatus> Fleet::group_status() const {
  std::map<std::string, GroupStatus> by_group;
  for (const auto& built : stations_) {
    const std::string group = server_.sync().group_of(built->name());
    if (group.empty()) continue;
    GroupStatus& status = by_group[group];
    if (status.members == 0) {
      status.name = group;
      status.converged = true;
      status.state = built->current_state();
    } else if (built->current_state() != status.state) {
      status.converged = false;
    }
    ++status.members;
  }
  std::vector<GroupStatus> all;
  all.reserve(by_group.size());
  for (auto& [name, status] : by_group) all.push_back(std::move(status));
  return all;
}

obs::MetricsRegistry& Fleet::update_rollup() {
  int up = 0;
  double yield_bytes = 0.0;
  for (const auto& built : stations_) {
    if (built->current_state() != core::PowerState::kState0) ++up;
    yield_bytes += double(server_.bytes_from(built->name()).count());
  }
  const auto groups = group_status();
  int converged = 0;
  const std::int64_t now_ms = simulation_.now().millis_since_epoch();
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
          group.converged ? double(core::to_int(group.state)) : 0.0);
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

void Fleet::sample_trace() {
  const sim::SimTime now = simulation_.now();
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    Station& built = *stations_[s];
    const StationTraceNames& names = trace_names_[s];
    trace_.add(names.voltage, now, built.power().terminal_voltage().value());
    trace_.add(names.state, now,
               double(core::to_int(built.current_state())));
    trace_.add(names.soc, now, built.power().battery().soc());
  }
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    for (std::size_t p = 0; p < probes_[s].size(); ++p) {
      const ProbeNode& probe = *probes_[s][p];
      if (!probe.alive()) continue;
      const auto conductivity = environment_.melt().conductivity(
          now, environment_.temperature(),
          probe.config().conductivity_base_us,
          probe.config().conductivity_gain_us);
      trace_.add(trace_names_[s].conductivity[p], now, conductivity.value());
    }
  }
  trace_event_ =
      simulation_.schedule_in(config_.trace_interval, [this] { sample_trace(); });
}

namespace {

// "s007", "g1234": a prefix and a number zero-padded to three digits.
std::string numbered_name(char prefix, int number) {
  std::string digits = std::to_string(number);
  if (digits.size() < 3) digits.insert(0, 3 - digits.size(), '0');
  return prefix + digits;
}

}  // namespace

FleetConfig uniform_fleet_config(int stations, std::uint64_t seed) {
  FleetConfig config;
  config.seed = seed;
  // Summer anchor (see the fault-soak harness): the glacier winter already
  // zeroes harvest for real; a scaling sweep wants the sync dynamics, not a
  // seasonal battery collapse.
  config.start = sim::DateTime{2008, 6, 1, 0, 0, 0};
  config.trace_enabled = false;
  config.server_received_window = 4096;
  config.stations.reserve(std::size_t(stations));
  for (int i = 0; i < stations; ++i) {
    const bool base_role = (i % 2 == 0);
    StationSpec spec;
    spec.station.name = numbered_name('s', i);
    spec.station.role = base_role ? StationRole::kBaseStation
                                  : StationRole::kReferenceStation;
    // Real fleets don't wake in perfect unison: stagger the daily windows
    // a few minutes apart (47 is coprime to 60, so offsets spread).
    spec.station.wake_time_of_day = sim::hours(12) + sim::minutes(i % 47);
    spec.station.initial_state = base_role ? core::PowerState::kState3
                                           : core::PowerState::kState2;
    spec.station.power.battery.initial_soc = base_role ? 1.0 : 0.7;
    spec.sync_group = numbered_name('g', i / 2);
    spec.chargers = base_role
                        ? std::vector<ChargerKind>{ChargerKind::kSolar,
                                                   ChargerKind::kWind}
                        : std::vector<ChargerKind>{ChargerKind::kSolar,
                                                   ChargerKind::kMains};
    spec.probe_count = base_role ? 2 : 0;
    config.stations.push_back(std::move(spec));
  }
  return config;
}

}  // namespace gw::station
