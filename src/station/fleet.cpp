#include "station/fleet.h"

namespace gw::station {

Fleet::Fleet(FleetConfig config)
    : FleetAssembly(std::move(config), "Fleet"),
      simulation_(sim::to_time(config_.start)),
      environment_(config_.environment, config_.seed,
                   sim::to_time(config_.start)) {
  fault::FaultOracle* oracle = nullptr;
  if (fault_plan_.has_value()) {
    fault_oracle_ =
        fault::FaultOracle{*fault_plan_, sim::to_time(config_.start)};
    fault_oracle_.set_hooks(obs::Hooks{&fault_metrics_, &fault_journal_});
    server_.set_fault_oracle(&fault_oracle_);
    oracle = &fault_oracle_;
  }
  for (std::size_t s = 0; s < config_.stations.size(); ++s) {
    build_station(s, simulation_, environment_, server_, oracle);
  }
  finish_build();
  if (config_.trace_enabled) {
    for (std::size_t s = 0; s < size(); ++s) declare_series(s, trace_);
    sample_trace();
  }
}

void Fleet::run_days(double days) {
  simulation_.run_until(simulation_.now() + sim::days(days));
}

void Fleet::sample_trace() {
  sample_stations(0, size(), trace_);
  trace_event_ = simulation_.schedule_in(config_.trace_interval,
                                         [this] { sample_trace(); });
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
    spec.station.initial_state = base_role ? power::PowerState::kState3
                                           : power::PowerState::kState2;
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
