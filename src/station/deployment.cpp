#include "station/deployment.h"

namespace gw::station {

FleetConfig DeploymentConfig::to_fleet_config() const {
  FleetConfig fleet;
  fleet.seed = seed;
  fleet.start = start;
  fleet.environment = environment;
  fleet.trace_enabled = trace_enabled;
  fleet.trace_interval = trace_interval;
  fleet.fault_spec = fault_spec;
  // Bare probe<id> names and an uncapped receipt ledger keep every
  // pre-fleet export byte-identical.
  fleet.station_scoped_probe_names = false;
  fleet.server_received_window = 0;

  // §III: base station harvest = 10 W solar + 50 W wind turbine; reference
  // station = solar panel + café mains (tourist season). The two stations
  // are one dGPS pair, so they share a sync group.
  StationSpec base_spec;
  base_spec.station = base;
  base_spec.sync_group = "dgps";
  base_spec.chargers = {ChargerKind::kSolar, ChargerKind::kWind};
  base_spec.probe_count = probe_count;

  StationSpec reference_spec;
  reference_spec.station = reference;
  reference_spec.sync_group = "dgps";
  reference_spec.chargers = {ChargerKind::kSolar, ChargerKind::kMains};

  fleet.stations = {std::move(base_spec), std::move(reference_spec)};
  return fleet;
}

}  // namespace gw::station
