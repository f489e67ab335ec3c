// The paper's Iceland field system as a fleet preset.
//
// DeploymentConfig describes what the paper deployed in 2008: a glacier
// base station (solar + wind, 7 subglacial probes, dGPS, GPRS), a café
// reference station (solar + seasonal mains, fixed dGPS, GPRS), the
// Southampton server mediating them, and the shared environment — all
// reproducible from a single seed. to_fleet_config() maps it onto a
// two-StationSpec FleetConfig (both stations in sync group "dgps", bare
// probe<id> trace names); the benches and examples run
// `Fleet{config.to_fleet_config()}` for N days and read station(0) (base),
// station(1) (reference) and probes(0) off it. Exports are byte-identical
// to those of the pre-fleet hand-wired assembly.
#pragma once

#include <cstdint>
#include <string>

#include "station/fleet.h"

namespace gw::station {

struct DeploymentConfig {
  std::uint64_t seed = 42;
  // Probes went in during the summer 2008 field season (§V).
  sim::DateTime start{2008, 9, 1, 0, 0, 0};
  int probe_count = 7;
  env::EnvironmentConfig environment;
  StationConfig base;
  StationConfig reference;
  bool trace_enabled = true;
  sim::Duration trace_interval = sim::minutes(30);
  // Optional fault plan (docs/FAULTS.md spec text). When non-empty the
  // fleet parses it at construction, anchors it at `start`, and wires it
  // into both stations and the server. A parse error throws
  // std::invalid_argument: a scripted season that silently runs clean
  // would defeat the test.
  std::string fault_spec;

  DeploymentConfig() {
    base.name = "base";
    base.role = StationRole::kBaseStation;
    reference.name = "reference";
    reference.role = StationRole::kReferenceStation;
  }

  // The fleet this preset describes: base (solar + wind, the probes) and
  // reference (solar + mains) paired in sync group "dgps", bare probe
  // naming. Run it as Fleet{config.to_fleet_config()}.
  [[nodiscard]] FleetConfig to_fleet_config() const;
};

}  // namespace gw::station
