// Internal assembly helpers shared by the serial Fleet and the
// ShardedFleet: the station-name check, the per-probe variant table (Fig
// 6's distinct conductivity curves) and the charger factory. Both
// assemblies must accept the same specs and install identical hardware
// for them, so the tables live in one place.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "power/chargers.h"
#include "station/fleet.h"

namespace gw::station::assembly {

// A station's name keys its rng stream, its server ledgers, find_station()
// and its snapshot section, so two specs may not share one. `owner`
// ("Fleet" or "ShardedFleet") prefixes the error.
inline void require_unique_station_names(const FleetConfig& config,
                                         const std::string& owner) {
  std::set<std::string> seen;
  for (const StationSpec& spec : config.stations) {
    if (!seen.insert(spec.station.name).second) {
      throw std::invalid_argument(owner + ": duplicate station name " +
                                  spec.station.name);
    }
  }
}

// Per-probe spread: Fig 6 shows distinct conductivity curves for probes
// 21/24/25 — different positions relative to basal drainage give different
// baselines and melt responses; radio quality varies with depth/orientation.
// Fleets cycle the same seven variants per station.
struct ProbeVariant {
  double base_us;
  double gain_us;
  double link_quality;
};

inline constexpr ProbeVariant kProbeVariants[] = {
    {0.5, 9.0, 1.0},  {0.8, 13.5, 1.1}, {0.3, 7.0, 0.9}, {1.2, 15.0, 1.3},
    {0.6, 11.0, 1.0}, {0.9, 8.5, 1.2},  {0.4, 12.0, 0.8},
};

inline const ProbeVariant& probe_variant(int probe_index) {
  return kProbeVariants[std::size_t(probe_index) %
                        std::size(kProbeVariants)];
}

inline std::unique_ptr<power::Charger> make_charger(ChargerKind kind) {
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

}  // namespace gw::station::assembly
