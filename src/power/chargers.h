// Energy harvesting sources.
//
// The base station carries a 10 W solar panel and a 50 W wind turbine; the
// reference station has a solar panel plus a mains charger that only works
// while the café has power (the tourist season, April–September) — the
// constraint that forced the self-contained Gumsense design in the first
// place (§II). Chargers expose their instantaneous output given the
// environment; PowerSystem integrates them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "env/environment.h"
#include "sim/time.h"
#include "util/units.h"

namespace gw::power {

class Charger {
 public:
  virtual ~Charger() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual util::Watts output(
      sim::SimTime t, const env::Environment& environment) = 0;
};

struct SolarPanelConfig {
  util::Watts rated{10.0};               // base-station panel (§III)
  double rated_irradiance = 1000.0;      // W/m^2 at which `rated` is reached
  double system_efficiency = 0.85;       // wiring + regulator losses
};

// Flat-plate panel; output scales with irradiance and is reduced by snow
// occlusion (deep snow buried the base station in the deployment).
class SolarPanel final : public Charger {
 public:
  explicit SolarPanel(SolarPanelConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "solar"; }

  [[nodiscard]] util::Watts output(
      sim::SimTime t, const env::Environment& environment) override {
    const double irradiance = environment.solar().irradiance(t).value();
    const double occlusion = environment.snow().panel_occlusion(t);
    const double fraction = irradiance / config_.rated_irradiance;
    return config_.rated * std::min(1.2, fraction) *
           config_.system_efficiency * (1.0 - occlusion);
  }

 private:
  SolarPanelConfig config_;
};

struct WindTurbineConfig {
  util::Watts rated{50.0};  // base-station turbine (§III)
  double cut_in_ms = 3.0;
  double rated_speed_ms = 12.0;
  double cut_out_ms = 25.0;
};

// Standard cubic power curve between cut-in and rated speed; zero above
// cut-out (furling) or when buried by snow — the Iceland winter failure
// mode the paper calls out.
class WindTurbine final : public Charger {
 public:
  explicit WindTurbine(WindTurbineConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "wind"; }

  [[nodiscard]] util::Watts output(
      sim::SimTime t, const env::Environment& environment) override {
    if (environment.snow().turbine_buried(t)) {
      return util::Watts{0.0};
    }
    const double v = environment.wind().speed(t).value();
    if (v < config_.cut_in_ms || v > config_.cut_out_ms) {
      return util::Watts{0.0};
    }
    if (v >= config_.rated_speed_ms) return config_.rated;
    const double span = config_.rated_speed_ms - config_.cut_in_ms;
    const double x = (v - config_.cut_in_ms) / span;
    return config_.rated * (x * x * x);
  }

 private:
  WindTurbineConfig config_;
};

struct MainsChargerConfig {
  int season_start_month = 4;  // April: café opens
  int season_end_month = 9;    // September: café closes
};

// Café mains input: full output inside the tourist season, nothing outside.
class MainsCharger final : public Charger {
 public:
  static constexpr util::Watts kRated{30.0};

  explicit MainsCharger(MainsChargerConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "mains"; }

  [[nodiscard]] bool in_season(sim::SimTime t) const {
    const std::int64_t day = sim::day_index(t);
    if (day != season_day_) {
      const int month = sim::to_datetime(t).month;
      season_day_ = day;
      in_season_ = month >= config_.season_start_month &&
                   month <= config_.season_end_month;
    }
    return in_season_;
  }

  [[nodiscard]] util::Watts output(sim::SimTime t,
                                   const env::Environment&) override {
    return in_season(t) ? kRated : util::Watts{0.0};
  }

 private:
  MainsChargerConfig config_;
  // The season flag of day `season_day_` (sim::day_index): the month only
  // changes at midnight, so one calendar lookup a day serves every minute.
  // Chargers are wiring, never saved; the flag is recomputed on first use.
  mutable std::int64_t season_day_ = std::numeric_limits<std::int64_t>::min();
  mutable bool in_season_ = false;
};

}  // namespace gw::power
