// Snow accumulation and its operational consequences.
//
// Deep snow is a recurring antagonist in the paper: it buried and damaged
// the base station, ruled out a directional antenna on the café, and makes
// the wind turbine useless in an Icelandic winter. The weather tape
// (env/environment.h) integrates daily accumulation (when cold, with storm
// events) against temperature-driven melt; this model exposes the derived
// factors: how much of the solar panel is occluded, whether the turbine is
// buried, and a storm flag used by the damage fault models.
#pragma once

#include "sim/time.h"
#include "util/units.h"

namespace gw::env {

class Environment;

// Calibrated for Vatnajökull's heavy maritime snowfall (§II: snow "would
// even stop that [wind] source from being useful"; the base station was
// "damaged by deep snow"): several metres accumulate over winter, the panel
// goes dark mid-winter, the turbine is buried by early winter, and the pack
// melts out by early summer.
struct SnowConfig {
  double storm_probability_per_day = 0.10;  // in the accumulation season
  double storm_accumulation_m = 0.20;       // mean per storm event
  double background_accumulation_m = 0.012;  // per cold day
};

// The pack as the day containing t left it.
class SnowModel {
 public:
  static constexpr double kMeltRateMPerDegreeDay = 0.025;
  // The panel is fully occluded beyond this depth.
  static constexpr double kPanelBurialDepthM = 1.2;
  static constexpr double kTurbineBurialDepthM = 2.0;

  explicit SnowModel(const Environment& environment)
      : environment_(environment) {}

  [[nodiscard]] util::Metres depth(sim::SimTime t) const;

  // Fraction of solar panel output lost to snow cover, in [0, 1].
  [[nodiscard]] double panel_occlusion(sim::SimTime t) const;

  [[nodiscard]] bool turbine_buried(sim::SimTime t) const;

  // True on days with an active storm event (drives structural damage
  // faults in the station models).
  [[nodiscard]] bool storm_today(sim::SimTime t) const;

 private:
  const Environment& environment_;
};

}  // namespace gw::env
