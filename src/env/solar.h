// Solar irradiance at the deployment site.
//
// Vatnajökull sits at ~64°N: near-total darkness around the winter solstice
// and ~20 h days in June. The model computes solar elevation from the
// standard declination/hour-angle formulas, converts to clear-sky
// irradiance, and multiplies by a slowly-varying stochastic cloud factor,
// the weather tape's (env/environment.h), one value a day. This is what
// makes winter the hard season the paper designs for: the solar panel
// contributes essentially nothing from November to February.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "sim/time.h"
#include "util/units.h"

namespace gw::env {

class Environment;

struct SolarConfig {
  double cloud_stddev = 0.18;
};

class SolarModel {
 public:
  static constexpr double kLatitudeDeg = 64.3;  // Vatnajökull ice cap
  // W/m^2 at solar elevation 90 deg.
  static constexpr double kClearSkyPeak = 990;
  // Long-run mean transmission factor of the cloud walk.
  static constexpr double kCloudMean = 0.55;
  // AR(1) day-to-day correlation of the cloud walk.
  static constexpr double kCloudPersistence = 0.85;

  explicit SolarModel(const Environment& environment);

  // Sine of solar elevation (may be negative: sun below horizon).
  [[nodiscard]] double sin_elevation(sim::SimTime t) const;

  // Irradiance on a horizontal surface, including cloud attenuation.
  [[nodiscard]] util::WattsPerSquareMetre irradiance(sim::SimTime t) const;

  // Daylight length in hours for the day containing t (cloud-independent).
  [[nodiscard]] double daylight_hours(sim::SimTime t) const;

  // cos of the solar hour angle `time_of_day` (in [0, 24 h)) past
  // midnight; on the minute, read from a table (env/minute_table.h).
  [[nodiscard]] static double cos_hour_angle(sim::Duration time_of_day);

 private:
  // Memoized per-day geometry: declination and daylight length depend only
  // on (latitude, day), yet the charger integrates irradiance every
  // simulated minute — recomputing sin/cos/tan of the declination per call
  // was pure waste. A single-entry cache keyed by sim::day_index fits the
  // access pattern (simulated time moves through one day at a time), costs
  // no calendar lookup on a hit and nothing to construct — trials that
  // never read the sun pay nothing. The cached factors are computed with
  // exactly the expressions the per-call formulas used, so results are
  // bit-identical.
  struct DayGeometry {
    double sin_decl = 0.0;
    double cos_decl = 0.0;
    double daylight_hours = 0.0;
  };

  const DayGeometry& geometry_for(sim::SimTime t) const;

  const Environment& environment_;
  // Derived from the latitude at construction.
  double sin_lat_ = 0.0;
  double cos_lat_ = 0.0;
  double lat_rad_ = 0.0;
  mutable std::int64_t cached_day_ = std::numeric_limits<std::int64_t>::min();
  mutable DayGeometry cached_;
  // The last instant answered by irradiance() and its answer, night zeros
  // included: every station of a fleet asks about the same minute.
  mutable std::optional<sim::SimTime> last_at_;
  mutable double last_w_ = 0.0;
};

}  // namespace gw::env
