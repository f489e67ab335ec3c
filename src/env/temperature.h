// Air and enclosure temperature.
//
// Temperature matters twice: lead-acid capacity derates in the cold, and
// the Gumsense board reports internal temperature as one of its telemetry
// streams (§II). Seasonal sinusoid + diurnal swing + persistent noise; the
// noise is the weather tape's (env/environment.h), one value a day.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "sim/time.h"
#include "util/units.h"

namespace gw::env {

class Environment;

struct TemperatureConfig {
  double noise_stddev_c = 2.0;
};

class TemperatureModel {
 public:
  // Calibrated to the paper's phenology: afternoon maxima first cross 0°C
  // in early April (Fig 6's melt onset reaching the bed by late April), deep
  // winter stays well below freezing, and July afternoons reach ~+13°C.
  static constexpr double kAnnualMeanC = -1.0;  // glacier-margin annual mean
  static constexpr double kSeasonalAmplitudeC = 10.0;
  static constexpr double kDiurnalAmplitudeC = 4.0;
  static constexpr double kNoisePersistence = 0.9;

  explicit TemperatureModel(const Environment& environment)
      : environment_(environment) {}

  [[nodiscard]] util::Celsius air(sim::SimTime t) const;

  // Enclosure runs slightly warmer than ambient (electronics + insulation).
  [[nodiscard]] util::Celsius enclosure(sim::SimTime t) const {
    return air(t) + util::Celsius{3.0};
  }

  // The noise-free terms of air(t), which the weather tape also sums when
  // it integrates snow and melt.
  [[nodiscard]] static double seasonal_c(sim::SimTime t);
  [[nodiscard]] static double diurnal_c(sim::SimTime t);
  // cos of the diurnal phase `time_of_day` (in [0, 24 h)) past midnight,
  // the factor diurnal_c scales by the amplitude; on the minute, read from
  // a table (env/minute_table.h).
  [[nodiscard]] static double diurnal_cos(sim::Duration time_of_day);

 private:
  const Environment& environment_;
  // Seasonal term of day `seasonal_day_` (sim::day_index), computed once a
  // day instead of every minute.
  mutable std::int64_t seasonal_day_ = std::numeric_limits<std::int64_t>::min();
  mutable double seasonal_c_ = 0.0;
  // The last instant answered and its answer: every station of a fleet
  // asks about the same minute.
  mutable std::optional<sim::SimTime> last_at_;
  mutable double last_c_ = 0.0;
};

}  // namespace gw::env
