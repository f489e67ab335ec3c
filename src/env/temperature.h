// Air and enclosure temperature.
//
// Temperature matters twice: lead-acid capacity derates in the cold, and
// the Gumsense board reports internal temperature as one of its telemetry
// streams (§II). Seasonal sinusoid + diurnal swing + persistent noise.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "sim/time.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::env {

// Calibrated to the paper's phenology: afternoon maxima first cross 0°C in
// early April (Fig 6's melt onset reaching the bed by late April), deep
// winter stays well below freezing, and July afternoons reach ~+13°C.
struct TemperatureConfig {
  double annual_mean_c = -1.0;     // glacier-margin annual mean
  double seasonal_amplitude_c = 10.0;
  double diurnal_amplitude_c = 4.0;
  double noise_stddev_c = 2.0;
  double noise_persistence = 0.9;
};

class TemperatureModel {
 public:
  TemperatureModel(TemperatureConfig config, util::Rng rng);

  [[nodiscard]] util::Celsius air(sim::SimTime t);

  // Enclosure runs slightly warmer than ambient (electronics + insulation).
  [[nodiscard]] util::Celsius enclosure(sim::SimTime t) {
    return air(t) + util::Celsius{3.0};
  }

  // Snapshot support (docs/SNAPSHOT.md): the noise walk and its RNG are
  // dynamics. The seasonal term and the last answer are derived caches and
  // never saved; load forgets the last answer, which belonged to the world
  // this model held before.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(day_);
    ar.value(noise_state_);
    if constexpr (!Archive::kIsSaver) last_at_.reset();
  }

 private:
  TemperatureConfig config_;
  util::Rng rng_;
  std::int64_t day_ = -1;
  double noise_state_ = 0.0;
  // Seasonal term of day `seasonal_day_` (sim::day_index): a pure function
  // of the day and the config, computed once instead of every minute.
  // gwlint: allow(persist-coverage): per-day cache, recomputed on first use
  std::int64_t seasonal_day_ = std::numeric_limits<std::int64_t>::min();
  // gwlint: allow(persist-coverage): per-day cache, recomputed on first use
  double seasonal_c_ = 0.0;
  // The last instant answered and its answer: every station of a fleet
  // asks about the same minute, and two consecutive queries for one
  // instant cannot cross the day boundary that moves the noise walk.
  // gwlint: allow(persist-coverage): per-instant memo, cleared on load
  std::optional<sim::SimTime> last_at_;
  // gwlint: allow(persist-coverage): per-instant memo, cleared on load
  double last_c_ = 0.0;
};

}  // namespace gw::env
