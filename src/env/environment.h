// Environment facade: the weather and glacier models of one world, every
// answer a read-only function of the seed, the config, the world's first
// day (the origin) and the time asked about. The random weather lives on a
// tape of DayWeather records, filled in day order from the origin the first
// time a day is asked for, each day's draws keyed by (seed, day); the
// models add the deterministic parts. Asking never changes an answer, so an
// observer cannot perturb the world, every kernel computes the same weather
// and snapshots save none of it. Per-call draws (a probe's reading noise, a
// link's drop-out) belong to the caller's stream. The tape and the memos
// are mutable caches: one Environment per kernel, never shared by threads.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "env/gps_sky.h"
#include "env/interference.h"
#include "env/melt.h"
#include "env/snow.h"
#include "env/solar.h"
#include "env/temperature.h"
#include "env/wind.h"
#include "sim/time.h"

namespace gw::env {

struct EnvironmentConfig {
  SolarConfig solar;
  WindConfig wind;
  TemperatureConfig temperature;
  SnowConfig snow;
  MeltConfig melt;
  RadioSite radio_site = RadioSite::kGlacier;
  GpsSkyConfig gps_sky;
};

// One day of the random weather.
struct DayWeather {
  double temperature_noise_c = 0.0;  // AR(1) term of the air temperature
  double cloud = 0.0;                // transmission factor in [0.08, 1]
  double wind_mean = 0.0;            // m/s, the day's Weibull draw
  double snow_depth_m = 0.0;         // the pack after the day's update
  bool storm = false;
  double melt_index = 0.0;           // basal water index in [0, 1]
  std::array<double, 24> gust{};     // relative wind modulation, per hour
};

class Environment {
 public:
  // Anchors the weather at `origin`'s day (a world's start); without one,
  // at the first day asked about.
  Environment(EnvironmentConfig config, std::uint64_t seed,
              std::optional<sim::SimTime> origin = std::nullopt);

  explicit Environment(std::uint64_t seed)
      : Environment(EnvironmentConfig{}, seed) {}

  // The models hold references to this object.
  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  [[nodiscard]] const SolarModel& solar() const { return solar_; }
  [[nodiscard]] const WindModel& wind() const { return wind_; }
  [[nodiscard]] const TemperatureModel& temperature() const {
    return temperature_;
  }
  [[nodiscard]] const SnowModel& snow() const { return snow_; }
  [[nodiscard]] const MeltModel& melt() const { return melt_; }
  [[nodiscard]] const InterferenceModel& interference() const {
    return interference_;
  }
  [[nodiscard]] const GpsSky& gps_sky() const { return gps_sky_; }

  [[nodiscard]] const EnvironmentConfig& config() const { return config_; }

  // The tape's record of day `index` (sim::day_index), extending the tape
  // to it; the reference lasts until a later day is first asked for.
  // Throws std::out_of_range for a day before the origin.
  [[nodiscard]] const DayWeather& weather(std::int64_t index) const {
    // Unsigned: a day before the origin wraps past the end too, and takes
    // the slow path that throws.
    const std::uint64_t offset =
        std::uint64_t(index) - std::uint64_t(origin_);
    if (offset < tape_.size()) return tape_[offset];
    return extend_tape(index);
  }
  [[nodiscard]] const DayWeather& weather(sim::SimTime t) const {
    return weather(sim::day_index(t));
  }

 private:
  const DayWeather& extend_tape(std::int64_t index) const;
  void append_day() const;

  EnvironmentConfig config_;
  std::uint64_t weather_seed_;
  mutable bool anchored_;
  mutable std::int64_t origin_;  // meaningful once anchored_
  mutable std::vector<DayWeather> tape_;
  SolarModel solar_;
  WindModel wind_;
  TemperatureModel temperature_;
  SnowModel snow_;
  MeltModel melt_;
  InterferenceModel interference_;
  GpsSky gps_sky_;
};

}  // namespace gw::env
