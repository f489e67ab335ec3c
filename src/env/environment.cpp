#include "env/environment.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace gw::env {

namespace {

constexpr std::int64_t kDayMs = 86'400'000;

// The innovation spread of a stationary AR(1) walk with the given
// stationary spread and persistence.
double innovation_stddev(double stddev, double persistence) {
  return stddev * std::sqrt(1.0 - persistence * persistence);
}

}  // namespace

Environment::Environment(EnvironmentConfig config, std::uint64_t seed,
                         std::optional<sim::SimTime> origin)
    : config_(config),
      weather_seed_(util::Rng{seed}.fork("weather").seed()),
      anchored_(origin.has_value()),
      origin_(origin ? sim::day_index(*origin) : 0),
      solar_(*this),
      wind_(*this),
      temperature_(*this),
      snow_(*this),
      melt_(*this),
      interference_(config.radio_site),
      gps_sky_(config.gps_sky, util::Rng{seed}.fork("gps_sky").seed()) {}

const DayWeather& Environment::extend_tape(std::int64_t index) const {
  if (!anchored_) {
    anchored_ = true;
    origin_ = index;
  }
  if (index < origin_) {
    throw std::out_of_range("environment: day " + std::to_string(index) +
                            " is before the origin day " +
                            std::to_string(origin_));
  }
  const auto offset = std::size_t(index - origin_);
  while (tape_.size() <= offset) append_day();
  return tape_[offset];
}

void Environment::append_day() const {
  const TemperatureConfig& temperature = config_.temperature;
  const SolarConfig& solar = config_.solar;
  const WindConfig& wind = config_.wind;
  const SnowConfig& snow = config_.snow;
  const std::int64_t index = origin_ + std::int64_t(tape_.size());
  const sim::SimTime midnight{index * kDayMs};
  const int doy = sim::day_of_year(midnight);
  util::Rng draws = util::Rng{weather_seed_}.fork(std::uint64_t(index));

  // The walks start at the origin: zero noise and gust, mean cloud, bare
  // ground, and a basal water index that matches the season (the floor in
  // the cold half of the year, a wet bed in summer).
  DayWeather today;
  double previous_gust = 0.0;
  double previous_cloud = SolarModel::kCloudMean;
  if (tape_.empty()) {
    today.melt_index =
        (doy > 150 && doy < 270) ? 0.8 : MeltModel::kWinterFloor;
  } else {
    const DayWeather& yesterday = tape_.back();
    today.temperature_noise_c = yesterday.temperature_noise_c;
    previous_cloud = yesterday.cloud;
    previous_gust = yesterday.gust.back();
    today.snow_depth_m = yesterday.snow_depth_m;
    today.melt_index = yesterday.melt_index;
  }

  // Temperature noise: one AR(1) innovation a day.
  today.temperature_noise_c =
      TemperatureModel::kNoisePersistence * today.temperature_noise_c +
      draws.normal(0.0, innovation_stddev(temperature.noise_stddev_c,
                                          TemperatureModel::kNoisePersistence));

  // Cloud: an AR(1) walk around the mean, one draw a day, so weather
  // persists across the diurnal cycle as real fronts do.
  today.cloud = SolarModel::kCloudMean +
                SolarModel::kCloudPersistence *
                    (previous_cloud - SolarModel::kCloudMean) +
                draws.normal(0.0,
                             innovation_stddev(solar.cloud_stddev,
                                               SolarModel::kCloudPersistence));
  today.cloud = std::clamp(today.cloud, 0.08, 1.0);

  // Wind: a Weibull daily mean whose scale peaks mid-January (doy ~15),
  // modulated hour by hour by an AR(1) gust walk.
  const double seasonal_scale =
      WindModel::kScaleMean +
      WindModel::kScaleWinterBoost *
          std::cos(2.0 * std::numbers::pi * (doy - 15) / 365.0);
  today.wind_mean =
      draws.weibull(WindModel::kWeibullShape, std::max(0.5, seasonal_scale));
  const double gust_innovation =
      innovation_stddev(wind.gust_stddev, WindModel::kGustPersistence);
  for (double& gust : today.gust) {
    gust = WindModel::kGustPersistence * previous_gust +
           draws.normal(0.0, gust_innovation);
    previous_gust = gust;
  }

  // The air temperature the models answer for this day, noise included.
  const auto air_c = [&](sim::SimTime t) {
    return TemperatureModel::seasonal_c(t) + TemperatureModel::diurnal_c(t) +
           today.temperature_noise_c;
  };

  // Snow: accumulation on cold days, with storm events; degree-day melt on
  // warm ones, judged at noon.
  const double noon_c = air_c(midnight + sim::hours(12));
  if (noon_c < 0.5) {
    today.snow_depth_m += snow.background_accumulation_m;
    if (draws.bernoulli(snow.storm_probability_per_day)) {
      today.storm = true;
      today.snow_depth_m += draws.exponential(1.0 / snow.storm_accumulation_m);
    }
  } else {
    today.snow_depth_m -= SnowModel::kMeltRateMPerDegreeDay * noon_c;
  }
  today.snow_depth_m = std::max(0.0, today.snow_depth_m);

  // Melt: surface melt is driven by the afternoon maximum, not the daily
  // mean. Spring afternoons cross 0°C weeks before the mean does, which is
  // what puts the Fig 6 conductivity rise in April.
  const double afternoon_c = air_c(midnight + sim::hours(15));
  if (afternoon_c > 0.0) {
    today.melt_index += MeltModel::kDegreeDayGain * afternoon_c;
  }
  today.melt_index -= MeltModel::kDecayPerDay *
                      (today.melt_index - MeltModel::kWinterFloor);
  today.melt_index =
      std::clamp(today.melt_index, MeltModel::kWinterFloor, 1.0);

  tape_.push_back(today);
}

}  // namespace gw::env
