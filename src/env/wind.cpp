#include "env/wind.h"

#include <algorithm>

#include "env/environment.h"

namespace gw::env {

util::MetresPerSecond WindModel::speed(sim::SimTime t) const {
  const std::int64_t day = sim::day_index(t);
  const DayWeather& weather = environment_.weather(day);
  const auto hour =
      std::size_t((t.millis_since_epoch() - day * 86'400'000) / 3'600'000);
  return util::MetresPerSecond{
      weather.wind_mean * std::max(0.0, 1.0 + weather.gust[hour])};
}

}  // namespace gw::env
