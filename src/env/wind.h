// Wind speed model.
//
// Wind is the base station's main winter energy source in Norway and an
// unreliable one in Iceland, where heavy snow can bury the turbine and the
// paper notes the expected snow "would even stop that source from being
// useful". Daily mean speeds are Weibull-distributed with a seasonal scale
// (stormier winters); within a day an AR(1) gust process modulates the mean.
// Both live on the weather tape (env/environment.h).
#pragma once

#include "sim/time.h"
#include "util/units.h"

namespace gw::env {

class Environment;

struct WindConfig {
  double weibull_shape = 2.0;
  double scale_mean = 6.5;       // m/s annual mean of the Weibull scale
  double scale_winter_boost = 2.5;  // added around mid-winter
  double gust_stddev = 0.25;     // relative intra-day modulation
  double gust_persistence = 0.7;
};

class WindModel {
 public:
  explicit WindModel(const Environment& environment)
      : environment_(environment) {}

  [[nodiscard]] util::MetresPerSecond speed(sim::SimTime t) const;

 private:
  const Environment& environment_;
};

}  // namespace gw::env
