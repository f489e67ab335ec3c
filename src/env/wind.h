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
  double gust_stddev = 0.25;     // relative intra-day modulation
};

class WindModel {
 public:
  static constexpr double kWeibullShape = 2.0;
  // m/s annual mean of the Weibull scale.
  static constexpr double kScaleMean = 6.5;
  static constexpr double kScaleWinterBoost = 2.5;  // added around mid-winter
  static constexpr double kGustPersistence = 0.7;

  explicit WindModel(const Environment& environment)
      : environment_(environment) {}

  [[nodiscard]] util::MetresPerSecond speed(sim::SimTime t) const;

 private:
  const Environment& environment_;
};

}  // namespace gw::env
