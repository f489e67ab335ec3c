#include "env/snow.h"

#include <algorithm>

#include "env/environment.h"

namespace gw::env {

util::Metres SnowModel::depth(sim::SimTime t) const {
  return util::Metres{environment_.weather(t).snow_depth_m};
}

double SnowModel::panel_occlusion(sim::SimTime t) const {
  return std::clamp(environment_.weather(t).snow_depth_m / kPanelBurialDepthM,
                    0.0, 1.0);
}

bool SnowModel::turbine_buried(sim::SimTime t) const {
  return environment_.weather(t).snow_depth_m >= kTurbineBurialDepthM;
}

bool SnowModel::storm_today(sim::SimTime t) const {
  return environment_.weather(t).storm;
}

}  // namespace gw::env
