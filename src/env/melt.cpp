#include "env/melt.h"

#include <algorithm>

#include "env/environment.h"

namespace gw::env {

double MeltModel::water_index(sim::SimTime t) const {
  return environment_.weather(t).melt_index;
}

util::MicroSiemens MeltModel::conductivity(sim::SimTime t,
                                           double probe_base_us,
                                           double probe_gain_us,
                                           double noise_z) const {
  const double w = water_index(t);
  const double noise = (0.15 + 0.4 * w) * noise_z;
  return util::MicroSiemens{
      std::max(0.0, probe_base_us + probe_gain_us * w + noise)};
}

double MeltModel::probe_link_loss(sim::SimTime t) const {
  const MeltConfig& config = environment_.config().melt;
  const double w = water_index(t);
  return config.winter_packet_loss +
         (config.summer_packet_loss - config.winter_packet_loss) * w;
}

}  // namespace gw::env
