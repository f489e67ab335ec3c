// Basal melt-water model.
//
// Two of the paper's observations hang off how much melt water reaches the
// glacier bed:
//   * Fig 6 — subglacial probe conductivity is flat through winter and
//     rises sharply when spring melt reaches the bed;
//   * §III/§V — probe radio works *better* in winter "due to the drier ice
//     conditions"; in summer 3000 readings commonly lost ~400 packets.
// The weather tape (env/environment.h) integrates positive degree-days
// (with decay) into a water index in [0, 1]; conductivity and probe-link
// loss are both functions of it.
#pragma once

#include "sim/time.h"
#include "util/units.h"

namespace gw::env {

class Environment;

struct MeltConfig {
  // Seasonal probe radio loss endpoints (calibrated to §V: ~400/3000 lost in
  // summer; winter "better").
  double winter_packet_loss = 0.02;
  double summer_packet_loss = 0.133;
};

class MeltModel {
 public:
  // Index gain per positive degree-day.
  static constexpr double kDegreeDayGain = 0.035;
  // Drainage when input stops.
  static constexpr double kDecayPerDay = 0.04;
  // Residual basal water in deep winter.
  static constexpr double kWinterFloor = 0.03;

  explicit MeltModel(const Environment& environment)
      : environment_(environment) {}

  // Basal water index in [0, 1] of the day containing t.
  [[nodiscard]] double water_index(sim::SimTime t) const;

  // Electrical conductivity seen by a probe. Probes differ in where they
  // sit relative to drainage channels, expressed as (base, gain) pairs.
  // `noise_z` is a standard-normal draw from the caller's own stream,
  // scaled here by the melt-dependent spread.
  [[nodiscard]] util::MicroSiemens conductivity(sim::SimTime t,
                                                double probe_base_us,
                                                double probe_gain_us,
                                                double noise_z) const;

  // Packet-loss probability for the base-station <-> probe radio link.
  [[nodiscard]] double probe_link_loss(sim::SimTime t) const;

 private:
  const Environment& environment_;
};

}  // namespace gw::env
