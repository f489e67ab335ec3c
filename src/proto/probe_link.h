// Base-station <-> subglacial-probe radio link.
//
// Through-ice radio quality is seasonal: "radio communication with the
// probes is better in the winter due to the drier ice conditions" (§III);
// in summer, 3000 readings commonly lost ~400 packets across "the weakest
// link (due to summer water)" (§V). Packet-loss probability comes from the
// melt model; airtime from the link rate. Both transfer protocols (§V NACK
// and the stop-and-wait baseline) run over this.
#pragma once

#include <algorithm>

#include "env/melt.h"
#include "sim/time.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::proto {

struct ProbeLinkConfig {
  // Extra loss multiplier for a specific probe (antenna orientation, depth);
  // 1.0 = the environment's nominal loss.
  double link_quality_factor = 1.0;
};

class ProbeLink {
 public:
  // Through-ice low-rate radio.
  static constexpr util::BitsPerSecond kRate{2400.0};
  // The rx/tx switch.
  static constexpr sim::Duration kTurnaround = sim::milliseconds(40);

  ProbeLink(const env::MeltModel& melt, util::Rng rng,
            ProbeLinkConfig config = {})
      : melt_(melt), config_(config), rng_(rng) {}

  // Instantaneous per-packet loss probability.
  [[nodiscard]] double loss_probability(sim::SimTime t) const {
    return std::min(0.95,
                    melt_.probe_link_loss(t) * config_.link_quality_factor);
  }

  // Draws whether a single packet survives the trip at time t.
  [[nodiscard]] bool packet_survives(sim::SimTime t) {
    const bool survived = !rng_.bernoulli(loss_probability(t));
    ++packets_attempted_;
    if (!survived) ++packets_lost_;
    return survived;
  }

  // Airtime for one frame of the given wire size, including turnaround.
  [[nodiscard]] sim::Duration airtime(util::Bytes wire_size) const {
    return sim::seconds(util::transfer_seconds(wire_size, kRate)) +
           kTurnaround;
  }

  [[nodiscard]] std::uint64_t packets_attempted() const {
    return packets_attempted_;
  }
  [[nodiscard]] std::uint64_t packets_lost() const { return packets_lost_; }

  [[nodiscard]] const ProbeLinkConfig& config() const { return config_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(packets_attempted_);
    ar.value(packets_lost_);
  }

 private:
  const env::MeltModel& melt_;
  ProbeLinkConfig config_;
  util::Rng rng_;
  std::uint64_t packets_attempted_ = 0;
  std::uint64_t packets_lost_ = 0;
};

}  // namespace gw::proto
