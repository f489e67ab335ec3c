// RS232 serial link: dGPS receiver -> Gumstix.
//
// §III counts "the amount of time taken to transfer the readings from the
// dGPS's internal compact flash card to the Gumstix" among the costs each
// reading incurs, and §VI identifies "an intermittent RS232 cable or dGPS
// unit" as the one plausible cause of the oversized-file livelock. The
// model: a sustained byte rate plus per-file handshake (calibrated so a
// nominal 165 KB file takes ~28 s — which makes a 2-hour window hold ~257
// files, the §VI backlog limits), and an optional per-transfer fault for
// the intermittent-cable injection experiments.
#pragma once

#include "sim/time.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::hw {

struct SerialLinkConfig {
  // Per-transfer failure probability (the §VI intermittent cable); the
  // deployed hardware "has never been encountered" failing, so 0 here.
  double fault_probability = 0.0;
};

class SerialLink {
 public:
  struct Outcome {
    bool success = false;
    sim::Duration elapsed{};
  };

  // ~64 kbps effective after framing: 165 KiB in ~26.4 s.
  static constexpr double kBytesPerSecond = 6400.0;
  static constexpr sim::Duration kHandshake = sim::milliseconds(1500);

  explicit SerialLink(util::Rng rng, SerialLinkConfig config = {})
      : config_(config), rng_(rng) {}

  [[nodiscard]] sim::Duration transfer_duration(util::Bytes size) const {
    return kHandshake + sim::seconds(double(size.count()) / kBytesPerSecond);
  }

  // One file transfer attempt. A fault aborts partway: the time is spent,
  // the file is not delivered and remains on the receiver.
  [[nodiscard]] Outcome attempt_transfer(util::Bytes size) {
    ++transfers_;
    const sim::Duration full = transfer_duration(size);
    if (rng_.bernoulli(config_.fault_probability)) {
      ++faults_;
      return Outcome{false,
                     kHandshake + sim::Duration{std::int64_t(
                                      double((full - kHandshake).millis()) *
                                      rng_.uniform())}};
    }
    return Outcome{true, full};
  }

  [[nodiscard]] int transfers() const { return transfers_; }
  [[nodiscard]] int faults() const { return faults_; }
  [[nodiscard]] const SerialLinkConfig& config() const { return config_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(transfers_);
    ar.value(faults_);
  }

 private:
  SerialLinkConfig config_;
  util::Rng rng_;
  int transfers_ = 0;
  int faults_ = 0;
};

}  // namespace gw::hw
