// The I2C channel between the Gumstix and the MSP430 (Fig 2).
//
// Fig 2 shows the two processors joined by I2C, with the MSP430 owning the
// RTC, the sample store, the power switches and the wake schedule. The
// daily run crosses it once, to drain the voltage-sample ring (the daily
// average input), and that exchange carries the link's *framing and
// failure* semantics: an inter-chip link on a freezing, condensation-prone
// board is not assumed clean (§II's hardware-debugging acknowledgement was
// earned), so a NAKed transaction is retried. The transfer is tiny (tens
// of bytes at 100 kHz) — negligible next to everything else the window
// does, so the bus does not charge simulated time.
#pragma once

#include <vector>

#include "hw/msp430.h"
#include "util/result.h"
#include "util/rng.h"

namespace gw::hw {

struct GumsenseBusConfig {
  // Probability a transaction is NAKed and must be retried (cold solder,
  // condensation — rare but nonzero on a field board).
  double nak_probability = 0.0;
};

// The Gumstix-side master. Wraps every exchange in checksummed framing and
// retries NAKs; a persistent failure surfaces as an error the daily run
// logs (and survives — the §III safety stance: degraded, never wedged).
class GumsenseBus {
 public:
  static constexpr int kMaxRetries = 3;

  GumsenseBus(Msp430& msp, util::Rng rng, GumsenseBusConfig config = {})
      : msp_(msp), config_(config), rng_(rng) {}

  // Drains the MSP430 sample ring over the bus.
  [[nodiscard]] util::Result<std::vector<VoltageSample>> read_samples() {
    if (!transact()) return util::make_error("i2c: read_samples NAK");
    return msp_.drain_samples();
  }

  [[nodiscard]] int naks() const { return naks_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(transactions_);
    ar.value(naks_);
  }

 private:
  // One framed transaction with retry-on-NAK.
  bool transact() {
    for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
      ++transactions_;
      if (!rng_.bernoulli(config_.nak_probability)) return true;
      ++naks_;
    }
    return false;
  }

  Msp430& msp_;
  GumsenseBusConfig config_;
  util::Rng rng_;
  int transactions_ = 0;
  int naks_ = 0;
};

}  // namespace gw::hw
