// PPP session over the long-range radio modem (Norway architecture).
//
// §II: with a battery-powered reference station "the ability to
// differentiate between reasons for disconnects becomes vital" — an
// interference drop means *stay powered and retry*; a completed transfer
// means *kill the radio now*. The session model surfaces exactly that
// distinction, plus the dial/negotiate latency and the time-of-day
// interference drops that made the link untrustworthy in the lab.
#pragma once

#include "hw/radio_modem.h"
#include "sim/time.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::proto {

enum class PppDisconnectReason {
  kCompleted,     // transfer finished; radio can power off immediately
  kInterference,  // carrier lost; stay powered, attempt reconnect
  kDialFailed,    // never negotiated
};

struct PppOutcome {
  bool connected = false;
  PppDisconnectReason reason = PppDisconnectReason::kDialFailed;
  sim::Duration elapsed{};
  util::Bytes transferred{0};
};

struct PppConfig {
  double dial_success = 0.85;  // lab experience: "very unreliable"
};

class PppLink {
 public:
  static constexpr sim::Duration kDialTime = sim::seconds(20);
  static constexpr int kMaxReconnectAttempts = 3;

  PppLink(hw::RadioModem& modem, util::Rng rng, PppConfig config = {})
      : modem_(modem), config_(config), rng_(rng) {}

  // Attempts to move `payload` across the link starting at `start`,
  // reconnecting after interference drops up to kMaxReconnectAttempts
  // dials. Requires the modem to be powered.
  [[nodiscard]] PppOutcome transfer(sim::SimTime start, util::Bytes payload) {
    PppOutcome outcome;
    if (!modem_.powered()) return outcome;
    sim::SimTime now = start;
    util::Bytes remaining = payload;

    for (int attempt = 0; attempt < kMaxReconnectAttempts; ++attempt) {
      // Dial + ppp negotiation.
      now += kDialTime;
      if (!rng_.bernoulli(config_.dial_success)) {
        ++dial_failures_;
        continue;
      }
      outcome.connected = true;

      // Push the payload minute by minute against the interference hazard.
      const double total_minutes =
          modem_.transfer_time(remaining).to_minutes();
      double survived = 0.0;
      bool dropped = false;
      while (survived < total_minutes) {
        const double step = std::min(1.0, total_minutes - survived);
        if (rng_.bernoulli(modem_.drop_probability_per_minute(
                now + sim::minutes(survived)))) {
          dropped = true;
          survived += step * rng_.uniform();
          break;
        }
        survived += step;
      }
      const double fraction =
          total_minutes == 0.0 ? 1.0 : survived / total_minutes;
      const auto moved = util::Bytes{std::int64_t(
          double(remaining.count()) * std::min(1.0, fraction))};
      remaining -= moved;
      outcome.transferred += moved;
      now += sim::minutes(survived);

      if (!dropped) {
        outcome.reason = PppDisconnectReason::kCompleted;
        outcome.elapsed = now - start;
        return outcome;
      }
      // Interference: remain powered and redial (§II's retry rule).
    }

    outcome.reason = outcome.connected ? PppDisconnectReason::kInterference
                                       : PppDisconnectReason::kDialFailed;
    outcome.elapsed = now - start;
    return outcome;
  }

  [[nodiscard]] int dial_failures() const { return dial_failures_; }

 private:
  hw::RadioModem& modem_;
  PppConfig config_;
  util::Rng rng_;
  int dial_failures_ = 0;
};

}  // namespace gw::proto
