// Automatic schedule resetting after total power loss (§IV).
//
// External charging means a flat battery can come back — but it wakes with
// a RAM schedule gone and an RTC reading 01/01/1970. Detection: the station
// persists the last time it successfully ran (on the CF card, which is
// non-volatile); if the RTC now reads *before* that, the clock cannot be
// trusted. Repair: power the GPS and take a time fix; "if the system cannot
// set the time using GPS then the system will sleep for a day and try
// again." §IV also sketches the extension implemented here behind a flag:
// fall back to NTP over the GPRS link. Once the clock is right the station
// rewrites the wake schedule and restarts in state 0.
#pragma once

#include <functional>
#include <optional>

#include "fault/fault.h"
#include "hw/dgps.h"
#include "hw/gprs_modem.h"
#include "hw/msp430.h"
#include "obs/journal.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace gw::core {

struct RecoveryConfig {
  bool ntp_fallback = false;          // §IV future work, implemented
  double ntp_success = 0.85;          // NTP reachability once a session is up
};

enum class RecoveryOutcome {
  kClockTrusted,   // nothing to do
  kResyncedByGps,
  kResyncedByNtp,  // extension path
  kDeferred,       // no fix; sleeping a day before retrying
};

class RecoveryManager {
 public:
  static constexpr util::Bytes kNtpPayload{128};  // a few SNTP datagrams
  // "Sleep for a day" after a failed attempt.
  static constexpr sim::Duration kRetryInterval = sim::days(1);
  // rtc_drift fault windows degrade NTP discipline: the clock lands up to
  // this far off true time, scaled by the window severity.
  static constexpr sim::Duration kDriftSkew = sim::minutes(10);

  RecoveryManager(sim::Simulation& simulation, hw::Msp430& msp,
                  hw::DgpsReceiver& dgps, util::Rng rng,
                  RecoveryConfig config = {})
      : simulation_(simulation),
        msp_(msp),
        dgps_(dgps),
        config_(config),
        rng_(rng) {}

  // Persists "the last time that it successfully ran" — written to the CF
  // card at the end of each good daily run, so it survives brown-outs.
  // Stored as the RTC's reading, which is all the station has.
  void record_successful_run() { last_successful_run_ = msp_.rtc_now(); }

  // §IV detection: "checks that its current time is before the last time
  // the system ran; if that fails it knows that the RTC is not to be
  // trusted."
  [[nodiscard]] bool rtc_untrusted() const {
    return last_successful_run_.has_value() &&
           msp_.rtc_now() < *last_successful_run_;
  }

  // Optional instrumentation: attempt/resync/deferral counters under
  // "recovery", plus journal records for each trigger outcome.
  void set_hooks(obs::Hooks hooks) { hooks_ = hooks; }

  // The NTP fallback needs a real GPRS session (registration time, session
  // energy, per-MiB cost); without a modem attached the fallback is treated
  // as unavailable and the attempt defers. Null detaches.
  void attach_modem(hw::GprsModem* gprs) { gprs_ = gprs; }

  // Attaches scripted fault windows (rtc_drift degrades NTP discipline);
  // null detaches.
  void set_fault_oracle(fault::FaultOracle* oracle) { oracle_ = oracle; }

  // One recovery attempt (the cold-boot path). Consumes device time
  // directly via the dGPS fix-acquisition model; the caller runs it inside
  // a daily-run step. On kDeferred the caller sleeps kRetryInterval.
  RecoveryOutcome attempt() {
    ++attempts_;
    if (hooks_.metrics != nullptr) {
      hooks_.metrics->counter("recovery", "attempts").increment();
    }
    if (!rtc_untrusted()) return RecoveryOutcome::kClockTrusted;

    // GPS first (§IV): power it just for the fix.
    const bool was_powered = dgps_.powered();
    if (!was_powered) dgps_.power_on();
    const auto fix = dgps_.time_fix();
    if (!was_powered) dgps_.power_off();
    if (fix.ok()) {
      msp_.set_rtc(fix.value());
      ++gps_resyncs_;
      record_outcome(RecoveryOutcome::kResyncedByGps);
      return RecoveryOutcome::kResyncedByGps;
    }

    // Extension: NTP over GPRS (§IV "in the future this could also be
    // extended to fall back to getting the time using the GPRS link"). The
    // resync is *not* free: it rides a real modem session — registration
    // time, transfer time for a few SNTP datagrams, per-MiB data cost, and
    // session energy all land in the same ledgers a daily upload would hit.
    if (config_.ntp_fallback && gprs_ != nullptr) {
      const bool was_powered = gprs_->powered();
      if (!was_powered) gprs_->power_on();
      const hw::TransferOutcome session =
          gprs_->attempt_transfer(kNtpPayload);
      if (!was_powered) {
        // Keep the modem drawing power for exactly as long as the session
        // ran, then let it cut itself off — attempt() returns immediately
        // in sim time, so the energy is integrated by the scheduled hold.
        gprs_->hold_powered(session.elapsed);
      }
      if (session.success && rng_.bernoulli(config_.ntp_success)) {
        // NTP disciplines to within protocol error — unless an rtc_drift
        // window is active, in which case the clock lands severity-scaled
        // skew off true time (degraded discipline, §IV).
        sim::Duration skew{0};
        if (oracle_ != nullptr) {
          const double severity = oracle_->severity(
              fault::FaultKind::kRtcDrift, simulation_.now());
          if (severity > 0.0) {
            skew = sim::Duration{
                std::int64_t(double(kDriftSkew.millis()) * severity)};
            oracle_->record_trip(fault::FaultKind::kRtcDrift,
                                 simulation_.now());
          }
        }
        msp_.set_rtc(simulation_.now() + session.elapsed + skew);
        ++ntp_resyncs_;
        record_outcome(RecoveryOutcome::kResyncedByNtp);
        return RecoveryOutcome::kResyncedByNtp;
      }
    }

    ++deferrals_;
    record_outcome(RecoveryOutcome::kDeferred);
    return RecoveryOutcome::kDeferred;
  }

  [[nodiscard]] const RecoveryConfig& config() const { return config_; }
  [[nodiscard]] int attempts() const { return attempts_; }
  [[nodiscard]] int gps_resyncs() const { return gps_resyncs_; }
  [[nodiscard]] int ntp_resyncs() const { return ntp_resyncs_; }
  [[nodiscard]] int deferrals() const { return deferrals_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(last_successful_run_);
    ar.value(attempts_);
    ar.value(gps_resyncs_);
    ar.value(ntp_resyncs_);
    ar.value(deferrals_);
  }

 private:
  void record_outcome(RecoveryOutcome outcome) {
    const std::int64_t now_ms = simulation_.now().millis_since_epoch();
    switch (outcome) {
      case RecoveryOutcome::kResyncedByGps:
      case RecoveryOutcome::kResyncedByNtp:
        if (hooks_.metrics != nullptr) {
          hooks_.metrics->counter("recovery", "resyncs").increment();
        }
        if (hooks_.journal != nullptr) {
          hooks_.journal->record(
              now_ms, obs::EventType::kRecoveryResync, "recovery",
              outcome == RecoveryOutcome::kResyncedByNtp ? 1.0 : 0.0,
              double(attempts_));
        }
        break;
      case RecoveryOutcome::kDeferred:
        if (hooks_.metrics != nullptr) {
          hooks_.metrics->counter("recovery", "deferrals").increment();
        }
        if (hooks_.journal != nullptr) {
          hooks_.journal->record(now_ms, obs::EventType::kRecoveryDeferred,
                                 "recovery", double(attempts_));
        }
        break;
      case RecoveryOutcome::kClockTrusted:
        break;
    }
  }

  sim::Simulation& simulation_;
  hw::Msp430& msp_;
  hw::DgpsReceiver& dgps_;
  RecoveryConfig config_;
  util::Rng rng_;
  obs::Hooks hooks_;
  hw::GprsModem* gprs_ = nullptr;
  fault::FaultOracle* oracle_ = nullptr;
  std::optional<sim::SimTime> last_successful_run_;
  int attempts_ = 0;
  int gps_resyncs_ = 0;
  int ntp_resyncs_ = 0;
  int deferrals_ = 0;
};

}  // namespace gw::core
