// GPRS modem.
//
// The device that won the architecture argument: 5000 bps at 2640 mW versus
// the radio modem's 2000 bps at 3960 mW (Table 1) — more than twice the
// energy efficiency per bit, plus it frees each station from relaying
// through the other (§II). Data is paid per megabyte, so the modem keeps a
// cost ledger too (§II: "the data sent over the GPRS link is paid for per
// megabyte").
//
// Transfers are drawn stochastically: registration can fail, and an
// established session can drop mid-transfer — the everyday failures (§I:
// "known to occur frequently, especially in the wetter summer") that the
// daily-retry design absorbs. A fault::FaultOracle can be attached to
// compose a scripted gprs_outage window with the base hazards (registration
// and per-minute drop), so a whole wet summer can be replayed from a plan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "energy/component_model.h"
#include "fault/fault.h"
#include "power/power_system.h"
#include "sim/simulation.h"
#include "snapshot/error.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::hw {

struct GprsConfig {
  sim::Duration registration_time = sim::seconds(35);
  double registration_success = 0.92;
  double drop_per_minute = 0.004;    // established-session drop hazard
  // Probability a session wedges without failing — §VI's "a SCP transfer
  // hangs" scenario. A hung transfer never returns by itself; how long it
  // eats is hang_duration, clamped by the caller's session cap (the 2-hour
  // watchdog bounds it regardless).
  double hang_per_session = 0.0;
  sim::Duration hang_duration = sim::hours(24);
};

struct TransferOutcome {
  bool success = false;
  bool hung = false;         // session wedged; elapsed is the capped stall
  sim::Duration elapsed{};   // connect + transfer time actually spent
  util::Bytes sent{0};       // payload bytes that got through
};

// "No cap": effectively infinite, minus headroom so adding registration
// time cannot overflow.
inline constexpr sim::Duration kNoSessionCap{
    std::numeric_limits<std::int64_t>::max() / 4};

class GprsModem {
 public:
  static constexpr util::BitsPerSecond kRate{5000.0};  // Table 1
  static constexpr util::Watts kPower{2.64};           // Table 1
  static constexpr double kProtocolOverhead = 1.12;    // TCP/PPP framing
  static constexpr double kCostPerMib = 5.0;  // currency units per MiB (§II)

  GprsModem(sim::Simulation& simulation, power::PowerSystem& power,
            util::Rng rng, GprsConfig config = {})
      : simulation_(simulation),
        power_(power),
        config_(config),
        rng_(rng),
        load_(power.add_component(make_spec())) {}

  // Attaches scripted fault windows (gprs_outage); null detaches.
  void set_fault_oracle(fault::FaultOracle* oracle) { oracle_ = oracle; }

  [[nodiscard]] bool powered() const { return powered_; }

  void power_on() {
    // An explicit power-on also cancels any pending hold_powered() auto-off
    // (the new owner decides when the modem goes dark).
    ++hold_generation_;
    if (powered_) return;
    powered_ = true;
    power_.set_activity(load_, kIdle);
  }

  void power_off() {
    ++hold_generation_;
    if (!powered_) return;
    powered_ = false;
    power_.set_activity(load_, 0);
  }

  // Powers on and schedules an automatic power-off after `duration` — the
  // recovery path uses this so an NTP resync pays real session energy
  // without blocking the caller. Any explicit power_on()/power_off() in the
  // meantime cancels the pending auto-off.
  void hold_powered(sim::Duration duration) {
    // Span at least one power-integration tick: a session shorter than the
    // tick would otherwise be invisible to the energy ledger (and a real
    // modem's boot/shutdown housekeeping eats that long anyway).
    duration =
        std::max(duration, power::PowerSystem::kTick + sim::seconds(1));
    power_on();
    const std::uint64_t generation = hold_generation_;
    simulation_.schedule_in(duration, [this, generation] {
      if (generation == hold_generation_) power_off();
    });
  }

  // Ideal payload transfer time (no failures), registration excluded.
  [[nodiscard]] sim::Duration transfer_time(util::Bytes payload) const {
    const double seconds =
        util::transfer_seconds(payload, kRate) * kProtocolOverhead;
    return sim::seconds(seconds);
  }

  // Attempts to move `payload` over a fresh session. Draws registration and
  // per-minute drop hazards (each composed with an active gprs_outage fault
  // window when an oracle is attached); the outcome reports how long the
  // attempt took and how much payload made it (partial progress counts: the
  // transfer manager resumes file-by-file, §VI). A wedged session stalls for
  // min(hang_duration, session_cap). Requires power; the *caller* owns
  // advancing simulated time by `elapsed` — devices never block the clock.
  [[nodiscard]] TransferOutcome attempt_transfer(
      util::Bytes payload, sim::Duration session_cap = kNoSessionCap) {
    TransferOutcome outcome;
    if (!powered_) return outcome;
    const sim::SimTime now = simulation_.now();
    ++sessions_attempted_;
    outcome.elapsed = config_.registration_time;

    const double registration_success =
        oracle_ != nullptr
            ? oracle_->success(fault::FaultKind::kGprsOutage, now,
                               config_.registration_success)
            : config_.registration_success;
    if (!rng_.bernoulli(registration_success)) {
      ++registration_failures_;
      if (oracle_ != nullptr &&
          oracle_->active(fault::FaultKind::kGprsOutage, now)) {
        oracle_->record_trip(fault::FaultKind::kGprsOutage, now);
      }
      plan_session(outcome.elapsed);
      return outcome;
    }
    if (rng_.bernoulli(config_.hang_per_session)) {
      // Wedged: nothing moves and control never comes back inside the
      // session — the watchdog (or the caller's session cap) ends it (§VI).
      ++hangs_;
      outcome.hung = true;
      outcome.elapsed += std::min(config_.hang_duration, session_cap);
      plan_session(outcome.elapsed);
      return outcome;
    }
    const double drop_per_minute = std::min(
        1.0, oracle_ != nullptr
                 ? oracle_->hazard(fault::FaultKind::kGprsOutage, now,
                                   config_.drop_per_minute)
                 : config_.drop_per_minute);
    const double total_minutes = transfer_time(payload).to_minutes();
    // Walk the transfer minute by minute against the drop hazard. The
    // per-step probability is clamped to 1: an aggressive injected hazard
    // must mean "drops immediately", not an out-of-range Bernoulli draw.
    double minutes_survived = 0.0;
    bool dropped = false;
    while (minutes_survived < total_minutes) {
      const double step = std::min(1.0, total_minutes - minutes_survived);
      if (rng_.bernoulli(std::min(1.0, drop_per_minute * step))) {
        dropped = true;
        // The drop lands somewhere inside this step.
        minutes_survived += step * rng_.uniform();
        break;
      }
      minutes_survived += step;
    }
    const double fraction =
        total_minutes == 0.0 ? 1.0 : minutes_survived / total_minutes;
    outcome.sent = util::Bytes{
        std::int64_t(double(payload.count()) * std::min(1.0, fraction))};
    outcome.elapsed += sim::minutes(minutes_survived);
    outcome.success = !dropped;
    bytes_sent_ += outcome.sent;
    cost_ += outcome.sent.mib() * kCostPerMib;
    if (dropped) {
      ++session_drops_;
      if (oracle_ != nullptr &&
          oracle_->active(fault::FaultKind::kGprsOutage, now)) {
        oracle_->record_trip(fault::FaultKind::kGprsOutage, now);
      }
    } else {
      ++sessions_succeeded_;
    }
    plan_session(outcome.elapsed);
    return outcome;
  }

  // --- ledgers ---------------------------------------------------------

  [[nodiscard]] util::Bytes bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] double data_cost() const { return cost_; }
  [[nodiscard]] int sessions_attempted() const { return sessions_attempted_; }
  [[nodiscard]] int sessions_succeeded() const { return sessions_succeeded_; }
  [[nodiscard]] int registration_failures() const {
    return registration_failures_;
  }
  [[nodiscard]] int session_drops() const { return session_drops_; }
  [[nodiscard]] int hangs() const { return hangs_; }

  // Every attempted session ends in exactly one of the four outcomes; the
  // soak harness asserts this never drifts.
  [[nodiscard]] bool ledger_consistent() const {
    return sessions_attempted_ == registration_failures_ + hangs_ +
                                      session_drops_ + sessions_succeeded_;
  }

  [[nodiscard]] const GprsConfig& config() const { return config_; }

  // Snapshot support (docs/SNAPSHOT.md). A powered modem may have a
  // hold_powered() auto-off in flight (an untracked guarded event), so a
  // save while powered is refused; quiescent checkpoints land outside
  // comms sessions.
  template <class Archive>
  void persist(Archive& ar) {
    if constexpr (Archive::kIsSaver) {
      if (powered_) {
        throw snapshot::SnapshotError(snapshot::SnapshotErrc::kNotQuiescent,
                                      "gprs session in flight", "gprs");
      }
    }
    ar.value(rng_);
    ar.value(hold_generation_);
    ar.value(bytes_sent_);
    ar.value(cost_);
    ar.value(sessions_attempted_);
    ar.value(sessions_succeeded_);
    ar.value(registration_failures_);
    ar.value(session_drops_);
    ar.value(hangs_);
  }

 private:
  // Activity states (docs/ENERGY.md): all powered states draw Table 1's
  // 2640 mW — the split is attribution, telling the energy ledgers how much
  // of a session went to network registration versus moving payload.
  static constexpr std::size_t kIdle = 1;
  static constexpr std::size_t kRegistering = 2;
  static constexpr std::size_t kTx = 3;

  static energy::ComponentSpec make_spec() {
    energy::ComponentSpec spec;
    spec.name = "gprs";
    spec.states.push_back({"off", util::Watts{0.0}, 0.0});
    spec.states.push_back({"idle", kPower, 0.0});
    spec.states.push_back({"registering", kPower, 0.0});
    spec.states.push_back({"tx", kPower, 0.0});
    return spec;
  }

  // Lays the attribution plan for a session the caller is about to walk the
  // clock through: registration first, the remainder (payload or a hung
  // stall) as tx. The base activity (idle) resumes when the plan expires.
  void plan_session(sim::Duration elapsed) {
    const sim::Duration registration =
        std::min(config_.registration_time, elapsed);
    std::vector<std::pair<std::size_t, sim::Duration>> plan;
    plan.push_back({kRegistering, registration});
    if (elapsed > registration) plan.push_back({kTx, elapsed - registration});
    power_.plan_activity(load_, plan);
  }

  sim::Simulation& simulation_;
  power::PowerSystem& power_;
  GprsConfig config_;
  util::Rng rng_;
  // gwlint: allow(persist-coverage): registry handle re-acquired when the
  // identically-configured power system is rebuilt before restore
  power::LoadHandle load_;
  fault::FaultOracle* oracle_ = nullptr;
  bool powered_ = false;
  std::uint64_t hold_generation_ = 0;
  util::Bytes bytes_sent_{0};
  double cost_ = 0.0;
  int sessions_attempted_ = 0;
  int sessions_succeeded_ = 0;
  int registration_failures_ = 0;
  int session_drops_ = 0;
  int hangs_ = 0;
};

}  // namespace gw::hw
