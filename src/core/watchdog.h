// The two-hour safety watchdog (§VI).
//
// "This safety mechanism prevents the system from running for more than two
// hours at a time ... if something crashes in the system — for example a
// SCP transfer hangs — the system does not remain running until its
// batteries are depleted." The MSP430 arms it when it powers the Gumstix;
// expiry cuts power no matter what the Linux side is doing. The same
// mechanism is what truncates oversized backlogs (§VI), so the expiry count
// is an observable the benches report.
#pragma once

#include <functional>

#include "obs/journal.h"
#include "sim/simulation.h"
#include "snapshot/error.h"

namespace gw::core {

class Watchdog {
 public:
  explicit Watchdog(sim::Simulation& simulation,
                    sim::Duration limit = sim::hours(2))
      : simulation_(simulation), limit_(limit) {}

  // Optional instrumentation: arms/expiries to "watchdog" counters, each
  // expiry to the journal (the §VI observable the benches report).
  void set_hooks(obs::Hooks hooks) { hooks_ = hooks; }

  // Arms (or re-arms) the timer; on expiry runs `on_expire` exactly once.
  void arm(std::function<void()> on_expire) {
    disarm();
    expired_ = false;
    deadline_ = simulation_.now() + limit_;
    if (hooks_.metrics != nullptr) {
      hooks_.metrics->counter("watchdog", "arms").increment();
    }
    pending_ = simulation_.schedule_in(limit_, [this,
                                                fn = std::move(on_expire)] {
      pending_ = 0;
      expired_ = true;
      ++expiry_count_;
      if (hooks_.metrics != nullptr) {
        hooks_.metrics->counter("watchdog", "expiries").increment();
      }
      if (hooks_.journal != nullptr) {
        hooks_.journal->record(simulation_.now().millis_since_epoch(),
                               obs::EventType::kWatchdogExpiry, "watchdog",
                               limit_.to_seconds());
      }
      fn();
    });
  }

  // Normal shutdown path: the run finished inside the window.
  void disarm() {
    simulation_.cancel(pending_);
    pending_ = 0;
  }

  [[nodiscard]] bool armed() const { return pending_ != 0; }
  [[nodiscard]] bool expired() const { return expired_; }
  [[nodiscard]] int expiry_count() const { return expiry_count_; }
  [[nodiscard]] sim::Duration limit() const { return limit_; }

  // Time left before the cut — the daily run checks this before starting
  // another file fetch or upload chunk.
  [[nodiscard]] sim::Duration remaining() const {
    if (pending_ == 0) return sim::Duration{0};
    return deadline_ - simulation_.now();
  }

  // Snapshot support (docs/SNAPSHOT.md). The pending expiry event captures
  // an arbitrary on_expire closure, which cannot be rebuilt from data — a
  // save requires the watchdog disarmed (checkpoints land between runs).
  template <class Archive>
  void persist(Archive& ar) {
    if constexpr (Archive::kIsSaver) {
      if (pending_ != 0) {
        throw snapshot::SnapshotError(snapshot::SnapshotErrc::kNotQuiescent,
                                      "watchdog armed", "watchdog");
      }
    }
    ar.value(expired_);
    ar.value(expiry_count_);
  }

 private:
  sim::Simulation& simulation_;
  // gwlint: allow(persist-coverage): construction constant, never mutated
  sim::Duration limit_;
  obs::Hooks hooks_;
  sim::EventId pending_ = 0;
  // gwlint: allow(persist-coverage): only meaningful while armed; saves
  // refuse with kNotQuiescent when armed, so there is nothing to carry
  sim::SimTime deadline_{};
  bool expired_ = false;
  int expiry_count_ = 0;
};

}  // namespace gw::core
