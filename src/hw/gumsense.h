// Gumsense board: the MSP430 + Gumstix pairing with switched power rails.
//
// §II / Fig 2: the board lets software power peripherals on demand and
// wakes the Gumstix according to a schedule held by the MSP430. This class
// is the integration point: it owns both processors, arms the wake timer
// against the (drifting, volatile) RTC, and translates PowerSystem
// brown-out/recovery edges into the §IV semantics — schedule lost, RTC at
// epoch, cold boot on recharge.
#pragma once

#include <functional>

#include "hw/gumstix.h"
#include "hw/msp430.h"
#include "power/power_system.h"
#include "sim/simulation.h"

namespace gw::hw {

class Gumsense {
 public:
  Gumsense(sim::Simulation& simulation, power::PowerSystem& power,
           util::Rng rng, Msp430Config msp_config = {})
      : simulation_(simulation),
        power_(power),
        msp_(simulation, power, rng.fork("msp430"), msp_config),
        gumstix_(simulation, power) {
    power_.on_brown_out([this] { handle_brown_out(); });
    power_.on_recovery([this] { handle_recovery(); });
  }

  [[nodiscard]] Msp430& msp() { return msp_; }
  [[nodiscard]] Gumstix& gumstix() { return gumstix_; }

  // Programs the daily wake (RTC time of day) and the handler to run once
  // the Gumstix has booted. Re-arms itself every day until the schedule is
  // lost to a brown-out.
  void set_daily_wake(sim::Duration rtc_time_of_day,
                      std::function<void()> on_wake) {
    msp_.set_wake_schedule(rtc_time_of_day);
    on_wake_ = std::move(on_wake);
    arm();
  }

  // Invoked when power returns after total exhaustion. The handler is the
  // §IV recovery procedure (detect bogus RTC, GPS resync, state 0).
  void set_cold_boot_handler(std::function<void()> on_cold_boot) {
    on_cold_boot_ = std::move(on_cold_boot);
  }

  [[nodiscard]] bool wake_armed() const { return pending_wake_ != 0; }

  // Snapshot support (docs/SNAPSHOT.md). on_wake_/on_cold_boot_ survive the
  // restored world's own construction; the armed wake timer is rebuilt
  // under its exact saved key — never recomputed through next_wake(), whose
  // drift rounding could land a millisecond off the original.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(msp_);
    ar.value(gumstix_);
    sim::persist_pending(ar, simulation_, pending_wake_,
                         [this] { fire_wake(); });
  }

 private:
  void arm() {
    disarm();
    // The margin keeps a freshly-fired slot from re-arming itself while the
    // drifting RTC is still a few hundred ms short of the scheduled time.
    const auto wake = msp_.next_wake(sim::minutes(5));
    if (!wake.has_value() || !on_wake_) return;
    pending_wake_ = simulation_.schedule_at(*wake, [this] { fire_wake(); });
  }

  void fire_wake() {
    pending_wake_ = 0;
    if (power_.browned_out()) return;
    const sim::SimTime booted = gumstix_.power_on();
    simulation_.schedule_at(booted, [this] {
      if (gumstix_.running() && on_wake_) on_wake_();
    });
    arm();  // tomorrow's wake, from the (possibly drifted) RTC
  }

  void disarm() {
    simulation_.cancel(pending_wake_);
    pending_wake_ = 0;
  }

  void handle_brown_out() {
    msp_.brown_out();       // RAM schedule + samples gone, RTC to epoch
    gumstix_.power_off();   // rail collapsed
    disarm();
  }

  void handle_recovery() {
    if (on_cold_boot_) on_cold_boot_();
  }

  sim::Simulation& simulation_;
  power::PowerSystem& power_;
  Msp430 msp_;
  Gumstix gumstix_;
  std::function<void()> on_wake_;
  std::function<void()> on_cold_boot_;
  sim::EventId pending_wake_ = 0;
};

}  // namespace gw::hw
