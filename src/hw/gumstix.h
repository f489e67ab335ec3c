// Gumstix connex: the "high performance" half of the Gumsense pairing.
//
// §II: a 400–600 MHz ARM Linux system in an 80×20 mm footprint drawing
// ~100 mA (Table 1: 900 mW) with *no useful sleep mode* — which is the whole
// reason the platform pairs it with an MSP430 and only powers it "when there
// is a need for more processing power". The model tracks power state, boot
// latency, and cumulative uptime; the energy cost flows through the
// activity-state component it registers (docs/ENERGY.md).
//
// DVFS: the PXA-class core exposes a plan of (frequency, core voltage)
// operating points. Each point is a distinct "run@<f>MHz" activity state
// whose draw scales as P = P_top · (f/f_top) · (V/V_top)², per the classic
// CMOS dynamic-power model the DVFS literature builds on. Selecting the top
// point (the default) reproduces Table 1's 900 mW bitwise; slower points
// trade longer compute time (cpu_scale()) for lower draw, which is what
// makes a frequency plan per power state a searchable policy knob.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "energy/component_model.h"
#include "power/power_system.h"
#include "sim/simulation.h"
#include "util/units.h"

namespace gw::hw {

struct GumstixOperatingPoint {
  double mhz = 400.0;
  util::Volts core_volts{1.3};
};

class Gumstix {
 public:
  enum class State { kOff, kBooting, kRunning };

  static constexpr util::Watts kRunPower{0.9};  // Table 1, at the top point
  // Linux boot to usable shell.
  static constexpr sim::Duration kBootTime = sim::seconds(25);

  Gumstix(sim::Simulation& simulation, power::PowerSystem& power)
      : simulation_(simulation),
        power_(power),
        selected_(kFrequencyPlan.size() - 1),
        load_(power.add_component(make_spec())) {}

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool running() const { return state_ == State::kRunning; }

  // --- DVFS ---------------------------------------------------------------

  // Ascending frequency; the last entry is the full-speed point whose draw
  // is exactly kRunPower (PXA255-class ladder).
  [[nodiscard]] static constexpr const std::array<GumstixOperatingPoint, 3>&
  frequency_plan() {
    return kFrequencyPlan;
  }
  [[nodiscard]] std::size_t selected_point() const { return selected_; }

  // Selects an operating point. Takes effect immediately when running
  // (an activity transition); while off or booting it is latched for the
  // next run state entry.
  void set_frequency_index(std::size_t index) {
    kFrequencyPlan.at(index);  // bounds check
    selected_ = index;
    if (state_ == State::kRunning) {
      power_.set_activity(load_, run_state(selected_));
    }
  }

  // How much longer CPU-bound work takes at the selected point relative to
  // full speed (1.0 at the top point, exactly).
  [[nodiscard]] double cpu_scale() const {
    return kFrequencyPlan.back().mhz / kFrequencyPlan[selected_].mhz;
  }

  // Stretches a full-speed compute duration by cpu_scale(); returns the
  // duration untouched (bitwise) at the top point.
  [[nodiscard]] sim::Duration scaled(sim::Duration full_speed) const {
    const double scale = cpu_scale();
    if (scale == 1.0) return full_speed;
    return sim::Duration{std::llround(double(full_speed.millis()) * scale)};
  }

  // --- power --------------------------------------------------------------

  // Applies power. Returns the time at which Linux is up; callers schedule
  // their first task at that moment. No-op (returns now) if already running.
  sim::SimTime power_on() {
    if (state_ == State::kRunning) return simulation_.now();
    if (state_ == State::kOff) {
      state_ = State::kBooting;
      power_.set_activity(load_, kBootState);
      powered_since_ = simulation_.now();
      ++boot_count_;
      boot_done_ = simulation_.now() + kBootTime;
      boot_event_ = simulation_.schedule_at(boot_done_, [this] { finish_boot(); });
    }
    return boot_done_;
  }

  // Hard power cut from the Gumsense board (end of window, watchdog, or
  // brown-out). Any in-flight work is simply gone — the paper's 2-hour
  // safety timeout behaves exactly like this.
  void power_off() {
    if (state_ == State::kOff) return;
    state_ = State::kOff;
    power_.set_activity(load_, 0);
    uptime_ += simulation_.now() - powered_since_;
  }

  [[nodiscard]] sim::Duration uptime() const {
    if (state_ == State::kOff) return uptime_;
    return uptime_ + (simulation_.now() - powered_since_);
  }

  [[nodiscard]] int boot_count() const { return boot_count_; }

  // Snapshot support (docs/SNAPSHOT.md). The component's activity state is
  // restored by PowerSystem's persist; a boot in flight is rebuilt as a
  // pending event under its saved key.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(state_);
    std::uint64_t selected = selected_;
    ar.value(selected);
    selected_ = std::size_t(selected);
    ar.value(powered_since_);
    ar.value(boot_done_);
    ar.value(uptime_);
    ar.value(boot_count_);
    sim::persist_pending(ar, simulation_, boot_event_,
                         [this] { finish_boot(); });
  }

 private:
  static constexpr std::array<GumstixOperatingPoint, 3> kFrequencyPlan = {{
      {200.0, util::Volts{1.0}},
      {300.0, util::Volts{1.1}},
      {400.0, util::Volts{1.3}},
  }};
  static constexpr std::size_t kBootState = 1;
  [[nodiscard]] static std::size_t run_state(std::size_t point) {
    return 2 + point;
  }

  static energy::ComponentSpec make_spec() {
    energy::ComponentSpec spec;
    spec.name = "gumstix";
    spec.states.push_back({"off", util::Watts{0.0}, 0.0});
    // Boot burns full power: the kernel brings the core up at top speed.
    spec.states.push_back({"boot", kRunPower, 0.0});
    const GumstixOperatingPoint& top = kFrequencyPlan.back();
    for (const GumstixOperatingPoint& point : kFrequencyPlan) {
      const double volt_ratio = point.core_volts.value() / top.core_volts.value();
      const double scale = (point.mhz / top.mhz) * volt_ratio * volt_ratio;
      spec.states.push_back(
          {"run@" + std::to_string(std::int64_t(std::llround(point.mhz))) +
               "MHz",
           util::Watts{kRunPower.value() * scale}, 0.0});
    }
    return spec;
  }

  void finish_boot() {
    if (state_ == State::kBooting) {
      state_ = State::kRunning;
      power_.set_activity(load_, run_state(selected_));
    }
  }

  sim::Simulation& simulation_;
  power::PowerSystem& power_;
  std::size_t selected_;
  // gwlint: allow(persist-coverage): registry handle re-acquired when the
  // identically-configured power system is rebuilt before restore
  power::LoadHandle load_;
  State state_ = State::kOff;
  sim::SimTime powered_since_{};
  sim::SimTime boot_done_{};
  sim::Duration uptime_{};
  sim::EventId boot_event_ = 0;
  int boot_count_ = 0;
};

}  // namespace gw::hw
