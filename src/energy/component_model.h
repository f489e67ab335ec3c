// Activity-state component energy model (docs/ENERGY.md).
//
// A ComponentModel is a small state machine over named activity states
// ("off", "boot", "run@400MHz", "registering", ...). State 0 is always the
// quiescent/off state and draws nothing. Each state carries a nominal draw
// and an optional temperature coefficient; the effective draw at air
// temperature T is draw * (1 + coeff * (T - 25C)), computed so that a zero
// coefficient returns the nominal draw bitwise-exactly.
//
// Energy is accounted in integer microjoules. Every tick the owning
// PowerSystem charges each component one quantum per constant-activity
// span (a steady component, with no plan and a temperature-independent
// state, has one span per tick and charges it from a cached quantum); the
// same quantum is added to a battery-side delivered meter, so
// the per-component, per-state ledgers sum *exactly* to the battery-side
// total — integer addition is associative, so the invariant holds across
// brown-outs, snapshot round-trips, and any regrouping of the sum.
//
// Besides the base activity (set_activity), a component may carry a timed
// *plan*: a contiguous run of (state, end-time) segments anchored at the
// moment the plan was laid down. Plans let synchronous device code (e.g. a
// GPRS transfer that computes its whole session up front) attribute the
// elapsed interval to registering/tx spans without changing when any
// simulation event fires. Once every segment has expired the component
// falls back to its base activity; set_activity clears any plan.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "snapshot/error.h"
#include "util/units.h"

namespace gw::energy {

using MicroJoules = std::int64_t;

// One quantum: the microjoules drawn at `watts` over `seconds`, rounded to
// the nearest integer. All ledgers and meters accumulate these quanta.
[[nodiscard]] inline MicroJoules quantum(util::Watts watts, double seconds) {
  return std::llround(watts.value() * seconds * 1e6);
}

struct ActivityState {
  std::string name;
  util::Watts draw{0.0};
  // Fractional draw change per degree Celsius away from the 25 C
  // reference (0 = temperature-independent).
  double temp_coeff = 0.0;
};

struct ComponentSpec {
  std::string name;
  // states[0] must be the off/quiescent state (zero draw).
  std::vector<ActivityState> states;
};

// Convenience spec for a plain switched load: off + one powered state.
[[nodiscard]] inline ComponentSpec switched_load(std::string name,
                                                util::Watts draw) {
  ComponentSpec spec;
  spec.name = std::move(name);
  spec.states.push_back({"off", util::Watts{0.0}, 0.0});
  spec.states.push_back({"on", draw, 0.0});
  return spec;
}

class ComponentModel {
 public:
  explicit ComponentModel(ComponentSpec spec) : spec_(std::move(spec)) {
    energy_uj_.assign(spec_.states.size(), 0);
    active_ms_.assign(spec_.states.size(), 0);
  }

  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] std::size_t state_count() const { return spec_.states.size(); }
  [[nodiscard]] const ActivityState& state(std::size_t index) const {
    return spec_.states.at(index);
  }
  [[nodiscard]] std::size_t activity() const { return activity_; }

  [[nodiscard]] std::size_t index_of(const std::string& state_name) const {
    for (std::size_t i = 0; i < spec_.states.size(); ++i) {
      if (spec_.states[i].name == state_name) return i;
    }
    throw std::out_of_range("unknown activity state: " + spec_.name + "." +
                            state_name);
  }

  // Base-activity transition; discards any timed plan.
  void set_activity(std::size_t index) {
    activity_ = checked(index);
    plan_.clear();
    steady_ = SteadyQuantum{};
  }

  // Lays down a contiguous timed overlay starting at `now`: each entry is
  // (state, dwell). Attribution-only — the base activity is untouched and
  // becomes current again once the last segment expires.
  void set_plan(sim::SimTime now,
                const std::vector<std::pair<std::size_t, sim::Duration>>&
                    segments) {
    plan_.clear();
    plan_anchor_ = now;
    sim::SimTime end = now;
    for (const auto& [state, dwell] : segments) {
      if (dwell.millis() <= 0) continue;
      end = end + dwell;
      plan_.push_back({checked(state), end});
    }
  }

  [[nodiscard]] bool has_plan() const { return !plan_.empty(); }

  // The state governing instant `t`: the plan segment covering t if one
  // exists (segments are half-open [begin, end)), else the base activity.
  [[nodiscard]] std::size_t active_at(sim::SimTime t) const {
    if (plan_.empty() || t < plan_anchor_) return activity_;
    for (const auto& segment : plan_) {
      if (t < segment.end) return segment.state;
    }
    return activity_;
  }

  // Effective draw of `index` at air temperature `temp`. The coeff == 0
  // branch returns the nominal draw without touching it, so the default
  // (temperature-independent) components behave bitwise like fixed loads.
  [[nodiscard]] util::Watts draw_at(std::size_t index,
                                    util::Celsius temp) const {
    const ActivityState& s = spec_.states.at(index);
    if (s.temp_coeff == 0.0) return s.draw;
    const double factor = 1.0 + s.temp_coeff * (temp.value() - 25.0);
    return util::Watts{s.draw.value() * (factor > 0.0 ? factor : 0.0)};
  }

  // Walks [from, to) and calls emit(state, begin, end) once per
  // constant-activity span, honouring the plan overlay. Spans are
  // half-open and cover the interval exactly (no gaps, no overlap).
  template <class Fn>
  void attribute(sim::SimTime from, sim::SimTime to, Fn&& emit) const {
    sim::SimTime cursor = from;
    sim::SimTime segment_begin = plan_anchor_;
    for (const auto& segment : plan_) {
      if (cursor >= to) break;
      if (cursor < segment_begin) {
        const sim::SimTime gap_end = segment_begin < to ? segment_begin : to;
        if (gap_end > cursor) emit(activity_, cursor, gap_end);
        cursor = gap_end;
      }
      const sim::SimTime span_end = segment.end < to ? segment.end : to;
      if (span_end > cursor) {
        emit(segment.state, cursor, span_end);
        cursor = span_end;
      }
      segment_begin = segment.end;
    }
    if (cursor < to) emit(activity_, cursor, to);
  }

  // True when a tick charges this component one span of its base
  // activity at a temperature-independent draw: no plan, and the state's
  // temp_coeff is 0. Such a tick adds the same quantum and the same
  // milliseconds every time.
  [[nodiscard]] bool steady() const {
    return plan_.empty() && spec_.states[activity_].temp_coeff == 0.0;
  }

  // A steady component's tick of length `dt` > 0: charges the base
  // activity what attribute() would emit for [now - dt, now) — one
  // quantum at the nominal draw, from a cache keyed by (state, dt) — and
  // adds the same quantum to `meter`. Returns the draw.
  util::Watts charge_steady(sim::Duration dt, MicroJoules& meter) {
    const ActivityState& state = spec_.states[activity_];
    if (steady_.state != activity_ || steady_.dt_ms != dt.millis()) {
      steady_ = SteadyQuantum{activity_, dt.millis(),
                              quantum(state.draw, dt.to_seconds())};
    }
    energy_uj_[activity_] += steady_.uj;
    active_ms_[activity_] += dt.millis();
    meter += steady_.uj;
    return state.draw;
  }

  // Drops plan segments that ended at or before `now`.
  void prune_plan(sim::SimTime now) {
    std::size_t drop = 0;
    while (drop < plan_.size() && plan_[drop].end <= now) {
      plan_anchor_ = plan_[drop].end;
      ++drop;
    }
    if (drop > 0) plan_.erase(plan_.begin(), plan_.begin() + drop);
  }

  // Ledger write: one quantum of energy plus active time for `index`.
  void charge(std::size_t index, MicroJoules uj, std::int64_t active_ms) {
    energy_uj_.at(index) += uj;
    active_ms_.at(index) += active_ms;
  }

  [[nodiscard]] MicroJoules energy_uj(std::size_t index) const {
    return energy_uj_.at(index);
  }
  [[nodiscard]] MicroJoules total_uj() const {
    MicroJoules total = 0;
    for (const MicroJoules uj : energy_uj_) total += uj;
    return total;
  }
  [[nodiscard]] std::int64_t active_ms(std::size_t index) const {
    return active_ms_.at(index);
  }
  [[nodiscard]] double active_seconds(std::size_t index) const {
    return double(active_ms_.at(index)) / 1e3;
  }

  // Dynamics only: the spec (names, draws, coefficients) is wiring. Its
  // name and state count are saved as a cross-check, and every restored
  // index and ledger length is checked against the wired states.
  template <class Archive>
  void persist(Archive& ar) {
    std::string name = spec_.name;
    ar.value(name);
    if (name != spec_.name) {
      mismatch("component name mismatch: wired " + spec_.name +
               ", snapshot " + name);
    }
    std::uint64_t states = spec_.states.size();
    ar.value(states);
    if (states != spec_.states.size()) {
      mismatch("component " + spec_.name + " activity-state count mismatch");
    }
    ar.value(activity_);
    ar.value(energy_uj_);
    ar.value(active_ms_);
    ar.value(plan_anchor_);
    ar.value(plan_);
    if constexpr (!Archive::kIsSaver) {
      bool in_range = activity_ < states && energy_uj_.size() == states &&
                      active_ms_.size() == states;
      for (const PlanSegment& s : plan_) in_range &= s.state < states;
      if (!in_range) {
        mismatch("component " + spec_.name +
                 " restores an index or ledger length outside its states");
      }
      steady_ = SteadyQuantum{};
    }
  }

 private:
  struct PlanSegment {
    std::size_t state = 0;
    sim::SimTime end;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(state);
      ar.value(end);
    }
  };

  // charge_steady's cache: the quantum of `state` over a `dt_ms` tick.
  struct SteadyQuantum {
    std::size_t state = kNoState;
    std::int64_t dt_ms = 0;
    MicroJoules uj = 0;
  };
  static constexpr std::size_t kNoState = ~std::size_t{0};

  [[noreturn]] static void mismatch(std::string detail) {
    throw snapshot::SnapshotError(snapshot::SnapshotErrc::kStateMismatch,
                                  std::move(detail));
  }

  [[nodiscard]] std::size_t checked(std::size_t index) const {
    if (index >= spec_.states.size()) {
      throw std::out_of_range("activity index out of range for " + spec_.name);
    }
    return index;
  }

  ComponentSpec spec_;
  std::size_t activity_ = 0;
  std::vector<PlanSegment> plan_;
  sim::SimTime plan_anchor_;
  std::vector<MicroJoules> energy_uj_;
  std::vector<std::int64_t> active_ms_;
  // gwlint: allow(persist-coverage): derived from the spec and the tick
  // length; set_activity() and a restore clear it
  SteadyQuantum steady_;
};

}  // namespace gw::energy
