// §III — server-mediated state propagation lag.
//
// "The reason for the upload and download of power states being in
// different places is to allow for minor variations in timing between the
// base station and the reference station. ... as long as the time variation
// in the stations is less than the time it takes for the station which is
// ahead to upload its data then any changes will be reflected the same day.
// If the variation in time is greater than this then there will be a one
// day lag in the states being updated."
//
// We run the two-station deployment, pin the base station's battery into
// the state-2 band from day 3, and sweep the reference station's window
// offset. Reported: how long after the base station's transition the
// reference station follows (same-day ≈ minutes-hours; otherwise ~a day).
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "station/deployment.h"
#include "util/strings.h"

namespace gw {
namespace {

struct LagResult {
  bool seen = false;
  double lag_hours = 0.0;   // may be negative: follower can apply the new
                            // state before the leader's own run finishes
  int lag_days = 0;         // calendar-day difference (the paper's metric)
};

// Measures when the reference follows the base into state 2, for the given
// reference-window offset.
LagResult measure_lag(sim::Duration reference_offset) {
  station::DeploymentConfig config;
  config.start = sim::DateTime{2009, 9, 1, 0, 0, 0};
  config.base.gprs.registration_success = 1.0;
  config.base.gprs.drop_per_minute = 0.0;
  config.reference.gprs.registration_success = 1.0;
  config.reference.gprs.drop_per_minute = 0.0;
  config.base.power.battery.initial_soc = 1.0;
  config.reference.power.battery.initial_soc = 1.0;
  config.base.initial_state = power::PowerState::kState3;
  config.reference.initial_state = power::PowerState::kState3;
  config.reference.wake_time_of_day = sim::hours(12) + reference_offset;
  config.trace_enabled = false;
  station::Fleet deployment{config.to_fleet_config()};

  // From day 3, pin the base battery into the state-2 voltage band (an aged
  // bank), re-clamped every 30 minutes against charging.
  const sim::SimTime pin_from = sim::at_midnight(2009, 9, 4);
  std::function<void()> clamp = [&deployment, &clamp] {
    auto& battery = deployment.station(0).power().battery();
    if (battery.soc() > 0.40) battery.set_soc(0.40);
    deployment.simulation().schedule_in(sim::minutes(30), clamp);
  };
  deployment.simulation().schedule_at(pin_from, clamp);

  deployment.run_days(12.0);

  // Find the transition times.
  auto transition_time = [](const station::Station& s) {
    for (const auto& change : s.state_history()) {
      if (change.at >= sim::at_midnight(2009, 9, 4) &&
          change.state <= power::PowerState::kState2) {
        return change.at;
      }
    }
    return sim::SimTime{0};
  };
  const sim::SimTime base_at = transition_time(deployment.station(0));
  const sim::SimTime ref_at = transition_time(deployment.station(1));
  LagResult result;
  if (base_at == sim::SimTime{0} || ref_at == sim::SimTime{0}) return result;
  result.seen = true;
  result.lag_hours = (ref_at - base_at).to_hours();
  result.lag_days =
      int((sim::start_of_day(ref_at) - sim::start_of_day(base_at)).to_days());
  return result;
}

void run() {
  bench::heading("Sec III: state-sync propagation lag vs window skew");

  bench::row({"Reference window offset", "Lag", "Propagation"}, {24, 12, 14});
  for (const double offset_min :
       {-300.0, -180.0, -90.0, -45.0, -5.0, 5.0, 45.0, 90.0, 180.0}) {
    const auto result = measure_lag(sim::minutes(offset_min));
    if (!result.seen) {
      bench::row({util::format_fixed(offset_min, 0) + " min",
                  "(no transition)", "-"},
                 {24, 12, 14});
      continue;
    }
    bench::row({util::format_fixed(offset_min, 0) + " min",
                util::format_fixed(result.lag_hours, 2) + " h",
                result.lag_days == 0 ? "same day"
                                     : std::to_string(result.lag_days) +
                                           "-day lag"},
               {24, 12, 14});
  }
  bench::note(
      "paper: same-day when the follower's override fetch lands after the "
      "leader's state upload — the leader uploads its state *before* its "
      "multi-minute data upload, so modest skew still converges same-day; "
      "a follower waking hours early fetches stale state -> one-day lag");
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
