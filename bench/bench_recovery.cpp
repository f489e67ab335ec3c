// §IV — automatic schedule resetting after total power loss.
//
// "the real time clock will have reset to 0 which is 01/01/1970 00:00 ...
// It then checks that its current time is before the last time the system
// ran; if that fails it knows that the RTC is not to be trusted. ... If the
// system cannot set the time using GPS then the system will sleep for a day
// and try again. In the future this could also be extended to fall back to
// getting the time using the GPRS link and network time protocol."
//
// Experiments: (1) end-to-end exhaustion -> recharge -> recovery on a full
// station; (2) recovery-time sweep vs GPS fix availability, with and
// without the NTP fallback extension; (3) ablation: what happens with no
// recovery logic at all.
#include <cstdio>

#include "bench_util.h"
#include "core/recovery.h"
#include "station/station.h"
#include "util/strings.h"

namespace gw {
namespace {

void end_to_end() {
  bench::subheading("1. end-to-end: exhaustion, recharge, recovery");
  sim::Simulation simulation{sim::at_midnight(2009, 10, 1)};
  env::Environment environment{5};
  station::SouthamptonServer server;
  station::StationConfig config;
  config.name = "base";
  config.role = station::StationRole::kBaseStation;
  config.power.battery.initial_soc = 0.06;
  config.power.battery.self_discharge_per_day = 0.05;
  config.gprs.registration_success = 1.0;
  config.gprs.drop_per_minute = 0.0;
  station::Station s{simulation, environment, server, util::Rng{9}, config};
  s.start();
  s.gprs().power_on();  // stuck radio: drains the bank in hours
  simulation.run_until(simulation.now() + sim::days(2));
  std::printf("  day 2: brown-outs=%d, RTC reads %s (epoch reset)\n",
              s.stats().brown_outs,
              sim::format_iso(s.board().msp().rtc_now()).c_str());

  // Recharge arrives (mains hookup during a field visit).
  power::MainsChargerConfig mains{.season_start_month = 1,
                                  .season_end_month = 12};
  s.add_charger(std::make_unique<power::MainsCharger>(mains));
  simulation.run_until(simulation.now() + sim::days(4));
  std::printf(
      "  day 6: cold boots=%d, GPS resyncs=%d, RTC error=%lld ms, state=%d, "
      "runs completed=%d\n",
      s.stats().cold_boots, s.recovery().gps_resyncs(),
      (long long)s.board().msp().rtc_error_ms(),
      power::to_int(s.current_state()), s.stats().runs_completed);
  bench::paper_vs_measured("restart state after recovery", "0 (Table 2)",
                           "station restarted in state 0, then adapted");
}

void fix_probability_sweep() {
  bench::subheading("2. days to clock recovery vs GPS fix availability");
  bench::row({"P(fix per attempt)", "GPS only (days)", "with NTP fallback"},
             {19, 16, 18});
  for (const double p : {1.0, 0.9, 0.5, 0.2, 0.05}) {
    std::string cells[2];
    for (int variant = 0; variant < 2; ++variant) {
      double total_days = 0.0;
      constexpr int kTrials = 200;
      for (int trial = 0; trial < kTrials; ++trial) {
        sim::Simulation simulation{sim::at_midnight(2009, 12, 1)};
        env::Environment environment{5};
        power::PowerSystemConfig power_config;
        power::PowerSystem power{simulation, environment, power_config};
        hw::Msp430 msp{simulation, power,
                       util::Rng{std::uint64_t(trial) * 7 + 1}};
        hw::DgpsConfig dgps_config;
        dgps_config.fix_probability = p;
        hw::DgpsReceiver dgps{simulation, power,
                              util::Rng{std::uint64_t(trial) * 13 + 3},
                              dgps_config};
        hw::GprsConfig gprs_config;
        gprs_config.registration_success = 1.0;
        gprs_config.drop_per_minute = 0.0;
        hw::GprsModem gprs{simulation, power,
                           util::Rng{std::uint64_t(trial) * 19 + 7},
                           gprs_config};
        core::RecoveryConfig recovery_config;
        recovery_config.ntp_fallback = variant == 1;
        core::RecoveryManager recovery{
            simulation, msp, dgps,
            util::Rng{std::uint64_t(trial) * 17 + 5}, recovery_config};
        recovery.attach_modem(&gprs);  // NTP rides a real session now
        recovery.record_successful_run();
        msp.brown_out();
        int days = 0;
        while (recovery.rtc_untrusted() && days < 120) {
          (void)recovery.attempt();
          if (recovery.rtc_untrusted()) {
            simulation.run_until(simulation.now() + sim::days(1));
            ++days;
          }
        }
        total_days += days;
      }
      cells[variant] = util::format_fixed(total_days / kTrials, 2);
    }
    bench::row({util::format_fixed(p, 2), cells[0], cells[1]}, {19, 16, 18});
  }
  bench::note("paper: GPS-only with daily retry; NTP fallback is Sec IV's "
              "proposed extension (implemented here)");
}

void no_recovery_ablation() {
  bench::subheading("3. ablation: no RTC sanity check at all");
  // Without §IV's check the station would run with a 1970 clock: its wake
  // schedule is gone and even if rewritten blindly, every timestamped
  // reading and the dGPS synchronisation would be ~40 years wrong.
  sim::Simulation simulation{sim::at_midnight(2009, 12, 1)};
  env::Environment environment{5};
  power::PowerSystemConfig power_config;
  power::PowerSystem power{simulation, environment, power_config};
  hw::Msp430 msp{simulation, power, util::Rng{1}};
  msp.brown_out();
  const auto error_years =
      double((simulation.now() - msp.rtc_now()).to_days()) / 365.25;
  bench::note("unrepaired RTC error after brown-out: " +
              util::format_fixed(error_years, 1) + " years");
  bench::note(
      "consequences (Sec IV): schedule lost, dGPS pairs cannot be matched, "
      "\"any of the measured values\" lose meaning");
}

void run() {
  bench::heading("Sec IV: automatic schedule resetting after power loss");
  end_to_end();
  fix_probability_sweep();
  no_recovery_ablation();
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
