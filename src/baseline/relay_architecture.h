// The rejected architecture: shared long-range radio link + relay (§II).
//
// Norway's system ran a ppp/IP link over 500 mW 466 MHz radio modems from
// the glacier base station to a café whose end stayed powered all year; the
// café forwarded data onward. Porting that to Iceland would have meant a
// *battery-powered* relay whose radio must be awake exactly when the base
// station transmits, a directional antenna unlikely to survive winter, and
// a single point of failure in front of every byte. This model reproduces
// that architecture faithfully enough to measure what the paper argues:
//
//   * energy per delivered byte — radio modem at 2000 bps/3960 mW loses to
//     GPRS at 5000 bps/2640 mW by ~3.7x, and the relay pays *again* to
//     forward (the "twofold power saving" of §II is the conservative
//     system-level statement);
//   * window synchronisation — both ends must be up simultaneously; RTC
//     skew beyond the guard band misses the whole day;
//   * fate-sharing — a dead relay silences the base station entirely.
//
// bench_architecture runs this against the dual-GPRS design that was
// built: one independent hw::GprsModem per station, as in every station of
// a station::Fleet.
#pragma once

#include <memory>

#include "env/environment.h"
#include "hw/gprs_modem.h"
#include "hw/radio_modem.h"
#include "power/battery.h"
#include "power/chargers.h"
#include "power/power_system.h"
#include "proto/ppp_link.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::baseline {

struct RelayConfig {
  // Daily payload the base station must get off the glacier.
  util::Bytes base_daily_payload = util::kib(400);
  // The relay's own sensing payload, forwarded over its uplink.
  util::Bytes relay_daily_payload = util::kib(180);
  // Daily window the relay keeps its radio powered, waiting for the base.
  sim::Duration relay_listen_window = sim::hours(2);
  // Clock skew between the two stations' windows (std-dev, drawn daily).
  sim::Duration skew_stddev = sim::minutes(2);
  // Relay hard failure (storm damage / battery death) on this day; <0 = never.
  int relay_fails_on_day = -1;
  proto::PppConfig ppp;
  hw::GprsConfig gprs;  // the relay's uplink (Iceland variant)
};

struct RelayDayOutcome {
  bool window_aligned = false;
  bool link_established = false;
  bool base_data_delivered = false;   // made it all the way to Southampton
  bool relay_data_delivered = false;
  util::Bytes delivered{0};
};

struct RelayStats {
  int days = 0;
  int days_window_missed = 0;   // skew exceeded the listen window
  int days_link_failed = 0;     // dial/interference defeated the transfer
  int days_delivered = 0;
  int days_relay_dead = 0;
  util::Bytes delivered_total{0};
};

// Event-driven enough for energy accounting, day-driven for the protocol:
// each simulated day draws the skew, runs the window, and integrates the
// radio/GPRS on-time into the two PowerSystems.
class RelayDeployment {
 public:
  // Guard band: the base must start dialling while the relay listens.
  // If |skew| > listen window the day is lost outright.
  static constexpr sim::Duration kWakeTime = sim::hours(12);

  RelayDeployment(sim::Simulation& simulation,
                  const env::Environment& environment, util::Rng rng,
                  RelayConfig config = {});

  // Runs N daily windows (advancing the shared simulation clock).
  void run_days(int days);

  [[nodiscard]] const RelayStats& stats() const { return stats_; }
  [[nodiscard]] power::PowerSystem& relay_power() { return *relay_power_; }

  // Comms energy actually spent (radio modems + relay GPRS), for the
  // architecture comparison.
  [[nodiscard]] util::Joules comms_energy() const;

 private:
  RelayDayOutcome run_window();

  sim::Simulation& simulation_;
  RelayConfig config_;
  util::Rng rng_;
  std::unique_ptr<power::PowerSystem> base_power_;
  std::unique_ptr<power::PowerSystem> relay_power_;
  std::unique_ptr<hw::RadioModem> base_radio_;
  std::unique_ptr<hw::RadioModem> relay_radio_;
  std::unique_ptr<hw::GprsModem> relay_gprs_;
  std::unique_ptr<proto::PppLink> ppp_;
  RelayStats stats_;
  int day_index_ = 0;
};

}  // namespace gw::baseline
