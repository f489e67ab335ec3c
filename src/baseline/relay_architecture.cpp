#include "baseline/relay_architecture.h"

#include <cmath>

namespace gw::baseline {

RelayDeployment::RelayDeployment(sim::Simulation& simulation,
                                 const env::Environment& environment,
                                 util::Rng rng, RelayConfig config)
    : simulation_(simulation),
      config_(config),
      rng_(rng) {
  power::PowerSystemConfig power_config;
  power_config.battery.initial_soc = 0.9;
  base_power_ = std::make_unique<power::PowerSystem>(simulation, environment,
                                                     power_config);
  relay_power_ = std::make_unique<power::PowerSystem>(simulation, environment,
                                                      power_config);
  base_radio_ = std::make_unique<hw::RadioModem>(
      simulation, *base_power_, environment.interference());
  relay_radio_ = std::make_unique<hw::RadioModem>(
      simulation, *relay_power_, environment.interference());
  relay_gprs_ = std::make_unique<hw::GprsModem>(
      simulation, *relay_power_, rng_.fork("relay_gprs"), config.gprs);
  ppp_ = std::make_unique<proto::PppLink>(*base_radio_, rng_.fork("ppp"),
                                          config.ppp);
}

void RelayDeployment::run_days(int days) {
  for (int i = 0; i < days; ++i) {
    // Advance to the next window.
    const sim::SimTime window =
        sim::start_of_day(simulation_.now()) + sim::days(1) + kWakeTime;
    simulation_.run_until(window);
    const RelayDayOutcome outcome = run_window();
    ++stats_.days;
    if (config_.relay_fails_on_day >= 0 &&
        day_index_ >= config_.relay_fails_on_day) {
      ++stats_.days_relay_dead;
    } else if (!outcome.window_aligned) {
      ++stats_.days_window_missed;
    } else if (!outcome.base_data_delivered) {
      ++stats_.days_link_failed;
    }
    if (outcome.base_data_delivered) {
      ++stats_.days_delivered;
      stats_.delivered_total += outcome.delivered;
    }
    ++day_index_;
  }
}

RelayDayOutcome RelayDeployment::run_window() {
  RelayDayOutcome outcome;

  // Relay dead: nothing listens, nothing forwards — total fate-sharing.
  if (config_.relay_fails_on_day >= 0 &&
      day_index_ >= config_.relay_fails_on_day) {
    return outcome;
  }

  // Draw today's clock skew between the two schedules (§II: even with GPS
  // time both ends run different code paths before the link comes up).
  const double skew_minutes =
      rng_.normal(0.0, config_.skew_stddev.to_minutes());
  const sim::Duration skew = sim::minutes(std::abs(skew_minutes));

  // The relay powers its radio for the whole listen window regardless —
  // that is the cost of being the called party on a battery.
  relay_radio_->power_on();
  const sim::Duration listen = config_.relay_listen_window;

  if (skew >= listen) {
    // Windows never overlapped: the day is lost before a bit moves.
    relay_power_->tick(listen);  // integrate the wasted listen energy
    relay_radio_->power_off();
    return outcome;
  }
  outcome.window_aligned = true;

  // Base dials once the windows overlap.
  base_radio_->power_on();
  const auto ppp_outcome =
      ppp_->transfer(simulation_.now() + skew, config_.base_daily_payload);

  // Integrate energy: base radio for its session; relay radio for the
  // full listen window (it cannot know when to stand down).
  const sim::Duration base_on = skew + ppp_outcome.elapsed;
  base_power_->tick(base_on);
  base_radio_->power_off();

  outcome.link_established = ppp_outcome.connected;
  const bool radio_leg_ok =
      ppp_outcome.reason == proto::PppDisconnectReason::kCompleted;

  // Relay energy, phase 1: radio listening for the whole window.
  relay_power_->tick(listen);

  // The relay now forwards base data + its own over GPRS (Iceland variant).
  if (radio_leg_ok) {
    relay_gprs_->power_on();
    const auto forward = relay_gprs_->attempt_transfer(
        config_.base_daily_payload + config_.relay_daily_payload);
    // Phase 2: integrate the forwarding time with the GPRS load on.
    relay_power_->tick(forward.elapsed);
    relay_gprs_->power_off();
    outcome.base_data_delivered = forward.success;
    outcome.relay_data_delivered = forward.success;
    if (forward.success) {
      outcome.delivered =
          config_.base_daily_payload + config_.relay_daily_payload;
    }
  }
  relay_radio_->power_off();

  return outcome;
}

util::Joules RelayDeployment::comms_energy() const {
  const energy::MicroJoules uj =
      base_power_->find_component("radio_modem")->total_uj() +
      relay_power_->find_component("radio_modem")->total_uj() +
      relay_power_->find_component("gprs")->total_uj();
  return util::Joules{double(uj) / 1e6};
}

}  // namespace gw::baseline
