// System-level observability: a full paper-preset run must produce the core
// metric set documented in docs/OBSERVABILITY.md, and the export must be
// deterministic — two identically-seeded runs give byte-identical JSON.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "sim/trace_export.h"
#include "station/deployment.h"

namespace gw {
namespace {

station::DeploymentConfig short_config() {
  station::DeploymentConfig config;
  config.seed = 2008;
  config.start = sim::DateTime{2009, 9, 1, 0, 0, 0};
  // Reliable comms so the transfer-side metrics are exercised every day.
  config.base.gprs.registration_success = 1.0;
  config.base.gprs.drop_per_minute = 0.0;
  config.reference.gprs.registration_success = 1.0;
  config.reference.gprs.drop_per_minute = 0.0;
  config.base.power.battery.initial_soc = 0.95;
  config.reference.power.battery.initial_soc = 0.95;
  return config;
}

TEST(Observability, DeploymentProducesTheDocumentedCoreMetricSet) {
  station::Fleet deployment{short_config().to_fleet_config()};
  deployment.run_days(5.0);

  const auto& base = deployment.station(0);
  const auto& metrics = base.metrics();

  // station.*
  EXPECT_GE(metrics.counter_value("station", "wakes"), 4u);
  EXPECT_GE(metrics.counter_value("station", "runs_completed"), 1u);
  const auto* run_seconds = metrics.find_histogram("station", "run_seconds");
  ASSERT_NE(run_seconds, nullptr);
  EXPECT_EQ(run_seconds->count(),
            metrics.counter_value("station", "runs_completed") +
                metrics.counter_value("station", "runs_aborted"));
  EXPECT_GT(run_seconds->sum(), 0.0);

  // power_policy.*: every finished run lands in exactly one occupancy bin.
  std::uint64_t occupancy = 0;
  for (int state = 0; state <= 3; ++state) {
    occupancy += metrics.counter_value(
        "power_policy", "occupancy_days.state" + std::to_string(state));
  }
  EXPECT_EQ(occupancy,
            metrics.counter_value("station", "runs_completed") +
                metrics.counter_value("station", "runs_aborted"));
  EXPECT_GT(metrics.gauge_value("power_policy", "daily_average_volts"), 10.0);

  // power.*: ledgers are republished each daily run.
  EXPECT_GT(metrics.gauge_value("power", "battery_soc"), 0.0);
  EXPECT_GT(metrics.gauge_value("power", "consumed_joules.gumstix"), 0.0);
  bool harvested = false;
  for (const auto& [key, gauge] : metrics.gauges()) {
    if (key.component == "power" &&
        key.name.starts_with("harvested_joules.")) {
      harvested = true;
    }
  }
  EXPECT_TRUE(harvested);

  // watchdog.* arms once per daily run.
  EXPECT_GE(metrics.counter_value("watchdog", "arms"),
            metrics.counter_value("station", "wakes"));

  // bulk_transfer.*: the base station talks to probes every day.
  EXPECT_GE(metrics.counter_value("bulk_transfer", "sessions"), 1u);
  EXPECT_GT(metrics.counter_value("bulk_transfer", "data_frames"), 0u);
  EXPECT_EQ(metrics.counter_value("bulk_transfer", "delivered_readings"),
            base.stats().probe_readings_delivered);

  // transfer_manager.*: uploads ran.
  EXPECT_GE(metrics.counter_value("transfer_manager", "windows"), 1u);
  EXPECT_GT(metrics.counter_value("transfer_manager", "bytes_sent"), 0u);

  // The journal saw at least the initial state transition.
  EXPECT_FALSE(base.journal().empty());
  EXPECT_GE(base.journal().count(obs::EventType::kStateTransition), 1u);
  EXPECT_EQ(base.journal().dropped(), 0u);

  // The reference station is instrumented too, but never runs the probe
  // protocol (no probe branch in its Fig 4 sequence).
  const auto& ref_metrics = deployment.station(1).metrics();
  EXPECT_GE(ref_metrics.counter_value("station", "wakes"), 4u);
  EXPECT_EQ(ref_metrics.counter_value("bulk_transfer", "sessions"), 0u);
}

TEST(Observability, SameSeedExportsAreByteIdentical) {
  const auto render = [] {
    station::Fleet deployment{short_config().to_fleet_config()};
    deployment.run_days(3.0);
    obs::BenchReport report;
    report.bench = "determinism_probe";
    report.meta = {{"seed", std::to_string(deployment.config().seed)}};
    report.sections = {
        {"base", &deployment.station(0).metrics(),
         &deployment.station(0).journal()},
        {"reference", &deployment.station(1).metrics(),
         &deployment.station(1).journal()}};
    report.series = sim::to_obs_series(
        deployment.trace(), std::vector<std::string>{"base.voltage"});
    return obs::to_json(report);
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  // And it really is the documented schema.
  EXPECT_EQ(first.find("{\"schema\":\"glacsweb.bench.v1\""), 0u);
}

}  // namespace
}  // namespace gw
