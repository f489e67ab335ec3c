// Recording the world must not change it (Eco's rule, PAPERS.md: measure
// at the source without perturbing what you measure). The faulted paper
// preset runs 30 days with the trace off, every 30 minutes and every 10
// minutes; every station's metrics and journal export, every probe store
// and the server's ledgers must be byte-identical across the three runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/export.h"
#include "snapshot/archive.h"
#include "station/deployment.h"

namespace gw::station {
namespace {

// The soak plan's faults, pulled inside a 30-day horizon.
constexpr const char* kFaultSpec =
    "gprs_outage      start=5d  duration=7d  severity=1.0\n"
    "dgps_no_fix      start=14d duration=2d  severity=0.9\n"
    "cf_write_fail    start=16d duration=1d  severity=0.3\n"
    "server_down      start=18d duration=12h\n"
    "harvest_blackout start=22d duration=4d  severity=1.0\n";

struct Observed {
  std::uint64_t readings_delivered = 0;  // by the base station's probes
  std::string stations;  // metrics + journal export of every station
  std::vector<std::vector<std::uint8_t>> probe_stores;
  std::vector<std::uint8_t> server;
};

Observed run(bool trace_enabled, sim::Duration trace_interval) {
  DeploymentConfig deployment;
  deployment.fault_spec = kFaultSpec;
  deployment.trace_enabled = trace_enabled;
  deployment.trace_interval = trace_interval;
  Fleet fleet{deployment.to_fleet_config()};
  fleet.run_days(30);

  obs::BenchReport report;
  report.bench = "trace_invariance";
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    const Station& station = fleet.station(s);
    report.sections.push_back(
        {station.name(), &station.metrics(), &station.journal()});
  }
  Observed observed;
  observed.readings_delivered =
      fleet.station(0).stats().probe_readings_delivered;
  observed.stations = obs::to_json(report);
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    for (auto& probe : fleet.probes(s)) {
      snapshot::Saver saver;
      probe->store().persist(saver);
      observed.probe_stores.push_back(saver.take());
    }
  }
  snapshot::Saver saver;
  fleet.server().persist(saver);
  observed.server = saver.take();
  return observed;
}

TEST(TraceInvariance, TraceCadenceNeverChangesTheWorld) {
  const Observed off = run(false, sim::minutes(30));
  const Observed every30 = run(true, sim::minutes(30));
  const Observed every10 = run(true, sim::minutes(10));

  // The season did something worth comparing: a month of hourly readings
  // from seven probes crossed the NACK protocol.
  ASSERT_EQ(off.probe_stores.size(), 7u);
  ASSERT_GT(off.readings_delivered, 3000u);

  for (const Observed* traced : {&every30, &every10}) {
    EXPECT_EQ(traced->stations, off.stations);
    ASSERT_EQ(traced->probe_stores.size(), off.probe_stores.size());
    for (std::size_t p = 0; p < off.probe_stores.size(); ++p) {
      EXPECT_EQ(traced->probe_stores[p], off.probe_stores[p])
          << "probe " << p;
    }
    EXPECT_EQ(traced->server, off.server);
  }
}

}  // namespace
}  // namespace gw::station
