// Micro-benchmarks (google-benchmark) for the library's hot kernels: the
// event queue that drives multi-year simulations (a burst drained through
// the heap, and the steady one-minute rescheduling the delay lanes serve),
// the MD5 used by the
// update pipeline, CRC32 framing checks, the battery integrator, one
// simulated minute of environment queries and of the PowerSystem tick, a
// full NACK protocol session, the Southampton query path (one wire
// parse, and handle_query per query kind), trace appends by series handle,
// and the save and restore of a day-180 world. These measure the
// *implementation*, not the paper; they exist so performance regressions
// in the substrate are visible.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "energy/component_model.h"
#include "env/environment.h"
#include "power/battery.h"
#include "power/chargers.h"
#include "power/power_system.h"
#include "proto/bulk_transfer.h"
#include "proto/messages.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "snapshot/error.h"
#include "station/deployment.h"
#include "station/southampton.h"
#include "util/crc32.h"
#include "util/md5.h"

namespace gw {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation simulation;
    for (int i = 0; i < int(state.range(0)); ++i) {
      simulation.schedule_at(sim::SimTime{(i * 7919) % 100000}, [] {});
    }
    simulation.run_all();
    benchmark::DoNotOptimize(simulation.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_KernelPeriodic(benchmark::State& state) {
  // range(0) one-minute sources spread across the minute, each
  // rescheduling itself through schedule_in like a station's power tick:
  // the kernel's steady traffic at glacbench's sim.pending_p50 (15 on
  // paper_season, 719 on fleet64_ops). One iteration is one event.
  struct Source {
    sim::Simulation* simulation;
    void operator()() const {
      simulation->schedule_in(sim::minutes(1), Source{simulation});
    }
  };
  const std::int64_t sources = state.range(0);
  sim::Simulation simulation;
  for (std::int64_t i = 0; i < sources; ++i) {
    simulation.schedule_at(sim::SimTime{i * 60'000 / sources},
                           Source{&simulation});
  }
  simulation.run_until(sim::SimTime{60'000});  // every source rescheduled
  for (auto _ : state) simulation.step();
  benchmark::DoNotOptimize(simulation.events_executed());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelPeriodic)->Arg(15)->Arg(719);

void BM_Md5Throughput(benchmark::State& state) {
  const std::string payload(std::size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Md5::digest(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(4096)->Arg(165 * 1024);

void BM_Crc32Throughput(benchmark::State& state) {
  const std::string payload(std::size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Throughput)->Arg(64)->Arg(165 * 1024);

void BM_BatteryTick(benchmark::State& state) {
  power::BatteryConfig config;
  power::LeadAcidBattery battery{config};
  for (auto _ : state) {
    battery.step(util::Amps{0.5}, util::Amps{0.3}, 1.0 / 60.0,
                 util::Celsius{-5.0});
    benchmark::DoNotOptimize(battery.soc());
    if (battery.empty()) battery.set_soc(0.9);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BatteryTick);

void BM_EnvironmentMinute(benchmark::State& state) {
  // One simulated minute of the weather a station's tick reads (air
  // temperature, irradiance, snow on the panel and the turbine, wind), for
  // range(0) stations sharing one Environment, as a serial Fleet's do.
  env::Environment environment{1};
  sim::SimTime t = sim::at_midnight(2009, 3, 1);
  for (auto _ : state) {
    for (int consumer = 0; consumer < int(state.range(0)); ++consumer) {
      benchmark::DoNotOptimize(environment.temperature().air(t));
      benchmark::DoNotOptimize(environment.solar().irradiance(t));
      benchmark::DoNotOptimize(environment.snow().panel_occlusion(t));
      benchmark::DoNotOptimize(environment.snow().turbine_buried(t));
      benchmark::DoNotOptimize(environment.wind().speed(t));
    }
    t += sim::minutes(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnvironmentMinute)->Arg(1)->Arg(2);

void BM_PowerTick(benchmark::State& state) {
  // One PowerSystem with the base station's chargers (solar + wind) and
  // five switched loads at their Table 1 draws, ticking once a simulated
  // minute on its own kernel; one iteration is one tick.
  sim::Simulation simulation{sim::at_midnight(2009, 3, 1)};
  env::Environment environment{1};
  power::PowerSystem power{simulation, environment,
                           power::PowerSystemConfig{}};
  power.add_charger(
      std::make_unique<power::SolarPanel>(power::SolarPanelConfig{}));
  power.add_charger(
      std::make_unique<power::WindTurbine>(power::WindTurbineConfig{}));
  const struct {
    const char* name;
    double watts;
    bool on;
  } loads[] = {{"msp430", 0.0006, true},
               {"gumstix", 0.9, false},
               {"gprs", 2.64, false},
               {"dgps", 3.6, false},
               {"radio", 3.96, false}};
  for (const auto& load : loads) {
    const power::LoadHandle handle = power.add_component(
        energy::switched_load(load.name, util::Watts{load.watts}));
    if (load.on) power.set_activity(handle, 1);
  }
  power.start();
  for (auto _ : state) {
    simulation.run_until(simulation.now() + sim::minutes(1));
    benchmark::DoNotOptimize(power.delivered_microjoules());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PowerTick);

void BM_NackSession(benchmark::State& state) {
  for (auto _ : state) {
    const env::Environment environment{1};
    proto::ProbeLink link{environment.melt(), util::Rng{3}};
    proto::ProbeStore store;
    for (std::uint32_t seq = 0; seq < std::uint32_t(state.range(0)); ++seq) {
      proto::ProbeReading reading;
      reading.seq = seq;
      store.add(reading);
    }
    proto::NackBulkTransfer protocol{link};
    const auto stats = protocol.run(store, sim::at_midnight(2009, 7, 20),
                                    sim::hours(12));
    benchmark::DoNotOptimize(stats.delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NackSession)->Arg(3000);

// A 64-station server shaped like fifteen days of uniform_fleet_config(64,
// 1): stations s000..s063 in pairs g000..g031, each uploading and reporting
// its state daily, every third one also beaconing.
station::SouthamptonServer query_server() {
  station::SouthamptonServer server;
  for (int i = 0; i < 64; ++i) {
    char name[8];
    char group[8];
    std::snprintf(name, sizeof name, "s%03d", i);
    std::snprintf(group, sizeof group, "g%03d", i / 2);
    server.sync().assign_group(name, group);
    for (int day = 0; day < 15; ++day) {
      const sim::SimTime at =
          sim::at_midnight(2008, 6, 1) + sim::days(day) + sim::hours(12);
      server.receive_file(name, "day" + std::to_string(day),
                          util::Bytes{std::int64_t(1 + i) * 40 * 1024}, at);
      server.sync().report_state(name,
                                 power::PowerState(2 + (day + i / 2) % 2), at);
      if (i % 3 == 0) server.receive_beacon(name, {"fw", "md5", true}, at);
    }
  }
  return server;
}

enum class QueryCase { kStats, kGroup, kDirectory };

void BM_HandleQuery(benchmark::State& state, QueryCase query) {
  // One handle_query round trip, request wire in, answer wire out, cycling
  // over every station or group of the 64-station server.
  auto server = query_server();
  const sim::SimTime now = sim::at_midnight(2008, 6, 16);
  std::vector<std::string> requests;
  for (int i = 0; i < 64; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "s%03d", i);
    char group[8];
    std::snprintf(group, sizeof group, "g%03d", i / 2);
    switch (query) {
      case QueryCase::kStats:
        requests.push_back(proto::StationStatsRequest{name}.encode());
        break;
      case QueryCase::kGroup:
        requests.push_back(proto::GroupStatusRequest{group}.encode());
        break;
      case QueryCase::kDirectory:
        requests.push_back(proto::DirectoryRequest{}.encode());
        break;
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_query(requests[next], now));
    next = (next + 1) % requests.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_HandleQuery, stats, QueryCase::kStats);
BENCHMARK_CAPTURE(BM_HandleQuery, group, QueryCase::kGroup);
BENCHMARK_CAPTURE(BM_HandleQuery, directory, QueryCase::kDirectory);

void BM_FormParse(benchmark::State& state) {
  // CRC check and field split of one station-stats answer, then a field
  // read, as every typed decode starts.
  const std::string wire =
      proto::StationStatsResponse{"s042", true, 15, 26419200, 5}.encode();
  for (auto _ : state) {
    const auto form = proto::Form::decode(wire);
    benchmark::DoNotOptimize(form.value().get("station"));
  }
  state.SetBytesProcessed(state.iterations() * std::int64_t(wire.size()));
}
BENCHMARK(BM_FormParse);

void BM_DeploymentDay(benchmark::State& state) {
  // Cost of simulating one full two-station deployment day.
  for (auto _ : state) {
    state.PauseTiming();
    station::DeploymentConfig config;
    config.trace_enabled = false;
    station::Fleet deployment{config.to_fleet_config()};
    state.ResumeTiming();
    deployment.run_days(1.0);
    benchmark::DoNotOptimize(deployment.station(0).stats().runs_completed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeploymentDay)->Unit(benchmark::kMillisecond);

void BM_TraceAppend(benchmark::State& state) {
  // One season of the paper preset's trace: its 13 series (voltage, state
  // and SoC of both stations, and seven probe conductivities), range(0)
  // 30-minute samples each, appended through handles declared once into a
  // fresh trace. One item is one append.
  std::vector<std::string> names;
  for (const char* station : {"base", "reference"}) {
    for (const char* quantity : {".voltage", ".state", ".soc"}) {
      names.push_back(station + std::string(quantity));
    }
  }
  for (int probe = 20; probe < 27; ++probe) {
    names.push_back("probe" + std::to_string(probe) + ".conductivity");
  }
  const std::int64_t samples = state.range(0);
  for (auto _ : state) {
    sim::Trace trace;
    std::vector<sim::SeriesId> series;
    series.reserve(names.size());
    for (const std::string& name : names) {
      series.push_back(trace.declare(name));
    }
    for (std::int64_t k = 0; k < samples; ++k) {
      const sim::SimTime t{k * 1'800'000};
      for (std::size_t s = 0; s < series.size(); ++s) {
        trace.add(series[s], t, double(k) + double(s));
      }
    }
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(state.iterations() * samples *
                          std::int64_t(names.size()));
}
BENCHMARK(BM_TraceAppend)->Arg(17520);

// The world glacbench's whatif_fork workload branches from: the paper
// preset at seed 1 under bench_fault_soak's scripted season, warmed to day
// 180 + 17 min and sealed there (a minute later per refusal, as glacbench
// retries a save that is not quiescent). Built once per process.
struct ForkSeal {
  station::FleetConfig config;
  std::unique_ptr<station::Fleet> world;
  std::vector<std::uint8_t> bytes;
};

const ForkSeal& fork_seal() {
  static const ForkSeal seal = [] {
    station::DeploymentConfig deployment;
    deployment.seed = 1;
    deployment.fault_spec =
        "gprs_outage      start=20d duration=7d  severity=1.0\n"
        "dgps_no_fix      start=35d duration=3d  severity=0.9\n"
        "cf_write_fail    start=45d duration=2d  severity=0.3\n"
        "server_down      start=50d duration=36h\n"
        "harvest_blackout start=70d duration=12d severity=1.0\n";
    ForkSeal built{deployment.to_fleet_config(), nullptr, {}};
    built.world = std::make_unique<station::Fleet>(built.config);
    sim::Simulation& kernel = built.world->simulation();
    kernel.run_until(sim::to_time(built.config.start) + sim::days(180) +
                     sim::minutes(17));
    for (;;) {
      try {
        built.bytes = built.world->save_snapshot();
        return built;
      } catch (const snapshot::SnapshotError& error) {
        if (error.code() != snapshot::SnapshotErrc::kNotQuiescent) throw;
        kernel.run_until(kernel.now() + sim::minutes(1));
      }
    }
  }();
  return seal;
}

void BM_SnapshotSave(benchmark::State& state) {
  // One save of the day-180 world, as a whatif_fork branch ends.
  const ForkSeal& seal = fork_seal();
  for (auto _ : state) {
    const std::vector<std::uint8_t> bytes = seal.world->save_snapshot();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          std::int64_t(seal.bytes.size()));
  state.counters["sealed_bytes"] = double(seal.bytes.size());
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMicrosecond);

void BM_SnapshotRestore(benchmark::State& state) {
  // One restore of the day-180 seal into a freshly constructed fleet, as a
  // whatif_fork branch begins; construction and teardown are not timed.
  const ForkSeal& seal = fork_seal();
  for (auto _ : state) {
    state.PauseTiming();
    auto fresh = std::make_unique<station::Fleet>(seal.config);
    state.ResumeTiming();
    fresh->restore_snapshot(seal.bytes);
    state.PauseTiming();
    fresh.reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() *
                          std::int64_t(seal.bytes.size()));
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace gw

BENCHMARK_MAIN();
