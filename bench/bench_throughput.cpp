// Simulation throughput: how fast the substrate itself runs.
//
// Every reproduced figure is a Monte Carlo sweep over the event kernel, so
// kernel events/sec and runner trials/sec are the two numbers that bound
// how much design-space exploration a change can afford. This bench
// measures both — the event kernel on a schedule-then-drain burst, and
// MonteCarloRunner scaling on isolated probe-survival worlds — and exports
// BENCH_throughput.json (schema glacsweb.bench.v1) so the perf trajectory
// accumulates change over change. No model sends the burst shape (each
// reschedules itself one event at a time), so the kernel rate here prices
// a deep heap, not the simulator's own traffic; docs/PERFORMANCE.md.
//
// Unlike every other bench export, these numbers are wall-clock
// measurements: the JSON is *not* byte-stable across runs or hosts (meta
// marks host_dependent=true). The simulation results inside each trial
// remain bit-reproducible; see docs/PERFORMANCE.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runner/monte_carlo_runner.h"
#include "sim/simulation.h"
#include "station/probe_node.h"
#include "util/strings.h"

namespace gw {
namespace {

// gwlint: allow(banned-api): wall-clock throughput timing is this bench's
// purpose; results are exported under host_dependent metadata
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median-of-reps events/sec for a schedule-then-drain burst of n events
// (the BM_EventQueueScheduleRun shape: pseudo-random timestamps, empty
// callbacks, so the kernel itself is the entire cost; n events pending at
// once, which no simulated workload reaches).
double kernel_events_per_sec(int n) {
  constexpr int kReps = 7;
  std::vector<double> rates;
  rates.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Simulation simulation;
    const auto start = Clock::now();
    for (int i = 0; i < n; ++i) {
      simulation.schedule_at(sim::SimTime{(i * 7919) % 100000}, [] {});
    }
    simulation.run_all();
    rates.push_back(double(n) / seconds_since(start));
  }
  std::nth_element(rates.begin(), rates.begin() + kReps / 2, rates.end());
  return rates[kReps / 2];
}

// One isolated probe-survival world, sized so a trial is a few thousand
// kernel events: 7 probes sampling 4x/day across two years.
std::uint64_t survival_trial(std::size_t trial) {
  const sim::SimTime deployed = sim::at_midnight(2008, 9, 1);
  sim::Simulation simulation{deployed};
  env::Environment environment{7};
  const util::Rng trial_rng =
      util::Rng{2008}.fork("throughput-trial-" + std::to_string(trial));
  std::vector<std::unique_ptr<station::ProbeNode>> probes;
  for (int i = 0; i < 7; ++i) {
    station::ProbeNodeConfig config;
    config.probe_id = 20 + i;
    config.sample_interval = sim::hours(6);
    probes.push_back(std::make_unique<station::ProbeNode>(
        simulation, environment,
        trial_rng.fork("probe-" + std::to_string(config.probe_id)), config));
  }
  simulation.run_until(deployed + sim::days(730));
  return simulation.events_executed();
}

void run() {
  bench::heading("simulation throughput (kernel + Monte Carlo runner)");

  obs::MetricsRegistry metrics;

  bench::subheading("1. event kernel: schedule+drain events/sec");
  bench::row({"Events", "Mevents/sec"}, {10, 12});
  for (const int n : {1000, 10000, 100000}) {
    const double rate = kernel_events_per_sec(n);
    bench::row({std::to_string(n), util::format_fixed(rate / 1e6, 2)},
               {10, 12});
    metrics.gauge("kernel", "events_per_sec_" + std::to_string(n)).set(rate);
  }

  bench::subheading("2. runner scaling: probe-survival trials/sec");
  constexpr std::size_t kTrials = 64;
  std::vector<unsigned> thread_counts{1, 2, 4};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }
  // Serial baseline: warmed up and best-of-2, so a cold first run (page
  // faults, lazy allocation) cannot deflate the denominator every other
  // thread count is judged against.
  double serial_elapsed = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    runner::MonteCarloRunner pool{1};
    const auto start = Clock::now();
    pool.run(kTrials, survival_trial);
    const double elapsed = seconds_since(start);
    if (rep == 0 || elapsed < serial_elapsed) serial_elapsed = elapsed;
  }

  bench::row({"Threads", "Trials/sec", "Speedup vs 1", "Events/sec"},
             {8, 11, 13, 11});
  std::string oversubscribed_counts;
  for (const unsigned threads : thread_counts) {
    runner::MonteCarloRunner pool{threads};
    const auto start = Clock::now();
    const auto events = pool.run(kTrials, survival_trial);
    const double elapsed = seconds_since(start);
    std::uint64_t total_events = 0;
    for (const std::uint64_t count : events) total_events += count;
    const double rate = double(kTrials) / elapsed;
    // A pool wider than the machine measures context-switch overhead, not
    // scaling: exporting 0.57 as "speedup" on a 1-core host reads as a
    // perf regression in the BENCH diff. Clamp the denominator to the
    // serial time for oversubscribed counts (speedup floors at 1.0 there);
    // genuine wins still show, and meta records which counts were clamped.
    const bool oversubscribed = threads > hw;
    const double denominator =
        oversubscribed ? std::min(elapsed, serial_elapsed) : elapsed;
    const double speedup = serial_elapsed / denominator;
    if (oversubscribed) {
      if (!oversubscribed_counts.empty()) oversubscribed_counts += ",";
      oversubscribed_counts += std::to_string(threads);
    }
    bench::row({std::to_string(threads), util::format_fixed(rate, 1),
                util::format_fixed(speedup, 2) +
                    (oversubscribed ? " (oversub)" : ""),
                util::format_fixed(double(total_events) / elapsed / 1e6, 2) +
                    "M"},
               {8, 11, 13, 11});
    const std::string suffix = "_threads_" + std::to_string(threads);
    metrics.gauge("runner", "trials_per_sec" + suffix).set(rate);
    metrics.gauge("runner", "speedup" + suffix).set(speedup);
    metrics.gauge("runner", "sim_events_per_sec" + suffix)
        .set(double(total_events) / elapsed);
  }
  metrics.gauge("runner", "hardware_concurrency").set(double(hw));
  bench::note("speedup is bounded by the machine's core count (" +
              std::to_string(hw) + " here); oversubscribed counts are "
              "clamped to 1.0. Trial results themselves are byte-identical "
              "at every thread count");

  obs::BenchReport report;
  report.bench = "throughput";
  report.meta = {{"hardware_concurrency", std::to_string(hw)},
                 {"host_dependent", "true"},
                 {"kernel_workload", "schedule+drain, empty callbacks"},
                 {"oversubscribed_thread_counts",
                  oversubscribed_counts.empty() ? "none"
                                                : oversubscribed_counts},
                 {"runner_workload",
                  "64 probe-survival worlds, 7 probes, 730 days"},
                 {"speedup_policy",
                  "best-of-2 serial baseline; counts wider than the host "
                  "are clamped to >= 1.0"}};
  report.sections = {{"throughput", &metrics, nullptr}};
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
