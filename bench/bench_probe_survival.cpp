// §V — probe longevity: "The probes deployed in the summer of 2008 survived
// longer than previous generations (4/7 after one year, with fewer
// vanishing offline and data is being produced by two after 18 months under
// the ice)."
//
// Monte-Carlo over the probe wear-out model (Weibull shape 2, scale 488 d,
// fitted to exactly those two points) — expected survivors out of 7 at one
// year and 18 months, plus the survival curve and the distribution of
// survivor counts across hypothetical deployments.
//
// Trials run on runner::MonteCarloRunner: each builds an isolated world
// from its trial index (probe streams are named util::Rng forks, so seeds
// are collision-proof by construction) and the aggregation below walks the
// results in trial order — the printed numbers are identical at any thread
// count (GW_BENCH_THREADS overrides the pool size).
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "runner/monte_carlo_runner.h"
#include "station/probe_node.h"
#include "util/strings.h"

namespace gw {
namespace {

// Survival curve samples.
constexpr std::array<int, 8> kCurveDays{90, 180, 270, 365, 455, 547, 640, 730};

struct TrialOutcome {
  int alive_1y = 0;
  int alive_18m = 0;
  std::array<int, kCurveDays.size()> curve_alive{};
};

void run() {
  bench::heading("Sec V: probe survival (7 deployed, summer 2008)");

  constexpr int kTrials = 2000;
  constexpr int kProbesPerTrial = 7;
  const sim::SimTime deployed = sim::at_midnight(2008, 9, 1);
  const util::Rng bench_rng{2008};

  runner::MonteCarloRunner pool{bench::thread_count()};
  // gwlint: allow(banned-api): wall-clock trial timing, printed to
  // stderr only
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<TrialOutcome> outcomes =
      pool.run(kTrials, [&](std::size_t trial) {
        sim::Simulation simulation{deployed};
        env::Environment environment{7};
        const util::Rng trial_rng =
            bench_rng.fork("survival-trial-" + std::to_string(trial));
        std::vector<std::unique_ptr<station::ProbeNode>> probes;
        for (int i = 0; i < kProbesPerTrial; ++i) {
          station::ProbeNodeConfig config;
          config.probe_id = 20 + i;
          config.sample_interval = sim::days(3650);  // no samples: fast run
          probes.push_back(std::make_unique<station::ProbeNode>(
              simulation, environment,
              trial_rng.fork("probe-" + std::to_string(config.probe_id)),
              config));
        }
        TrialOutcome outcome;
        for (std::size_t c = 0; c < kCurveDays.size(); ++c) {
          simulation.run_until(deployed + sim::days(kCurveDays[c]));
          int alive = 0;
          for (const auto& probe : probes) {
            if (probe->alive()) ++alive;
          }
          outcome.curve_alive[c] = alive;
          if (kCurveDays[c] == 365) outcome.alive_1y = alive;
          if (kCurveDays[c] == 547) outcome.alive_18m = alive;
        }
        return outcome;
      });
  const double wall_seconds =
      // gwlint: allow(banned-api): wall-clock trial timing, printed to
      // stderr only
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  int survivors_1y[kProbesPerTrial + 1] = {};
  int survivors_18m[kProbesPerTrial + 1] = {};
  double mean_1y = 0.0;
  double mean_18m = 0.0;
  double curve_alive[kCurveDays.size()] = {};
  for (const TrialOutcome& outcome : outcomes) {
    ++survivors_1y[outcome.alive_1y];
    ++survivors_18m[outcome.alive_18m];
    mean_1y += outcome.alive_1y;
    mean_18m += outcome.alive_18m;
    for (std::size_t c = 0; c < kCurveDays.size(); ++c) {
      curve_alive[c] += outcome.curve_alive[c];
    }
  }

  bench::subheading("expected survivors out of 7");
  bench::paper_vs_measured(
      "alive after 1 year", "4/7",
      util::format_fixed(mean_1y / kTrials, 2) + "/7 (mean over " +
          std::to_string(kTrials) + " deployments)");
  bench::paper_vs_measured(
      "alive after 18 months", "2/7",
      util::format_fixed(mean_18m / kTrials, 2) + "/7");

  bench::subheading("survival curve (fraction of probes alive)");
  bench::row({"Day", "Alive fraction"}, {6, 14});
  for (std::size_t c = 0; c < kCurveDays.size(); ++c) {
    bench::row({std::to_string(kCurveDays[c]),
                util::format_fixed(
                    curve_alive[c] / double(kTrials * kProbesPerTrial), 3)},
               {6, 14});
  }

  bench::subheading("distribution of 1-year survivor counts");
  for (int k = 0; k <= kProbesPerTrial; ++k) {
    const double fraction = survivors_1y[k] / double(kTrials);
    std::string bar(std::size_t(fraction * 60.0), '#');
    std::printf("  %d/7: %5.1f%% %s\n", k, 100.0 * fraction, bar.c_str());
  }
  bench::note(
      "the paper's 4/7 at one year sits near the mode of the fitted model; "
      "2 at 18 months matches the wear-out tail");
  // Wall-clock: stderr only, so stdout is the same on every run.
  std::fprintf(stderr, "  %d trials on %u threads in %.3f s\n", kTrials,
               pool.threads(), wall_seconds);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
