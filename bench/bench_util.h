// Shared formatting helpers for the reproduction benches. Each bench binary
// regenerates one table/figure/claim from the paper and prints it in a form
// directly comparable with the original (see EXPERIMENTS.md), and — for the
// instrumented benches — drops a machine-readable BENCH_<name>.json beside
// it (schema glacsweb.bench.v1, see docs/OBSERVABILITY.md) so the numbers
// are diffable across PRs.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/export.h"
#include "util/strings.h"

namespace gw::bench {

// Thread count for MonteCarloRunner-driven benches: GW_BENCH_THREADS pins
// it (useful for scaling curves and the determinism tests); unset or 0
// means hardware concurrency. Results are byte-identical either way — the
// knob only changes wall-clock.
inline unsigned thread_count() {
  if (const char* env = std::getenv("GW_BENCH_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0') {
      std::fprintf(stderr,
                   "[warn] GW_BENCH_THREADS=\"%s\" is not a number; "
                   "falling back to hardware concurrency\n",
                   env);
      return 0;
    }
    return static_cast<unsigned>(parsed);
  }
  return 0;
}

// Shard count for the sharded fleet points in bench_fleet_scale:
// GW_BENCH_FLEET_SHARDS pins it (scripts/check.sh diffs the export at 1
// shard vs this default as the partition-invariance gate); unset or
// invalid means 4. Like GW_BENCH_THREADS, the knob only changes
// wall-clock, never a byte of BENCH_fleet_scale.json.
inline std::size_t fleet_shards() {
  if (const char* env = std::getenv("GW_BENCH_FLEET_SHARDS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return std::size_t(parsed);
    }
    std::fprintf(stderr,
                 "[warn] GW_BENCH_FLEET_SHARDS=\"%s\" is not a positive "
                 "number; using 4\n",
                 env);
  }
  return 4;
}

// Replay mode for bench_fork_warmup: GW_BENCH_FORK_MODE=cold replays every
// branch trial from day 0 instead of restoring the day-20 snapshot.
// scripts/check.sh byte-diffs the export across the two modes — the fork is
// only an optimisation if no exported byte can tell the difference.
inline bool fork_mode_cold() {
  const char* env = std::getenv("GW_BENCH_FORK_MODE");
  return env != nullptr && std::string(env) == "cold";
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void subheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

// Prints a fixed-width row from already-formatted cells.
inline void row(const std::vector<std::string>& cells,
                const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto width = std::size_t(i < widths.size() ? widths[i] : 12);
    line += gw::util::pad_right(cells[i], width);
    line += "  ";
  }
  std::printf("%s\n", line.c_str());
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

inline void paper_vs_measured(const std::string& what,
                              const std::string& paper,
                              const std::string& measured) {
  std::printf("  %-46s paper: %-18s measured: %s\n", what.c_str(),
              paper.c_str(), measured.c_str());
}

// Writes the report as BENCH_<name>.json in the working directory and says
// so on stdout (or warns and keeps going — the printed tables remain the
// human-facing output either way).
inline void export_report(const obs::BenchReport& report) {
  const std::string path = obs::write_bench_json(report);
  if (path.empty()) {
    std::printf("\n  [warn] could not write BENCH_%s.json\n",
                report.bench.c_str());
  } else {
    std::printf("\n  wrote %s (schema glacsweb.bench.v1)\n", path.c_str());
  }
}

}  // namespace gw::bench
