// Machine-readable export of the observability state: the registry, the
// journal, and time series, rendered to JSON ("glacsweb.bench.v1", the
// schema docs/OBSERVABILITY.md documents field by field).
//
// The benches use BenchReport + write_bench_json() to drop a
// BENCH_<name>.json next to their stdout tables, which is what makes the
// perf trajectory diffable across PRs: same seed, same schema, same key
// order — any change in the numbers is a change in the system.
//
// Determinism contract: all maps are ordered, all doubles are printed with
// "%.10g", and nothing host-dependent (wall time, paths, locale) enters the
// rendered text. Two identically-seeded runs must byte-match.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace gw::obs {

struct SeriesPoint {
  std::int64_t time_ms = 0;
  double value = 0.0;
};

// A named time series — the obs-level mirror of one sim::Trace series
// (sim/trace_export.h adapts; obs itself cannot see SimTime).
struct Series {
  std::string name;
  std::vector<SeriesPoint> points;
};

// One named slice of a report: a registry plus (optionally) its journal.
// Benches that observe several actors (base + reference station, or one rig
// per experiment) emit one section per actor.
struct ReportSection {
  std::string name;
  const MetricsRegistry* metrics = nullptr;  // required
  const EventJournal* journal = nullptr;     // optional
};

struct BenchReport {
  std::string bench;  // exported as BENCH_<bench>.json
  // Free-form provenance (seed, calendar window, knob settings). Ordered
  // at render time for determinism.
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<ReportSection> sections;
  std::vector<Series> series;
};

// --- JSON ----------------------------------------------------------------

[[nodiscard]] std::string to_json(const BenchReport& report);

// Renders a bare registry (no bench wrapper) — handy for tests and ad-hoc
// dumps.
[[nodiscard]] std::string registry_json(const MetricsRegistry& registry);

// Writes to_json(report) to `<directory>/BENCH_<bench>.json` and returns
// the path; empty string on I/O failure (benches warn but keep printing).
std::string write_bench_json(const BenchReport& report,
                             const std::string& directory = ".");

// JSON string escaping, exposed for the doc examples and tests.
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace gw::obs
