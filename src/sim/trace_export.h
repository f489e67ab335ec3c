// Adapters from sim::Trace to the obs export types.
//
// obs sits *below* sim in the dependency order (it speaks raw int64
// milliseconds so that every layer can be instrumented), so the conversion
// from SimTime-stamped trace series to obs::Series lives here on the sim
// side. Benches call these to ship their Fig 5 / Fig 6 raw material inside
// a BENCH_*.json.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "obs/export.h"
#include "sim/trace.h"

namespace gw::sim {

// One series, its runs expanded to points, optionally windowed to
// [from, to). Throws (via Trace::series) if the series does not exist.
[[nodiscard]] inline obs::Series to_obs_series(
    const Trace& trace, const std::string& name,
    SimTime from = SimTime{std::numeric_limits<std::int64_t>::min()},
    SimTime to = SimTime{std::numeric_limits<std::int64_t>::max()}) {
  obs::Series series;
  series.name = name;
  for (const auto& point : trace.series(name)) {
    if (point.time < from || point.time >= to) continue;
    series.points.push_back(
        obs::SeriesPoint{point.time.millis_since_epoch(), point.value});
  }
  return series;
}

// All named series, windowed; preserves the given order (export order).
[[nodiscard]] inline std::vector<obs::Series> to_obs_series(
    const Trace& trace, const std::vector<std::string>& names,
    SimTime from = SimTime{std::numeric_limits<std::int64_t>::min()},
    SimTime to = SimTime{std::numeric_limits<std::int64_t>::max()}) {
  std::vector<obs::Series> all;
  all.reserve(names.size());
  for (const auto& name : names) {
    all.push_back(to_obs_series(trace, name, from, to));
  }
  return all;
}

}  // namespace gw::sim
