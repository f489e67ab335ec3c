// Trace recorder: named time series.
//
// The benches regenerate the paper's figures by sampling model state into a
// Trace and printing the series (Fig 5: voltage + power state; Fig 6: probe
// conductivities). Tests use traces to assert on shapes (diurnal maxima near
// midday, 2-hourly dGPS dips, melt-onset rise).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.h"
#include "snapshot/archive.h"

namespace gw::sim {

struct TracePoint {
  SimTime time;
  double value = 0.0;

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(time);
    ar.value(value);
  }

  // The 16 bytes persist() writes, for the whole-series codec.
  static constexpr std::size_t kBytes = 16;
  void encode(std::uint8_t* at) const {
    snapshot::store_le64(at, std::uint64_t(time.millis_since_epoch()));
    snapshot::store_le64(at + 8, std::bit_cast<std::uint64_t>(value));
  }
  void decode(const std::uint8_t* at) {
    time = SimTime{std::int64_t(snapshot::load_le64(at))};
    value = std::bit_cast<double>(snapshot::load_le64(at + 8));
  }
};

class Trace {
 public:
  void add(const std::string& series, SimTime t, double value) {
    series_[series].push_back(TracePoint{t, value});
  }

  // Declares a series without adding a point, so exports (and the analysis
  // helpers' empty-series contract) can see it before the first sample.
  void declare(const std::string& series) { series_[series]; }

  [[nodiscard]] const std::vector<TracePoint>& series(
      const std::string& name) const {
    const auto it = series_.find(name);
    if (it == series_.end()) {
      throw std::out_of_range("Trace: no series named " + name);
    }
    return it->second;
  }

  [[nodiscard]] bool has_series(const std::string& name) const {
    return series_.contains(name);
  }

  [[nodiscard]] std::vector<std::string> series_names() const {
    std::vector<std::string> names;
    names.reserve(series_.size());
    for (const auto& [name, points] : series_) names.push_back(name);
    return names;
  }

  // The bytes of ar.value(series_), but each series moves as one block of
  // points: a save claims once and a restore bounds-checks once per
  // series, instead of twice per point.
  template <class Archive>
  void persist(Archive& ar) {
    ar.entries(series_, [&ar](auto& points) { ar.records(points); });
  }

  // --- small analysis helpers used by tests and benches -----------------
  //
  // Contract: all helpers throw std::out_of_range for a missing series
  // (via series()) and for an empty one — never UB (`points.at(0)` on
  // min/max) or a silent NaN (`sum/0` on mean) depending on which helper
  // happened to be called.

  [[nodiscard]] double min_value(const std::string& name) const {
    const auto& points = non_empty_series(name);
    double m = points.front().value;
    for (const auto& point : points) m = std::min(m, point.value);
    return m;
  }

  [[nodiscard]] double max_value(const std::string& name) const {
    const auto& points = non_empty_series(name);
    double m = points.front().value;
    for (const auto& point : points) m = std::max(m, point.value);
    return m;
  }

  [[nodiscard]] double mean_value(const std::string& name) const {
    const auto& points = non_empty_series(name);
    double sum = 0.0;
    for (const auto& point : points) sum += point.value;
    return sum / double(points.size());
  }

  // Value of the last point at or before t (throws if none, including the
  // boundary case t strictly before the first sample).
  [[nodiscard]] double value_at(const std::string& name, SimTime t) const {
    const auto& points = series(name);
    const TracePoint* best = nullptr;
    for (const auto& point : points) {
      if (point.time <= t) best = &point;
    }
    if (best == nullptr) throw std::out_of_range("Trace: no point before t");
    return best->value;
  }

 private:
  [[nodiscard]] const std::vector<TracePoint>& non_empty_series(
      const std::string& name) const {
    const auto& points = series(name);
    if (points.empty()) {
      throw std::out_of_range("Trace: empty series " + name);
    }
    return points;
  }

  std::map<std::string, std::vector<TracePoint>> series_;
};

}  // namespace gw::sim
