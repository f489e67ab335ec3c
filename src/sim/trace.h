// Trace recorder: named time series.
//
// The benches regenerate the paper's figures by sampling model state into a
// Trace and printing the series (Fig 5: voltage + power state; Fig 6: probe
// conductivities). Tests use traces to assert on shapes (diurnal maxima near
// midday, 2-hourly dGPS dips, melt-onset rise).
//
// A series keeps its times as runs and its values as one block. A run
// (start, step, count) stands for the times start + k·step, k < count. A
// fleet samples every trace_interval, so a regular series is one run, 8
// bytes a sample; a dead probe's skipped samples start a new run. Appends
// go through the SeriesId that declare() returns, resolved once.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.h"
#include "snapshot/archive.h"
#include "snapshot/error.h"

namespace gw::sim {

struct TracePoint {
  SimTime time;
  double value = 0.0;
};

// One series of one Trace, from Trace::declare(). It stays valid for the
// life of that trace: a restore fills declared series in place.
enum class SeriesId : std::uint32_t {};

// The times start_ms + k * step_ms for k < count. A one-point run has step
// 0; it takes its step from the point that follows.
struct TraceRun {
  std::int64_t start_ms = 0;
  std::int64_t step_ms = 0;
  std::uint64_t count = 0;

  // The time that would extend the run, start + step × count; none when
  // that overflows.
  [[nodiscard]] std::optional<std::int64_t> next_ms() const {
    std::int64_t span = 0;
    std::int64_t next = 0;
    if (__builtin_mul_overflow(step_ms, count, &span) ||
        __builtin_add_overflow(start_ms, span, &next)) {
      return std::nullopt;
    }
    return next;
  }
  [[nodiscard]] std::int64_t time_ms(std::uint64_t k) const {
    return start_ms + step_ms * std::int64_t(k);
  }
};

// One series: its closed runs, the open run the next sample may extend, and
// one value per sample. Only the open run lives inline, so a regular series
// allocates nothing but its values.
class TraceSeries {
 public:
  // Extends the open run when `t_ms` is its next time (a one-point run takes
  // t_ms − start as its step); otherwise closes it and opens a new one.
  void add(std::int64_t t_ms, double value) {
    if (open_.count == 1) {
      std::int64_t step = 0;
      if (__builtin_sub_overflow(t_ms, open_.start_ms, &step)) {
        throw std::out_of_range("Trace: samples more than 2^63 ms apart");
      }
      open_.step_ms = step;
      open_.count = 2;
    } else if (open_.count > 1 && open_.next_ms() == t_ms) {
      ++open_.count;
    } else {
      if (open_.count > 0) closed_.push_back(open_);
      open_ = TraceRun{t_ms, 0, 1};
    }
    values_.push_back(value);
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] std::size_t run_count() const {
    return closed_.size() + (open_.count > 0 ? 1 : 0);
  }
  [[nodiscard]] const TraceRun& run(std::size_t index) const {
    return index < closed_.size() ? closed_[index] : open_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  // The run count, the runs as one block of (start, step, count) words,
  // the value count and the values as one block of IEEE-754 words. A load
  // bounds-checks both counts before it allocates, and takes only the
  // runs the appender writes: no empty run, a one-point run only last and
  // with step 0, no two runs the appender would have merged, counts that
  // sum to the value count and no time past the int64 range. So every
  // payload it accepts re-saves to the same bytes.
  template <class Archive>
  void persist(Archive& ar) {
    if constexpr (Archive::kIsSaver) {
      const std::size_t runs = run_count();
      ar.value(std::uint64_t(runs));
      if (std::uint8_t* at = ar.block(runs * kRunBytes)) {
        for (const TraceRun& closed : closed_) {
          encode(closed, at);
          at += kRunBytes;
        }
        if (open_.count > 0) encode(open_, at);
      }
      ar.value(std::uint64_t(values_.size()));
      if (std::uint8_t* at = ar.block(values_.size() * 8)) {
        for (const double value : values_) {
          snapshot::store_le64(at, std::bit_cast<std::uint64_t>(value));
          at += 8;
        }
      }
    } else {
      load(ar);
    }
  }

 private:
  static constexpr std::size_t kRunBytes = 24;

  static void encode(const TraceRun& run, std::uint8_t* at) {
    snapshot::store_le64(at, std::uint64_t(run.start_ms));
    snapshot::store_le64(at + 8, std::uint64_t(run.step_ms));
    snapshot::store_le64(at + 16, run.count);
  }
  static TraceRun decode(const std::uint8_t* at) {
    return TraceRun{std::int64_t(snapshot::load_le64(at)),
                    std::int64_t(snapshot::load_le64(at + 8)),
                    snapshot::load_le64(at + 16)};
  }

  void load(snapshot::Loader& ar) {
    const std::uint64_t runs = ar.take_u64();
    const std::uint8_t* run_at = ar.block(runs, kRunBytes).data();
    const std::uint64_t values = ar.take_u64();
    const std::uint8_t* value_bytes = ar.block(values, 8).data();

    const auto refuse_run = [&ar](std::uint64_t r, const char* what) {
      ar.refuse(snapshot::SnapshotErrc::kStateMismatch,
                "trace run " + std::to_string(r) + " " + what);
    };
    std::uint64_t total = 0;
    TraceRun previous;
    for (std::uint64_t r = 0; r < runs; ++r) {
      const TraceRun run = decode(run_at + r * kRunBytes);
      if (run.count == 0) refuse_run(r, "holds no samples");
      if (run.count == 1 && run.step_ms != 0) {
        refuse_run(r, "holds one sample but has a step");
      }
      if (run.count == 1 && r + 1 != runs) {
        refuse_run(r, "holds one sample but is not the last run");
      }
      if (!TraceRun{run.start_ms, run.step_ms, run.count - 1}.next_ms()) {
        refuse_run(r, "runs past the int64 time range");
      }
      if (r > 0 && previous.next_ms() == run.start_ms) {
        refuse_run(r, "continues the run before it");
      }
      if (run.count > values - total) {
        refuse_run(r, "runs past the series' values");
      }
      total += run.count;
      previous = run;
    }
    if (total != values) {
      ar.refuse(snapshot::SnapshotErrc::kStateMismatch,
                "trace runs hold " + std::to_string(total) +
                    " samples but the series has " + std::to_string(values) +
                    " values");
    }

    closed_.clear();
    open_ = TraceRun{};
    if (runs > 0) {
      closed_.reserve(std::size_t(runs - 1));
      for (std::uint64_t r = 0; r + 1 < runs; ++r) {
        closed_.push_back(decode(run_at + r * kRunBytes));
      }
      open_ = decode(run_at + (runs - 1) * kRunBytes);
    }
    // Room to grow as much again: a restored world samples again within
    // the half hour, and a series sized exactly would then reallocate and
    // copy its whole block.
    values_.clear();
    values_.reserve(2 * std::size_t(values));
    values_.resize(std::size_t(values));
    for (double& value : values_) {
      value = std::bit_cast<double>(snapshot::load_le64(value_bytes));
      value_bytes += 8;
    }
  }

  std::vector<TraceRun> closed_;
  TraceRun open_;
  std::vector<double> values_;
};

// A read-only view of one series as points, its runs expanded: size(),
// operator[] and iteration yield TracePoints. It stays valid while the
// trace lives and declares no further series.
class SeriesView {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using value_type = TracePoint;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TracePoint;

    iterator() = default;
    TracePoint operator*() const {
      return TracePoint{SimTime{series_->run(run_).time_ms(k_)},
                        series_->values()[index_]};
    }
    iterator& operator++() {
      ++index_;
      if (++k_ == series_->run(run_).count) {
        ++run_;
        k_ = 0;
      }
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class SeriesView;
    iterator(const TraceSeries* series, std::size_t index)
        : series_(series),
          run_(index == 0 ? 0 : series->run_count()),
          index_(index) {}

    const TraceSeries* series_ = nullptr;
    std::size_t run_ = 0;     // the run holding index_
    std::uint64_t k_ = 0;     // index_'s place in that run
    std::size_t index_ = 0;   // the sample, and its value
  };

  explicit SeriesView(const TraceSeries& series) : series_(&series) {}

  [[nodiscard]] std::size_t size() const { return series_->size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  // The number of runs the times are kept in.
  [[nodiscard]] std::size_t runs() const { return series_->run_count(); }

  [[nodiscard]] TracePoint operator[](std::size_t index) const {
    std::uint64_t k = index;
    std::size_t r = 0;
    while (k >= series_->run(r).count) k -= series_->run(r++).count;
    return TracePoint{SimTime{series_->run(r).time_ms(k)},
                      series_->values()[index]};
  }

  [[nodiscard]] iterator begin() const { return iterator(series_, 0); }
  [[nodiscard]] iterator end() const { return iterator(series_, size()); }

 private:
  const TraceSeries* series_;
};

class Trace {
 public:
  // The handle of series `name`, declared empty if it is new, so exports
  // (and the analysis helpers' empty-series contract) can see it before
  // the first sample.
  SeriesId declare(const std::string& name) {
    const auto [it, added] =
        by_name_.try_emplace(name, SeriesId(series_.size()));
    if (added) series_.emplace_back();
    return it->second;
  }

  // Appends a sample to a declared series.
  void add(SeriesId id, SimTime t, double value) {
    series_[std::size_t(id)].add(t.millis_since_epoch(), value);
  }

  [[nodiscard]] SeriesView series(const std::string& name) const {
    return SeriesView(named(name));
  }

  [[nodiscard]] bool has_series(const std::string& name) const {
    return by_name_.contains(name);
  }

  [[nodiscard]] std::vector<std::string> series_names() const {
    std::vector<std::string> names;
    names.reserve(by_name_.size());
    for (const auto& [name, id] : by_name_) names.push_back(name);
    return names;
  }

  // The series in name order: a count, then each name and its series.
  // A trace with no series (a standalone one) takes the series the payload
  // names. A trace that has declared series, as a fleet's has, fills them
  // in place, so their handles stay valid; the payload must name exactly
  // those, or the load is refused with kStateMismatch.
  template <class Archive>
  void persist(Archive& ar) {
    if constexpr (Archive::kIsSaver) {
      ar.value(std::uint64_t(by_name_.size()));
      for (const auto& [name, id] : by_name_) {
        ar.value(name);
        ar.value(series_[std::size_t(id)]);
      }
    } else {
      load(ar);
    }
  }

  // --- small analysis helpers used by tests and benches -----------------
  //
  // Contract: all helpers throw std::out_of_range for a missing series
  // (via named()) and for an empty one — never UB (`points.at(0)` on
  // min/max) or a silent NaN (`sum/0` on mean) depending on which helper
  // happened to be called.

  [[nodiscard]] double min_value(const std::string& name) const {
    const std::vector<double>& values = non_empty_values(name);
    double m = values.front();
    for (const double value : values) m = std::min(m, value);
    return m;
  }

  [[nodiscard]] double max_value(const std::string& name) const {
    const std::vector<double>& values = non_empty_values(name);
    double m = values.front();
    for (const double value : values) m = std::max(m, value);
    return m;
  }

  [[nodiscard]] double mean_value(const std::string& name) const {
    const std::vector<double>& values = non_empty_values(name);
    double sum = 0.0;
    for (const double value : values) sum += value;
    return sum / double(values.size());
  }

  // Value of the last point at or before t (throws if none, including the
  // boundary case t strictly before the first sample). Walks the runs:
  // within one, the last such point is found by division.
  [[nodiscard]] double value_at(const std::string& name, SimTime t) const {
    const TraceSeries& series = named(name);
    const std::int64_t t_ms = t.millis_since_epoch();
    std::optional<std::size_t> best;
    std::size_t first = 0;
    for (std::size_t r = 0; r < series.run_count(); ++r) {
      const TraceRun& run = series.run(r);
      if (const auto k = last_at_or_before(run, t_ms)) best = first + *k;
      first += std::size_t(run.count);
    }
    if (!best) throw std::out_of_range("Trace: no point before t");
    return series.values()[*best];
  }

 private:
  void load(snapshot::Loader& ar) {
    const std::uint64_t count = ar.take_u64();
    const bool adopt = by_name_.empty();
    if (!adopt && count != by_name_.size()) {
      ar.refuse(snapshot::SnapshotErrc::kStateMismatch,
                "the trace holds " + std::to_string(count) +
                    " series where " + std::to_string(by_name_.size()) +
                    " are sampled");
    }
    auto declared = by_name_.begin();
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string name;
      ar.value(name);
      SeriesId id{};
      if (adopt) {
        // In name order, as a Saver writes them; a repeat or a step back
        // would load a trace that re-saves to other bytes.
        if (!by_name_.empty() && !(by_name_.rbegin()->first < name)) {
          ar.refuse(snapshot::SnapshotErrc::kStateMismatch,
                    "trace series names are not strictly increasing");
        }
        id = declare(name);
      } else {
        if (name != declared->first) {
          ar.refuse(snapshot::SnapshotErrc::kStateMismatch,
                    "the trace holds series " + name + " where " +
                        declared->first + " is sampled");
        }
        id = declared->second;
        ++declared;
      }
      ar.value(series_[std::size_t(id)]);
    }
  }

  // The index within `run` of its last time at or before t_ms, if any.
  static std::optional<std::uint64_t> last_at_or_before(const TraceRun& run,
                                                        std::int64_t t_ms) {
    const std::uint64_t last = run.count - 1;
    if (run.step_ms <= 0) {
      // Times fall or stay: the last one is the smallest.
      if (run.time_ms(last) <= t_ms) return last;
      return std::nullopt;
    }
    if (run.start_ms > t_ms) return std::nullopt;
    // t_ms − start_ms, exact in uint64 since start_ms <= t_ms.
    const std::uint64_t since =
        std::uint64_t(t_ms) - std::uint64_t(run.start_ms);
    return std::min(last, since / std::uint64_t(run.step_ms));
  }

  [[nodiscard]] const TraceSeries& named(const std::string& name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      throw std::out_of_range("Trace: no series named " + name);
    }
    return series_[std::size_t(it->second)];
  }

  [[nodiscard]] const std::vector<double>& non_empty_values(
      const std::string& name) const {
    const std::vector<double>& values = named(name).values();
    if (values.empty()) {
      throw std::out_of_range("Trace: empty series " + name);
    }
    return values;
  }

  // Series by SeriesId, in declaration order.
  std::vector<TraceSeries> series_;
  // Names in order, for lookups, exports and saves.
  std::map<std::string, SeriesId> by_name_;
};

}  // namespace gw::sim
