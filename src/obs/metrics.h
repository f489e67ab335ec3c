// MetricsRegistry: counters, gauges, and fixed-bucket histograms.
//
// The repo used to measure itself three different ways (sim::Trace series,
// the station log's byte accounting, power::PowerSystem energy ledgers) with
// no common registry and no machine-readable export. This is the common
// registry: every metric is keyed by (component, name) — the naming contract
// is documented in docs/OBSERVABILITY.md — and handles are stable references
// into node-based maps, so a subsystem looks its metric up once and then
// increments through the cached handle on the hot path (per-tick use is a
// single pointer-chase, no string hashing).
//
// The registry is deliberately *below* sim in the dependency order
// (util -> obs -> sim -> ...): it speaks raw int64 milliseconds and doubles,
// never SimTime, so every layer including sim itself can be instrumented.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gw::obs {

// Monotonically increasing event count (frames sent, watchdog expiries,
// brown-outs). Never decremented, never reset mid-run.
class Counter {
 public:
  void increment(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(value_);
  }

 private:
  std::uint64_t value_ = 0;
};

// Last-write-wins sample of a continuously-valued quantity (battery SoC,
// joules consumed by a load, queue depth).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(value_);
  }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram: observations are counted into the first bucket
// whose upper bound is >= the value; values beyond the last bound land in
// an implicit overflow bucket. Bounds are fixed at creation so the export
// schema is stable across runs.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds)
      : upper_bounds_(std::move(upper_bounds)),
        counts_(upper_bounds_.size() + 1, 0) {}

  void observe(double value) {
    ++count_;
    sum_ += value;
    min_ = value < min_ ? value : min_;
    max_ = value > max_ ? value : max_;
    std::size_t bucket = upper_bounds_.size();  // overflow by default
    for (std::size_t i = 0; i < upper_bounds_.size(); ++i) {
      if (value <= upper_bounds_[i]) {
        bucket = i;
        break;
      }
    }
    ++counts_[bucket];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / double(count_);
  }
  // min()/max() are only meaningful when count() > 0.
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return upper_bounds_;
  }
  // counts()[i] pairs with upper_bounds()[i]; the extra last entry is the
  // overflow bucket (> upper_bounds().back()).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

  // A general-purpose duration scale in seconds: 1 ms .. ~18 h, decade
  // steps with a 1-3 split. Used when a call site has no better idea.
  [[nodiscard]] static std::vector<double> default_seconds_buckets() {
    return {0.001, 0.003, 0.01,  0.03,  0.1,    0.3,     1.0,     3.0,
            10.0,  30.0,  100.0, 300.0, 1000.0, 3000.0, 10000.0, 65536.0};
  }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(upper_bounds_);
    ar.value(counts_);
    ar.value(count_);
    ar.value(sum_);
    ar.value(min_);
    ar.value(max_);
  }

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

struct MetricKey {
  std::string component;
  std::string name;

  friend auto operator<=>(const MetricKey&, const MetricKey&) = default;

  // The exported "component.metric" form of the contract.
  [[nodiscard]] std::string full_name() const {
    return component + "." + name;
  }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(component);
    ar.value(name);
  }
};

// Orders MetricKeys as their operator<=> does (component, then name), and
// compares them with a (component, name) pair of views, so a lookup by
// views builds no key.
struct MetricKeyLess {
  using is_transparent = void;
  using View = std::pair<std::string_view, std::string_view>;

  static View view(const MetricKey& key) { return {key.component, key.name}; }
  static const View& view(const View& key) { return key; }

  template <class A, class B>
  bool operator()(const A& a, const B& b) const {
    return view(a) < view(b);
  }
};

template <class Instrument>
using MetricMap = std::map<MetricKey, Instrument, MetricKeyLess>;

class MetricsRegistry {
 public:
  // Lookup-or-create. Returned references stay valid for the registry's
  // lifetime (node-based map), so call sites cache them. A lookup builds
  // a key only when it creates the entry.
  Counter& counter(std::string_view component, std::string_view name) {
    return find_or_add(counters_, component, name, [] { return Counter{}; });
  }
  Gauge& gauge(std::string_view component, std::string_view name) {
    return find_or_add(gauges_, component, name, [] { return Gauge{}; });
  }
  // Bucket bounds apply only on first creation; later lookups of the same
  // key return the existing histogram unchanged (schema stability).
  Histogram& histogram(std::string_view component, std::string_view name,
                       std::vector<double> upper_bounds = {}) {
    return find_or_add(histograms_, component, name, [&upper_bounds] {
      if (upper_bounds.empty()) {
        upper_bounds = Histogram::default_seconds_buckets();
      }
      return Histogram{std::move(upper_bounds)};
    });
  }

  // --- read side (exporters and tests) -----------------------------------

  [[nodiscard]] const Counter* find_counter(std::string_view component,
                                            std::string_view name) const {
    return find(counters_, component, name);
  }
  [[nodiscard]] const Gauge* find_gauge(std::string_view component,
                                        std::string_view name) const {
    return find(gauges_, component, name);
  }
  [[nodiscard]] const Histogram* find_histogram(std::string_view component,
                                                std::string_view name) const {
    return find(histograms_, component, name);
  }

  // Convenience for assertions: 0 / 0.0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view component,
                                            std::string_view name) const {
    const Counter* c = find_counter(component, name);
    return c == nullptr ? 0 : c->value();
  }
  [[nodiscard]] double gauge_value(std::string_view component,
                                   std::string_view name) const {
    const Gauge* g = find_gauge(component, name);
    return g == nullptr ? 0.0 : g->value();
  }

  // Deterministically ordered (by component, then name) — the export order.
  [[nodiscard]] const MetricMap<Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const MetricMap<Gauge>& gauges() const { return gauges_; }
  [[nodiscard]] const MetricMap<Histogram>& histograms() const {
    return histograms_;
  }

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Snapshot support (docs/SNAPSHOT.md). Histogram has no default
  // constructor (bounds are fixed at creation), so the histogram map is
  // rebuilt by emplacing empty-bounds shells and persisting into them —
  // the bounds themselves are part of the persisted payload.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(counters_);
    ar.value(gauges_);
    if constexpr (Archive::kIsSaver) {
      ar.value(histograms_.size());
      for (const auto& [key, histogram] : histograms_) {
        ar.value(key);
        ar.value(histogram);
      }
    } else {
      std::uint64_t n = 0;
      ar.value(n);
      histograms_.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        MetricKey key;
        ar.value(key);
        auto it =
            histograms_.emplace(std::move(key), Histogram{std::vector<double>{}})
                .first;
        ar.value(it->second);
      }
    }
  }

 private:
  template <class Instrument, class Make>
  static Instrument& find_or_add(MetricMap<Instrument>& map,
                                 std::string_view component,
                                 std::string_view name, Make make) {
    const MetricKeyLess::View key{component, name};
    auto it = map.lower_bound(key);
    if (it == map.end() || map.key_comp()(key, it->first)) {
      it = map.emplace_hint(
          it, MetricKey{std::string(component), std::string(name)}, make());
    }
    return it->second;
  }

  template <class Instrument>
  static const Instrument* find(const MetricMap<Instrument>& map,
                                std::string_view component,
                                std::string_view name) {
    const auto it = map.find(MetricKeyLess::View{component, name});
    return it == map.end() ? nullptr : &it->second;
  }

  MetricMap<Counter> counters_;
  MetricMap<Gauge> gauges_;
  MetricMap<Histogram> histograms_;
};

}  // namespace gw::obs
