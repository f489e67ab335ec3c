#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace gw::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.increment();
  counter.increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, LastWriteWinsAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.set(12.6);
  gauge.set(11.9);  // gauges may fall
  EXPECT_DOUBLE_EQ(gauge.value(), 11.9);
  gauge.add(0.1);
  EXPECT_DOUBLE_EQ(gauge.value(), 12.0);
}

TEST(Histogram, BucketsObservations) {
  Histogram histogram{{1.0, 10.0, 100.0}};
  histogram.observe(0.5);    // bucket 0 (<= 1)
  histogram.observe(1.0);    // bucket 0 (boundary is inclusive)
  histogram.observe(5.0);    // bucket 1
  histogram.observe(100.0);  // bucket 2
  histogram.observe(1e6);    // overflow

  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 1e6);
  ASSERT_EQ(histogram.counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(histogram.counts()[0], 2u);
  EXPECT_EQ(histogram.counts()[1], 1u);
  EXPECT_EQ(histogram.counts()[2], 1u);
  EXPECT_EQ(histogram.counts()[3], 1u);
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  Histogram histogram{{1.0}};
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);  // not +inf
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);  // not -inf
}

TEST(MetricsRegistry, LookupOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& frames = registry.counter("bulk_transfer", "data_frames");
  frames.increment(3);
  // Grow the registry; the cached handle must stay valid (node-based map).
  for (int i = 0; i < 100; ++i) {
    registry.counter("c", "n" + std::to_string(i));
  }
  Counter& again = registry.counter("bulk_transfer", "data_frames");
  EXPECT_EQ(&frames, &again);
  EXPECT_EQ(frames.value(), 3u);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstCreation) {
  MetricsRegistry registry;
  Histogram& first = registry.histogram("station", "run_seconds", {1.0, 2.0});
  // A later lookup with different (or default) bounds returns the original.
  Histogram& second = registry.histogram("station", "run_seconds", {99.0});
  EXPECT_EQ(&first, &second);
  ASSERT_EQ(second.upper_bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(second.upper_bounds()[0], 1.0);
}

TEST(MetricsRegistry, HistogramDefaultsToSecondsBuckets) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("station", "run_seconds");
  EXPECT_EQ(histogram.upper_bounds(),
            Histogram::default_seconds_buckets());
}

TEST(MetricsRegistry, AbsentMetricsReadAsZeroWithoutCreating) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("nope", "nothing"), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge_value("nope", "nothing"), 0.0);
  EXPECT_EQ(registry.find_counter("nope", "nothing"), nullptr);
  EXPECT_EQ(registry.find_gauge("nope", "nothing"), nullptr);
  EXPECT_EQ(registry.find_histogram("nope", "nothing"), nullptr);
  EXPECT_EQ(registry.size(), 0u);  // the read side must not create
}

TEST(MetricsRegistry, IterationIsOrderedByComponentThenName) {
  MetricsRegistry registry;
  registry.counter("z", "a");
  registry.counter("a", "z");
  registry.counter("a", "a");
  std::vector<std::string> order;
  for (const auto& [key, counter] : registry.counters()) {
    order.push_back(key.full_name());
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a.a", "a.z", "z.a"}));
}

TEST(MetricsRegistry, ViewLookupFindsTheStringLookupsInstrument) {
  MetricsRegistry registry;
  const std::string component = "bulk_transfer";
  const std::string name = "sessions";
  Counter& by_string = registry.counter(component, name);
  EXPECT_EQ(registry.size(), 1u);
  const std::string_view component_view = component;
  EXPECT_EQ(&registry.counter(component_view, std::string_view{name}),
            &by_string);
  EXPECT_EQ(&registry.counter("bulk_transfer", "sessions"), &by_string);
  EXPECT_EQ(registry.find_counter(component_view, "sessions"), &by_string);
  EXPECT_EQ(registry.size(), 1u);  // found, not created again

  Gauge& gauge = registry.gauge(component_view, "queue_depth");
  EXPECT_EQ(&registry.gauge(component, std::string("queue_depth")), &gauge);
  Histogram& histogram = registry.histogram(component_view, "bytes", {1.0});
  EXPECT_EQ(&registry.histogram(component, "bytes"), &histogram);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, ViewOrderIsTheKeyOrder) {
  // Keys whose order is easy to get wrong: a name that is a prefix of
  // another, a dot that could sit either side of the split, an empty part
  // and bytes with the high bit set. The registry must iterate them as
  // MetricKey's own ordering does: that order is the export order.
  const std::vector<std::pair<std::string, std::string>> keys{
      {"station", "step_seconds.upload_data"},
      {"station", "step_seconds"},
      {"station.step_seconds", "x"},
      {"a", "b.c"},
      {"a.b", "c"},
      {"", "z"},
      {"z", ""},
      {"\xc3\xa9t\xc3\xa9", "a"},
      {"e", "\xff"},
      {"e", "a"},
      {"station", "step_seconds.get_probe_data"},
  };
  MetricsRegistry registry;
  std::set<MetricKey> expected;
  for (const auto& [component, name] : keys) {
    registry.counter(std::string_view{component}, std::string_view{name})
        .increment();
    expected.insert(MetricKey{component, name});
  }
  std::vector<MetricKey> order;
  for (const auto& [key, counter] : registry.counters()) order.push_back(key);
  EXPECT_EQ(order, (std::vector<MetricKey>(expected.begin(), expected.end())));
  EXPECT_EQ(registry.size(), keys.size());
}

}  // namespace
}  // namespace gw::obs
