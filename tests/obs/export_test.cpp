#include "obs/export.h"

#include <gtest/gtest.h>

#include <memory>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace gw::obs {
namespace {

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(RegistryJson, EmitsSortedMetrics) {
  MetricsRegistry registry;
  registry.counter("z", "last").increment(2);
  registry.counter("a", "first").increment();
  registry.gauge("power", "battery_soc").set(0.5);
  const std::string json = registry_json(registry);
  EXPECT_EQ(json,
            "{\"counters\":["
            "{\"metric\":\"a.first\",\"value\":1},"
            "{\"metric\":\"z.last\",\"value\":2}],"
            "\"gauges\":["
            "{\"metric\":\"power.battery_soc\",\"value\":0.5}],"
            "\"histograms\":[]}");
}

TEST(RegistryJson, HistogramBucketsIncludeOverflowAsInf) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("h", "x", {1.0, 2.0});
  histogram.observe(0.5);
  histogram.observe(99.0);
  const std::string json = registry_json(registry);
  EXPECT_NE(json.find("\"buckets\":[{\"le\":1,\"count\":1},"
                      "{\"le\":2,\"count\":0},"
                      "{\"le\":\"inf\",\"count\":1}]"),
            std::string::npos)
      << json;
}

TEST(BenchReportJson, FullShape) {
  MetricsRegistry registry;
  registry.counter("station", "wakes").increment(7);
  EventJournal journal;
  journal.record(1000, EventType::kColdBoot, "station", 1);

  BenchReport report;
  report.bench = "unit";
  report.meta = {{"paper", "Fig 5"}, {"seed", "2008"}};
  report.sections = {{"base", &registry, &journal}};
  report.series = {{"base.voltage", {{0, 12.5}, {1800000, 12.625}}}};

  EXPECT_EQ(to_json(report),
            "{\"schema\":\"glacsweb.bench.v1\",\"bench\":\"unit\","
            "\"meta\":{\"paper\":\"Fig 5\",\"seed\":\"2008\"},"
            "\"sections\":[{\"name\":\"base\","
            "\"counters\":[{\"metric\":\"station.wakes\",\"value\":7}],"
            "\"gauges\":[],\"histograms\":[],"
            "\"events\":{\"total\":1,\"dropped\":0,"
            "\"records\":[{\"t_ms\":1000,\"type\":\"cold_boot\","
            "\"component\":\"station\",\"a\":1,\"b\":0}]}}],"
            "\"series\":[{\"name\":\"base.voltage\","
            "\"points\":[[0,12.5],[1800000,12.625]]}]}");
}

TEST(BenchReportJson, NullSectionPointersRenderEmpty) {
  BenchReport report;
  report.bench = "empty";
  report.sections = {{"nothing", nullptr, nullptr}};
  EXPECT_EQ(to_json(report),
            "{\"schema\":\"glacsweb.bench.v1\",\"bench\":\"empty\","
            "\"meta\":{},"
            "\"sections\":[{\"name\":\"nothing\","
            "\"counters\":[],\"gauges\":[],\"histograms\":[]}],"
            "\"series\":[]}");
}

TEST(BenchReportJson, DeterministicAcrossIdenticalBuilds) {
  const auto build = [] {
    auto registry = std::make_unique<MetricsRegistry>();
    // Insertion order differs run to run here; export order must not.
    registry->counter("b", "two").increment(2);
    registry->counter("a", "one").increment(1);
    registry->histogram("a", "h", {1.0}).observe(0.25);
    return registry;
  };
  const auto first = build();
  const auto second = build();
  EXPECT_EQ(registry_json(*first), registry_json(*second));
}

}  // namespace
}  // namespace gw::obs
