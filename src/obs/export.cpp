#include "obs/export.h"

#include <cstdio>
#include <fstream>

namespace gw::obs {
namespace {

// One formatting routine for every double in the export: shortest-ish,
// locale-independent, reproducible.
std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string fmt(std::uint64_t value) { return std::to_string(value); }
std::string fmt(std::int64_t value) { return std::to_string(value); }

void append_counters(std::string& out, const MetricsRegistry& registry) {
  out += "\"counters\":[";
  bool first = true;
  for (const auto& [key, counter] : registry.counters()) {
    if (!first) out += ",";
    first = false;
    out += "{\"metric\":\"" + json_escape(key.full_name()) + "\",\"value\":" +
           fmt(counter.value()) + "}";
  }
  out += "]";
}

void append_gauges(std::string& out, const MetricsRegistry& registry) {
  out += "\"gauges\":[";
  bool first = true;
  for (const auto& [key, gauge] : registry.gauges()) {
    if (!first) out += ",";
    first = false;
    out += "{\"metric\":\"" + json_escape(key.full_name()) + "\",\"value\":" +
           fmt(gauge.value()) + "}";
  }
  out += "]";
}

void append_histograms(std::string& out, const MetricsRegistry& registry) {
  out += "\"histograms\":[";
  bool first = true;
  for (const auto& [key, histogram] : registry.histograms()) {
    if (!first) out += ",";
    first = false;
    out += "{\"metric\":\"" + json_escape(key.full_name()) + "\"";
    out += ",\"count\":" + fmt(histogram.count());
    out += ",\"sum\":" + fmt(histogram.sum());
    out += ",\"min\":" + fmt(histogram.min());
    out += ",\"max\":" + fmt(histogram.max());
    out += ",\"buckets\":[";
    const auto& bounds = histogram.upper_bounds();
    const auto& counts = histogram.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ",";
      // The final bucket is the overflow: le is the JSON string "inf".
      out += "{\"le\":";
      out += i < bounds.size() ? fmt(bounds[i]) : std::string("\"inf\"");
      out += ",\"count\":" + fmt(counts[i]) + "}";
    }
    out += "]}";
  }
  out += "]";
}

void append_journal(std::string& out, const EventJournal& journal) {
  out += "\"events\":{\"total\":" + fmt(journal.total_recorded());
  out += ",\"dropped\":" + fmt(journal.dropped());
  out += ",\"records\":[";
  bool first = true;
  for (const auto& event : journal.events()) {
    if (!first) out += ",";
    first = false;
    out += "{\"t_ms\":" + fmt(event.time_ms);
    out += ",\"type\":\"" + std::string(to_string(event.type)) + "\"";
    out += ",\"component\":\"" + json_escape(event.component) + "\"";
    out += ",\"a\":" + fmt(event.a);
    out += ",\"b\":" + fmt(event.b) + "}";
  }
  out += "]}";
}

void append_registry_body(std::string& out, const MetricsRegistry& registry) {
  append_counters(out, registry);
  out += ",";
  append_gauges(out, registry);
  out += ",";
  append_histograms(out, registry);
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string registry_json(const MetricsRegistry& registry) {
  std::string out = "{";
  append_registry_body(out, registry);
  out += "}";
  return out;
}

std::string to_json(const BenchReport& report) {
  std::string out = "{\"schema\":\"glacsweb.bench.v1\"";
  out += ",\"bench\":\"" + json_escape(report.bench) + "\"";

  // meta: insertion order is the bench author's narrative order; keep it.
  out += ",\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : report.meta) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
  }
  out += "}";

  out += ",\"sections\":[";
  first = true;
  for (const auto& section : report.sections) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(section.name) + "\",";
    if (section.metrics != nullptr) {
      append_registry_body(out, *section.metrics);
    } else {
      static const MetricsRegistry kEmpty;
      append_registry_body(out, kEmpty);
    }
    if (section.journal != nullptr) {
      out += ",";
      append_journal(out, *section.journal);
    }
    out += "}";
  }
  out += "]";

  out += ",\"series\":[";
  first = true;
  for (const auto& series : report.series) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(series.name) + "\",\"points\":[";
    bool first_point = true;
    for (const auto& point : series.points) {
      if (!first_point) out += ",";
      first_point = false;
      out += "[" + fmt(point.time_ms) + "," + fmt(point.value) + "]";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string write_bench_json(const BenchReport& report,
                             const std::string& directory) {
  const std::string path = directory + "/BENCH_" + report.bench + ".json";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return "";
  const std::string body = to_json(report);
  file.write(body.data(), std::streamsize(body.size()));
  file.put('\n');
  return file.good() ? path : "";
}

}  // namespace gw::obs
