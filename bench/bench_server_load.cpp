// Server load: the Southampton service core under ingest + client queries.
//
// PR "control-plane hardening" acceptance bench: eight independent
// 130-day seasons of a 64-station server, each mixing daily ingest
// (uploads, state reports, update beacons, a 4096-row receipt window, a
// bounded command queue kept deliberately over-full) with a client query stream —
// directory, per-station stats, group convergence — dispatched through
// handle_query as real encoded wires. Across the eight trials the server
// answers over a million queries, including corrupted wires (refused, not
// trusted) and future-dated state reports from an rtc_drift window (ignored
// by the freshness fold, not allowed to pin the group).
//
// Every trial runs on the MonteCarloRunner (GW_BENCH_THREADS pins the
// pool); all exported numbers are derived from simulated traffic, so
// BENCH_server_load.json is byte-identical at any thread count —
// scripts/check.sh diffs 1 thread vs default. Wall-clock timings go to
// stderr only, so stdout is the same on every run.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "proto/messages.h"
#include "runner/monte_carlo_runner.h"
#include "station/southampton.h"
#include "util/strings.h"
#include "util/units.h"

namespace gw {
namespace {

using namespace util::literals;

constexpr std::size_t kTrials = 8;
constexpr int kDays = 130;
constexpr int kStations = 64;
constexpr int kQueriesPerDay = 1000;  // 8 * 130 * 1000 > 1e6 total
constexpr std::size_t kQueueLimit = 4;

struct LoadPoint {
  std::uint64_t queries_issued = 0;
  std::uint64_t queries_served = 0;
  std::uint64_t queries_refused = 0;
  std::uint64_t ingest_rejected = 0;
  std::uint64_t future_reports_ignored = 0;
  std::uint64_t files_received = 0;
  std::int64_t stats_bytes_sum = 0;    // folded from decoded responses
  std::int64_t group_fresh_sum = 0;    // ditto
  std::int64_t converged_checks = 0;   // group responses that said converged
  std::int64_t directory_names = 0;    // station names returned by dir queries
  double wall_seconds = 0.0;           // stderr only — never exported
};

std::string station_name(int index) {
  char name[8];
  std::snprintf(name, sizeof name, "n%03d", index);
  return name;
}

std::string group_name(int index) {
  char name[8];
  std::snprintf(name, sizeof name, "g%03d", index);
  return name;
}

// The churn plan, shifted per trial so the eight seasons exercise the
// outage and drift paths at different phases: a hard server_down day, a
// partial flaky week, and an rtc_drift week during which one station's
// reports run a day ahead of the clock.
fault::FaultPlan trial_plan(std::size_t trial) {
  const int shift = int(trial) * 3;
  const std::string spec =
      "server_down start=" + std::to_string(20 + shift) +
      "d duration=1d severity=1.0\n" +
      "server_down start=" + std::to_string(60 + shift) +
      "d duration=7d severity=0.4\n" +
      "rtc_drift   start=" + std::to_string(40 + shift) +
      "d duration=7d severity=1.0\n";
  auto plan = fault::FaultPlan::parse(spec);
  if (!plan.ok()) {
    std::fprintf(stderr, "bench_server_load: bad plan: %s\n",
                 plan.error().message.c_str());
    std::exit(1);
  }
  return std::move(plan.value());
}

LoadPoint run_trial(std::size_t trial) {
  // gwlint: allow(banned-api): wall-clock trial timing feeds wall_seconds,
  // a host_dependent field excluded from the determinism diff
  const auto wall_start = std::chrono::steady_clock::now();
  const sim::SimTime start = sim::to_time({2008, 9, 1, 0, 0, 0});
  fault::FaultOracle oracle{trial_plan(trial), start};

  station::SouthamptonServer server;
  server.set_fault_oracle(&oracle);
  server.set_station_queue_limit(kQueueLimit);
  server.set_received_window(4096);
  for (int i = 0; i < kStations; ++i) {
    server.sync().assign_group(station_name(i), group_name(i / 2));
  }

  LoadPoint point;
  for (int day = 0; day < kDays; ++day) {
    const sim::SimTime day_start = start + sim::days(day);

    // --- ingest: one upload + one state report per station per day -------
    for (int i = 0; i < kStations; ++i) {
      const std::string name = station_name(i);
      const sim::SimTime at = day_start + sim::minutes(i);
      if (server.down_severity(at) >= 1.0) continue;  // hard outage: no run
      server.receive_file(name, "d" + std::to_string(day),
                          util::Bytes{std::int64_t(40 + i) * 1024}, at);
      // During the drift window station n000's RTC runs a day fast: its
      // reports are future-dated and must be ignored by the fold, not
      // allowed to pin every group_view for the rest of the week.
      const bool drifted =
          i == 0 && oracle.severity(fault::FaultKind::kRtcDrift, at) > 0.0;
      server.sync().report_state(
          name, power::PowerState(2 + (day + i / 2) % 2),
          drifted ? at + sim::days(1) : at);
      if ((day + i) % 7 == 0) {
        server.receive_beacon(name, {"basestation.py", "md5", true}, at);
      }
    }
    // Operator keeps poking the same 8 stations without any fetches: the
    // bounded queues fill in 4 days and then every enqueue is a journalled
    // reject — sustained, deliberate backpressure.
    for (int i = 0; i < 8; ++i) {
      (void)server.queue_special(station_name(i * 8),
                                 {.id = "ping", .script = "uptime"},
                                 day_start + sim::hours(1));
    }

    // --- the client query stream ----------------------------------------
    const sim::SimTime query_time = day_start + sim::hours(12);
    for (int q = 0; q < kQueriesPerDay; ++q) {
      ++point.queries_issued;
      if (q % 101 == 50) {
        // A corrupted wire every ~1 % of traffic: must bounce off the CRC.
        std::string corrupt = proto::DirectoryRequest{}.encode();
        corrupt[std::size_t(q) % corrupt.size()] ^= 0x01;
        (void)server.handle_query(corrupt, query_time);
        continue;
      }
      if (q % 250 == 0) {
        const auto wire = server.handle_query(
            proto::DirectoryRequest{}.encode(), query_time);
        const auto response = proto::DirectoryResponse::decode(wire);
        if (response.ok()) {
          point.directory_names +=
              std::int64_t(response.value().stations.size());
        }
        continue;
      }
      if (q % 5 == 4) {
        proto::GroupStatusRequest request;
        request.group = group_name((day * kQueriesPerDay + q) %
                                   (kStations / 2));
        const auto wire = server.handle_query(request.encode(), query_time);
        const auto response = proto::GroupStatusResponse::decode(wire);
        if (response.ok()) {
          point.group_fresh_sum += response.value().fresh;
          if (response.value().converged) ++point.converged_checks;
        }
        continue;
      }
      proto::StationStatsRequest request;
      request.station = station_name((day + q) % kStations);
      const auto wire = server.handle_query(request.encode(), query_time);
      const auto response = proto::StationStatsResponse::decode(wire);
      if (response.ok()) point.stats_bytes_sum += response.value().bytes;
    }
  }

  point.queries_served = server.queries_served();
  point.queries_refused = server.queries_refused();
  point.ingest_rejected = server.ingest_rejected();
  point.future_reports_ignored = server.sync().future_reports_ignored();
  point.files_received = server.files_received();
  // gwlint: allow(banned-api): wall-clock trial timing feeds wall_seconds,
  // a host_dependent field excluded from the determinism diff
  point.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  return point;
}

void run() {
  bench::heading("Server load: " + std::to_string(kTrials) + " trials x " +
                 std::to_string(kDays) + " days x " +
                 std::to_string(kQueriesPerDay) + " queries/day, " +
                 std::to_string(kStations) + " stations");
  runner::MonteCarloRunner pool{bench::thread_count()};
  std::printf("  threads: %u\n", pool.threads());

  const auto points =
      pool.run(kTrials, [](std::size_t trial) { return run_trial(trial); });

  LoadPoint total;
  double wall_total = 0.0;
  bench::row({"Trial", "Queries", "Served", "Refused", "Rejects",
              "FutureRep", "Files"},
             {5, 9, 9, 8, 8, 9, 7});
  for (std::size_t t = 0; t < points.size(); ++t) {
    const LoadPoint& p = points[t];
    bench::row({std::to_string(t), std::to_string(p.queries_issued),
                std::to_string(p.queries_served),
                std::to_string(p.queries_refused),
                std::to_string(p.ingest_rejected),
                std::to_string(p.future_reports_ignored),
                std::to_string(p.files_received)},
               {5, 9, 9, 8, 8, 9, 7});
    std::fprintf(stderr, "  trial %zu wall-clock %.2f s\n", t,
                 p.wall_seconds);
    total.queries_issued += p.queries_issued;
    total.queries_served += p.queries_served;
    total.queries_refused += p.queries_refused;
    total.ingest_rejected += p.ingest_rejected;
    total.future_reports_ignored += p.future_reports_ignored;
    total.files_received += p.files_received;
    total.stats_bytes_sum += p.stats_bytes_sum;
    total.group_fresh_sum += p.group_fresh_sum;
    total.converged_checks += p.converged_checks;
    total.directory_names += p.directory_names;
    wall_total += p.wall_seconds;
  }
  bench::note("refused = corrupted wires bounced by the CRC envelope; "
              "rejects = bounded-queue backpressure drops; FutureRep = "
              "drifted-RTC reports ignored by the freshness fold");
  if (wall_total > 0.0) {
    // Wall-clock throughput: stderr only, never exported.
    std::fprintf(stderr,
                 "  ~%.0f queries/s of trial wall-clock (pool overlaps)\n",
                 double(total.queries_issued) / wall_total);
  }

  obs::MetricsRegistry registry;
  const auto set = [&registry](const char* name, double value) {
    registry.gauge("load", name).set(value);
  };
  set("queries_issued", double(total.queries_issued));
  set("queries_served", double(total.queries_served));
  set("queries_refused", double(total.queries_refused));
  set("ingest_rejected", double(total.ingest_rejected));
  set("future_reports_ignored", double(total.future_reports_ignored));
  set("files_received", double(total.files_received));
  set("stats_bytes_sum", double(total.stats_bytes_sum));
  set("group_fresh_sum", double(total.group_fresh_sum));
  set("converged_checks", double(total.converged_checks));
  set("directory_names", double(total.directory_names));
  set("queries_per_sim_day",
      double(total.queries_issued) / double(kTrials * kDays));

  obs::BenchReport report;
  report.bench = "server_load";
  report.meta = {{"days", std::to_string(kDays)},
                 {"deterministic", "true"},
                 {"queries_per_day", std::to_string(kQueriesPerDay)},
                 {"queue_limit", std::to_string(kQueueLimit)},
                 {"stations", std::to_string(kStations)},
                 {"trials", std::to_string(kTrials)}};
  report.sections = {{"load", &registry, nullptr}};
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
