#include "station/southampton.h"

#include <gtest/gtest.h>

namespace gw::station {
namespace {

using namespace util::literals;

TEST(Southampton, DataLedger) {
  SouthamptonServer server;
  server.receive_file("base", "dgps_1", 165_KiB, sim::SimTime{1000});
  server.receive_file("base", "probes_1", 40_KiB, sim::SimTime{2000});
  server.receive_file("reference", "dgps_r", 165_KiB, sim::SimTime{3000});
  EXPECT_EQ(server.files_from("base"), 2);
  EXPECT_EQ(server.files_from("reference"), 1);
  EXPECT_EQ(server.bytes_from("base"), 205_KiB);
  EXPECT_EQ(server.bytes_from("ghost").count(), 0);
  EXPECT_EQ(server.received().size(), 3u);
}

TEST(Southampton, SpecialQueueFifoPerStation) {
  SouthamptonServer server;
  server.queue_special("base", {.id = "s1", .script = "df -h"});
  server.queue_special("base", {.id = "s2", .script = "uptime"});
  server.queue_special("reference", {.id = "r1", .script = "ls"});
  auto first = server.fetch_special("base");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, "s1");
  EXPECT_EQ(server.fetch_special("base")->id, "s2");
  EXPECT_FALSE(server.fetch_special("base").has_value());
  EXPECT_EQ(server.fetch_special("reference")->id, "r1");
}

TEST(Southampton, SpecialResultsRecorded) {
  SouthamptonServer server;
  core::SpecialExecution execution;
  execution.id = "s1";
  execution.executed_at = sim::SimTime{5000};
  execution.results_visible_at = sim::SimTime{5000} + sim::days(1);
  server.record_special_result(execution);
  ASSERT_EQ(server.special_results().size(), 1u);
  EXPECT_EQ(
      (server.special_results()[0].results_visible_at -
       server.special_results()[0].executed_at).to_hours(),
      24.0);
}

TEST(Southampton, UpdateQueueAndBeacons) {
  SouthamptonServer server;
  core::UpdatePackage package;
  package.name = "basestation.py";
  package.payload = "new code";
  package.expected_md5 = util::Md5::hex_digest("new code");
  server.queue_update("base", package);
  const auto fetched = server.fetch_update("base");
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->name, "basestation.py");
  EXPECT_FALSE(server.fetch_update("base").has_value());

  core::UpdateBeacon beacon;
  beacon.name = "basestation.py";
  beacon.md5 = package.expected_md5;
  beacon.verified = true;
  server.receive_beacon("base", beacon, sim::SimTime{7777});
  ASSERT_EQ(server.beacons().size(), 1u);
  EXPECT_TRUE(server.beacons()[0].beacon.verified);
  EXPECT_EQ(server.beacons()[0].station, "base");
  EXPECT_EQ(server.beacons_from("base"), 1);
  EXPECT_EQ(server.beacons_from("ghost"), 0);
}

TEST(Southampton, QueriesForUnknownStationsNeverGrowLedgers) {
  // Regression: fetch_special/fetch_update/fetch_config_update used to
  // materialise an empty deque per unknown name via operator[], so a fleet
  // of askers made the maps grow on the *read* path.
  SouthamptonServer server;
  server.queue_special("base", {.id = "s1", .script = "df -h"});
  server.queue_update("base", core::UpdatePackage{});
  core::ConfigUpdate update;
  update.version = 1;
  update.seal();
  server.queue_config_update("base", update);
  EXPECT_EQ(server.special_queue_count(), 1u);
  EXPECT_EQ(server.update_queue_count(), 1u);
  EXPECT_EQ(server.config_update_queue_count(), 1u);

  for (int i = 0; i < 100; ++i) {
    const std::string ghost = "ghost" + std::to_string(i);
    EXPECT_FALSE(server.fetch_special(ghost).has_value());
    EXPECT_FALSE(server.fetch_update(ghost).has_value());
    EXPECT_FALSE(server.fetch_config_update(ghost).has_value());
  }
  EXPECT_EQ(server.special_queue_count(), 1u);
  EXPECT_EQ(server.update_queue_count(), 1u);
  EXPECT_EQ(server.config_update_queue_count(), 1u);
  // The queued work is still there.
  EXPECT_EQ(server.fetch_special("base")->id, "s1");
}

TEST(Southampton, DrainedQueuesReleaseTheirMapEntries) {
  // Regression: fetch_* used to leave a drained-empty deque materialised
  // in the map forever, so *_queue_count() reported phantom queues — on a
  // long-lived server every station that ever received one command counted
  // as "pending work" for the rest of the season.
  SouthamptonServer server;
  for (int i = 0; i < 20; ++i) {
    const std::string station = "s" + std::to_string(i);
    server.queue_special(station, {.id = "cmd", .script = "ls"});
    server.queue_update(station, core::UpdatePackage{});
    core::ConfigUpdate update;
    update.version = 1;
    update.seal();
    server.queue_config_update(station, update);
  }
  EXPECT_EQ(server.special_queue_count(), 20u);
  for (int i = 0; i < 20; ++i) {
    const std::string station = "s" + std::to_string(i);
    EXPECT_TRUE(server.fetch_special(station).has_value());
    EXPECT_TRUE(server.fetch_update(station).has_value());
    EXPECT_TRUE(server.fetch_config_update(station).has_value());
  }
  // Every queue drained to empty: no tombstones remain.
  EXPECT_EQ(server.special_queue_count(), 0u);
  EXPECT_EQ(server.update_queue_count(), 0u);
  EXPECT_EQ(server.config_update_queue_count(), 0u);
  // Partially drained queues still count.
  server.queue_special("s0", {.id = "a", .script = "x"});
  server.queue_special("s0", {.id = "b", .script = "y"});
  EXPECT_TRUE(server.fetch_special("s0").has_value());
  EXPECT_EQ(server.special_queue_count(), 1u);
}

TEST(Southampton, BoundedQueueRejectsAndJournalsTheDrop) {
  SouthamptonServer server;
  obs::EventJournal journal;
  server.set_hooks(obs::Hooks{nullptr, &journal});
  server.set_station_queue_limit(2);
  EXPECT_TRUE(server.queue_special("base", {.id = "s1", .script = "a"}));
  EXPECT_TRUE(server.queue_special("base", {.id = "s2", .script = "b"}));
  // Third in: the per-station bound is full — explicit backpressure.
  EXPECT_FALSE(server.queue_special("base", {.id = "s3", .script = "c"},
                                    sim::SimTime{4200}));
  EXPECT_EQ(server.ingest_rejected(), 1u);
  ASSERT_EQ(journal.count(obs::EventType::kIngestRejected), 1u);
  const auto drops = journal.of_type(obs::EventType::kIngestRejected);
  EXPECT_EQ(drops[0].time_ms, 4200);
  EXPECT_DOUBLE_EQ(drops[0].a, 0.0);  // special queue
  EXPECT_DOUBLE_EQ(drops[0].b, 2.0);  // the limit that was full
  // Other stations and other kinds are unaffected.
  EXPECT_TRUE(server.queue_special("reference", {.id = "r1", .script = "d"}));
  EXPECT_TRUE(server.queue_update("base", core::UpdatePackage{}));
  // Draining one slot readmits.
  EXPECT_TRUE(server.fetch_special("base").has_value());
  EXPECT_TRUE(server.queue_special("base", {.id = "s3", .script = "c"}));
  // The accepted order survived the drop: s2 then s3.
  EXPECT_EQ(server.fetch_special("base")->id, "s2");
  EXPECT_EQ(server.fetch_special("base")->id, "s3");
}

TEST(Southampton, UnboundedQueuesNeverReject) {
  SouthamptonServer server;
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(server.queue_special("base", {.id = "x", .script = "y"}));
  }
  EXPECT_EQ(server.ingest_rejected(), 0u);
}

TEST(Southampton, QueuedItemsSurviveALaterGroupAssignment) {
  // Regression: the queues were hashed by sync group, so joining a group
  // after work was queued made the fetch look in the wrong place and the
  // work was never delivered.
  SouthamptonServer server;
  server.queue_special("s0", {.id = "cmd", .script = "ls"});
  server.queue_update("s0", core::UpdatePackage{});
  core::ConfigUpdate update;
  update.version = 1;
  update.seal();
  server.queue_config_update("s0", update);
  server.sync().assign_group("s0", "g0");
  EXPECT_TRUE(server.fetch_special("s0").has_value());
  EXPECT_TRUE(server.fetch_update("s0").has_value());
  EXPECT_TRUE(server.fetch_config_update("s0").has_value());
  EXPECT_EQ(server.special_queue_count(), 0u);
  EXPECT_EQ(server.update_queue_count(), 0u);
  EXPECT_EQ(server.config_update_queue_count(), 0u);
}

TEST(Southampton, CompactionFoldsReceiptsButPreservesExactTotals) {
  // The receipt window is the one way to trim the raw ledger: a one-row
  // window folds every older receipt into the counters.
  SouthamptonServer server;
  server.receive_file("base", "f1", 10_KiB, sim::SimTime{1000});
  server.receive_file("base", "f2", 20_KiB, sim::SimTime{2000});
  server.receive_file("reference", "g1", 5_KiB, sim::SimTime{1500});
  server.set_received_window(1);
  ASSERT_EQ(server.received().size(), 1u);
  EXPECT_EQ(server.received().front().name, "g1");

  // The lifetime counters did not move.
  EXPECT_EQ(server.files_received(), 3u);
  EXPECT_EQ(server.files_from("base"), 2);
  EXPECT_EQ(server.bytes_from("base"), 30_KiB);
  EXPECT_EQ(server.files_from("reference"), 1);

  // A later receipt pushes the last row out and adds to the same totals.
  server.receive_file("base", "f3", 1_KiB, sim::SimTime{9000});
  ASSERT_EQ(server.received().size(), 1u);
  EXPECT_EQ(server.received().front().name, "f3");
  EXPECT_EQ(server.files_from("base"), 3);
  EXPECT_EQ(server.bytes_from("base"), 31_KiB);
  // The raw ledger holds one row, so the counters alone carry the season.
  EXPECT_EQ(std::uint64_t(server.files_from("base") +
                          server.files_from("reference")),
            server.files_received());
}

TEST(Southampton, ReceivedWindowCapsLedgerButTotalsStayExact) {
  SouthamptonServer server;
  server.set_received_window(4);
  for (int i = 0; i < 10; ++i) {
    const std::string station = (i % 2 == 0) ? "base" : "reference";
    server.receive_file(station, "f" + std::to_string(i), 10_KiB,
                        sim::SimTime{std::int64_t(i) * 1000});
  }
  // Only the newest 4 receipts are retained...
  ASSERT_EQ(server.received().size(), 4u);
  EXPECT_EQ(server.received().front().name, "f6");
  EXPECT_EQ(server.received().back().name, "f9");
  // ...but the per-station counters saw every file.
  EXPECT_EQ(server.files_from("base"), 5);
  EXPECT_EQ(server.files_from("reference"), 5);
  EXPECT_EQ(server.files_received(), 10u);
  EXPECT_EQ(server.bytes_from("base"), 50_KiB);

  // Shrinking the window trims immediately; totals are untouched.
  server.set_received_window(2);
  EXPECT_EQ(server.received().size(), 2u);
  EXPECT_EQ(server.files_received(), 10u);
}

TEST(Southampton, UnboundedWindowKeepsEveryReceipt) {
  SouthamptonServer server;
  for (int i = 0; i < 50; ++i) {
    server.receive_file("base", "f" + std::to_string(i), 1_KiB,
                        sim::SimTime{std::int64_t(i)});
  }
  EXPECT_EQ(server.received_window(), 0u);
  EXPECT_EQ(server.received().size(), 50u);
  EXPECT_EQ(std::uint64_t(server.files_from("base")),
            server.files_received());
}

TEST(Southampton, DrainsMoveLedgersButKeepExactTotals) {
  // The sharded fleet's barrier drain: receipts, beacons, and special
  // results move out exactly once; the per-station counters stay exact so
  // replica totals remain comparable with the hub's.
  SouthamptonServer server;
  server.receive_file("base", "a.log", 2_KiB, sim::SimTime{10});
  server.receive_file("base", "b.log", 3_KiB, sim::SimTime{20});
  server.receive_beacon("base", {"gw.tar.gz", "abc123", true},
                        sim::SimTime{30});
  server.record_special_result({"sp1", sim::SimTime{40}, sim::SimTime{50}});

  const auto received = server.drain_received();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].name, "a.log");
  EXPECT_EQ(received[1].received_at, sim::SimTime{20});
  EXPECT_TRUE(server.received().empty());
  EXPECT_TRUE(server.drain_received().empty());
  EXPECT_EQ(server.files_from("base"), 2);
  EXPECT_EQ(server.bytes_from("base"), 5_KiB);
  EXPECT_EQ(server.files_received(), 2u);

  const auto beacons = server.drain_beacons();
  ASSERT_EQ(beacons.size(), 1u);
  EXPECT_EQ(beacons[0].beacon.name, "gw.tar.gz");
  EXPECT_TRUE(server.beacons().empty());

  const auto specials = server.drain_special_results();
  ASSERT_EQ(specials.size(), 1u);
  EXPECT_EQ(specials[0].id, "sp1");
  EXPECT_TRUE(server.special_results().empty());
}

TEST(Southampton, SyncLedgerAccessible) {
  SouthamptonServer server;
  server.sync().assign_group("base", "dgps");
  server.sync().assign_group("reference", "dgps");
  server.sync().report_state("base", power::PowerState::kState3);
  server.sync().report_state("reference", power::PowerState::kState1);
  EXPECT_EQ(*server.sync().override_for_client("base"),
            power::PowerState::kState1);
}

}  // namespace
}  // namespace gw::station
