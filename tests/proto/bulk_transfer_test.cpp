#include "proto/bulk_transfer.h"

#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::proto {
namespace {

struct Fixture {
  env::Environment environment{1};
  ProbeLink link{environment.melt(), util::Rng{3}};
  ProbeStore store;

  void fill(std::size_t n) {
    for (std::uint32_t seq = 0; seq < n; ++seq) {
      ProbeReading reading;
      reading.probe_id = 21;
      reading.seq = seq;
      store.add(reading);
    }
  }
};

// Summer noon: the paper's hostile season (~13% loss).
const sim::SimTime kSummer = sim::at_midnight(2009, 7, 20) + sim::hours(12);
// Deep winter: dry ice, ~2% loss.
const sim::SimTime kWinter = sim::at_midnight(2009, 2, 1) + sim::hours(12);

TEST(NackBulkTransfer, DeliversEverythingInWinter) {
  Fixture f;
  f.fill(200);
  NackBulkTransfer protocol{f.link};
  const auto stats = protocol.run(f.store, kWinter, sim::hours(2));
  EXPECT_EQ(stats.offered, 200u);
  EXPECT_EQ(stats.delivered, 200u);
  EXPECT_EQ(stats.still_missing, 0u);
  EXPECT_TRUE(f.store.empty());
  EXPECT_FALSE(stats.aborted);
}

TEST(NackBulkTransfer, SummerStreamLosesRoughlyPaperFraction) {
  Fixture f;
  // Anchor the weather in winter, then read summer.
  (void)f.link.loss_probability(kWinter);
  f.fill(3000);
  NackBulkTransfer protocol{f.link};
  const auto stats = protocol.run(f.store, kSummer, sim::hours(12));
  // §V: "With 3000 readings being sent in the summer ... 400 missed packets
  // were common."
  EXPECT_NEAR(double(stats.missing_after_stream), 400.0, 110.0);
  // Retry rounds then recover nearly everything.
  EXPECT_GT(stats.delivered, 2900u);
}

TEST(NackBulkTransfer, LegacyFirmwareAbortsOnLargeMissList) {
  Fixture f;
  (void)f.link.loss_probability(kWinter);
  f.fill(3000);
  NackConfig legacy;
  legacy.legacy_individual_limit = 100;  // tested regime only (§V)
  legacy.rerequest_all_ratio = 0.5;
  NackBulkTransfer protocol{f.link, legacy};
  const auto stats = protocol.run(f.store, kSummer, sim::hours(12));
  EXPECT_TRUE(stats.aborted);
  // Streamed data is still confirmed; the rest stays pending for tomorrow.
  EXPECT_GT(stats.delivered, 2000u);
  EXPECT_GT(stats.still_missing, 0u);
  EXPECT_EQ(f.store.pending_count(), stats.still_missing);
}

TEST(NackBulkTransfer, MultiDaySessionsEventuallyDrain) {
  // §V: "many missing readings were obtained in subsequent days."
  Fixture f;
  (void)f.link.loss_probability(kWinter);
  f.fill(3000);
  NackConfig legacy;
  legacy.legacy_individual_limit = 100;
  NackBulkTransfer protocol{f.link, legacy};
  int days_needed = 0;
  for (int day = 0; day < 10 && !f.store.empty(); ++day) {
    (void)protocol.run(f.store, kSummer + sim::days(day), sim::hours(2));
    ++days_needed;
  }
  EXPECT_TRUE(f.store.empty());
  EXPECT_GT(days_needed, 1);  // could not finish in one window
  EXPECT_LE(days_needed, 6);
}

TEST(NackBulkTransfer, RerequestAllWhenMissingDominates) {
  env::Environment environment{1};
  ProbeLinkConfig terrible;
  terrible.link_quality_factor = 30.0;  // ~60% summer loss
  ProbeLink link{environment.melt(), util::Rng{3}, terrible};
  (void)link.loss_probability(kWinter);
  ProbeStore store;
  for (std::uint32_t seq = 0; seq < 300; ++seq) {
    ProbeReading reading;
    reading.seq = seq;
    store.add(reading);
  }
  NackBulkTransfer protocol{link};
  const auto stats = protocol.run(store, kSummer, sim::hours(4));
  EXPECT_GT(stats.rerequest_all_rounds, 0);
}

TEST(NackBulkTransfer, RespectsBudget) {
  Fixture f;
  f.fill(3000);
  NackBulkTransfer protocol{f.link};
  const auto stats = protocol.run(f.store, kWinter, sim::minutes(5));
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LT(stats.delivered, 3000u);
  // Airtime never wildly exceeds the budget (one frame of overshoot max).
  EXPECT_LT(stats.airtime.to_minutes(), 5.2);
}

TEST(NackBulkTransfer, EmptyStoreIsFreeNoop) {
  Fixture f;
  NackBulkTransfer protocol{f.link};
  const auto stats = protocol.run(f.store, kWinter, sim::hours(2));
  EXPECT_EQ(stats.offered, 0u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.data_packets, 0u);
}

TEST(StopAndWait, DeliversInWinterButCostsMorePackets) {
  Fixture nack_fixture;
  nack_fixture.fill(500);
  NackBulkTransfer nack{nack_fixture.link};
  const auto nack_stats =
      nack.run(nack_fixture.store, kWinter, sim::hours(4));

  Fixture saw_fixture;
  saw_fixture.fill(500);
  StopAndWaitTransfer saw{saw_fixture.link};
  const auto saw_stats = saw.run(saw_fixture.store, kWinter, sim::hours(4));

  EXPECT_EQ(nack_stats.delivered, 500u);
  EXPECT_GT(saw_stats.delivered, 490u);
  // The headline §V claim: avoiding acknowledge packets saves airtime.
  EXPECT_GT(saw_stats.control_packets, nack_stats.control_packets * 5);
  EXPECT_GT(saw_stats.airtime.millis(), nack_stats.airtime.millis());
}

TEST(StopAndWait, RespectsBudget) {
  Fixture f;
  f.fill(3000);
  StopAndWaitTransfer saw{f.link};
  const auto stats = saw.run(f.store, kWinter, sim::minutes(5));
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LT(stats.delivered, 3000u);
}

TEST(TransferProtocols, DeterministicAcrossRuns) {
  Fixture a;
  a.fill(300);
  Fixture b;
  b.fill(300);
  NackBulkTransfer pa{a.link};
  NackBulkTransfer pb{b.link};
  const auto sa = pa.run(a.store, kSummer, sim::hours(2));
  const auto sb = pb.run(b.store, kSummer, sim::hours(2));
  EXPECT_EQ(sa.delivered, sb.delivered);
  EXPECT_EQ(sa.data_packets, sb.data_packets);
  EXPECT_EQ(sa.airtime.millis(), sb.airtime.millis());
}

}  // namespace
}  // namespace gw::proto
