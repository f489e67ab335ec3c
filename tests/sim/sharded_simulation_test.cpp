// ShardedSimulation: the conservative time-window protocol. These tests
// drive the kernel with synthetic actors (no station machinery) and pin
// the three guarantees docs/PARALLELISM.md argues for: kernel-exact
// message delivery, partition-invariant ordering of the shared ledger,
// and the lookahead contract (violations throw, never silently arrive
// late).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/sharded_simulation.h"

namespace gw {
namespace {

using sim::Duration;
using sim::ShardedConfig;
using sim::ShardedSimulation;
using sim::SimTime;

constexpr SimTime kStart{1'000'000};

ShardedConfig make_config(std::size_t shards, unsigned workers,
                          Duration lookahead = sim::minutes(5)) {
  ShardedConfig config;
  config.shards = shards;
  config.workers = workers;
  config.lookahead = lookahead;
  config.start = kStart;
  return config;
}

// A synthetic fleet: `actors` periodic processes, actor a on shard
// a % shards, each appending to a shared ledger via post_apply and to a
// sibling's private inbox via kernel-exact post_from. The rendered ledger
// must not depend on the partition.
struct Harness {
  explicit Harness(std::size_t shards, unsigned workers, std::size_t actors)
      : sharded(make_config(shards, workers)), inboxes(actors) {
    for (std::size_t a = 0; a < actors; ++a) {
      const std::size_t shard = a % sharded.shard_count();
      schedule_tick(a, shard, 0);
    }
  }

  void schedule_tick(std::size_t actor, std::size_t shard, int tick) {
    // Staggered periods so actors collide at some timestamps (tick 0 of
    // everyone, and various resonances) — the interesting ordering cases.
    const Duration period = sim::minutes(7 + double(actor));
    sharded.shard(shard).schedule_at(
        kStart + period * tick + sim::seconds(double(actor)),
        [this, actor, shard, tick] {
          const SimTime now = sharded.shard(shard).now();
          const std::size_t peer = (actor + 1) % inboxes.size();
          const std::size_t peer_shard = peer % sharded.shard_count();
          const SimTime deliver = now + sharded.lookahead();
          sharded.post_from(shard, peer_shard, deliver,
                            "actor" + std::to_string(actor),
                            [this, peer, actor, deliver] {
                              inboxes[peer].push_back(
                                  {deliver.millis_since_epoch(), actor});
                            });
          sharded.post_apply_from(
              shard, deliver, "actor" + std::to_string(actor),
              [this, actor, tick](SimTime) {
                ledger.push_back({actor, tick});
              });
          if (tick < 20) schedule_tick(actor, shard, tick + 1);
        });
  }

  [[nodiscard]] std::string render() const {
    std::string out;
    for (const auto& [actor, tick] : ledger) {
      out += std::to_string(actor) + ":" + std::to_string(tick) + ";";
    }
    for (std::size_t a = 0; a < inboxes.size(); ++a) {
      out += "|";
      for (const auto& [at, from] : inboxes[a]) {
        out += std::to_string(at) + "<" + std::to_string(from) + ";";
      }
    }
    out += "#" + std::to_string(sharded.events_executed());
    return out;
  }

  ShardedSimulation sharded;
  std::vector<std::pair<std::size_t, int>> ledger;
  std::vector<std::vector<std::pair<std::int64_t, std::size_t>>> inboxes;
};

std::string run_harness(std::size_t shards, unsigned workers) {
  Harness harness(shards, workers, 5);
  harness.sharded.run_until(kStart + sim::hours(4));
  return harness.render();
}

TEST(ShardedSimulation, LedgerIsIdenticalAcrossShardAndWorkerCounts) {
  const std::string reference = run_harness(1, 1);
  EXPECT_EQ(reference, run_harness(2, 1));
  EXPECT_EQ(reference, run_harness(2, 2));
  EXPECT_EQ(reference, run_harness(4, 2));
  EXPECT_EQ(reference, run_harness(5, 8));
}

TEST(ShardedSimulation, WorkersAreCappedAtTheShardCount) {
  // workers = 0 is the hardware concurrency (at least one); no request
  // gets more workers than there are shards, since a spare one would idle.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(ShardedSimulation(make_config(2, 0)).workers(),
            std::min(hardware, 2u));
  EXPECT_EQ(ShardedSimulation(make_config(2, 8)).workers(), 2u);
  EXPECT_EQ(ShardedSimulation(make_config(3, 1)).workers(), 1u);
  EXPECT_EQ(ShardedSimulation(make_config(0, 0)).workers(), 1u);
}

TEST(ShardedSimulation, DeadlinePatternDoesNotChangeDelivery) {
  // Same work, chopped into ragged run_until deadlines that truncate
  // windows mid-flight. Barrier *times* differ; message delivery must not.
  Harness whole(3, 2, 4);
  whole.sharded.run_until(kStart + sim::hours(4));
  Harness ragged(3, 2, 4);
  ragged.sharded.run_until(kStart + sim::minutes(13));
  ragged.sharded.run_until(kStart + sim::minutes(121));
  ragged.sharded.run_until(kStart + sim::hours(2.7));
  ragged.sharded.run_until(kStart + sim::hours(4));
  EXPECT_EQ(whole.render(), ragged.render());
}

TEST(ShardedSimulation, MessagesDeliverAtExactlyTheirTimestamp) {
  ShardedSimulation sharded{make_config(2, 2, sim::minutes(1))};
  // Shard 1 logs its clock around the delivery instant; the message (sent
  // from shard 0, landing mid-window on shard 1) must interleave exactly
  // at its timestamp, not at a barrier.
  std::vector<std::int64_t> observed;
  const SimTime send_at = kStart + sim::seconds(30);
  const SimTime deliver_at = send_at + sim::minutes(1);
  for (int s = -2; s <= 2; ++s) {
    sharded.shard(1).schedule_at(deliver_at + sim::seconds(s), [&observed,
                                                               &sharded] {
      observed.push_back(sharded.shard(1).now().millis_since_epoch());
    });
  }
  bool delivered = false;
  sharded.shard(0).schedule_at(send_at, [&] {
    sharded.post_from(0, 1, deliver_at, "probe", [&observed, &delivered] {
      delivered = true;
      observed.push_back(-1);  // marks the delivery slot
    });
  });
  sharded.run_until(kStart + sim::minutes(5));
  ASSERT_TRUE(delivered);
  // -1 sits between the t+0s and t+1s samples: the message runs at
  // exactly deliver_at (same millisecond as the t+0 sample, which keeps
  // its earlier sequence number), never at a barrier.
  const std::vector<std::int64_t> expected{
      (deliver_at - sim::seconds(2)).millis_since_epoch(),
      (deliver_at - sim::seconds(1)).millis_since_epoch(),
      deliver_at.millis_since_epoch(),
      -1,
      (deliver_at + sim::seconds(1)).millis_since_epoch(),
      (deliver_at + sim::seconds(2)).millis_since_epoch(),
  };
  EXPECT_EQ(observed, expected);
}

TEST(ShardedSimulation, LookaheadViolationsThrow) {
  ShardedSimulation sharded{make_config(2, 1, sim::minutes(5))};
  bool threw = false;
  sharded.shard(0).schedule_at(kStart + sim::minutes(1), [&] {
    try {
      sharded.post_from(0, 1, kStart + sim::minutes(2), "cheater", [] {});
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  });
  sharded.run_until(kStart + sim::minutes(10));
  EXPECT_TRUE(threw);

  // Coordinator posts must land strictly after the current barrier.
  EXPECT_THROW(sharded.post(0, sharded.now(), "late", [] {}),
               std::invalid_argument);
  EXPECT_THROW(
      sharded.post_apply(sharded.now(), "late", [](SimTime) {}),
      std::invalid_argument);
  EXPECT_THROW(sharded.post(7, sharded.now() + sim::hours(1), "x", [] {}),
               std::invalid_argument);
}

TEST(ShardedSimulation, BarrierHookSeesEveryWindowBoundary) {
  ShardedSimulation sharded{make_config(2, 1, sim::minutes(10))};
  std::vector<std::int64_t> barriers;
  sharded.set_barrier_hook([&barriers](SimTime at) {
    barriers.push_back(at.millis_since_epoch());
  });
  sharded.run_until(kStart + sim::minutes(25));
  const std::vector<std::int64_t> expected{
      (kStart + sim::minutes(10)).millis_since_epoch(),
      (kStart + sim::minutes(20)).millis_since_epoch(),
      (kStart + sim::minutes(25)).millis_since_epoch(),
  };
  EXPECT_EQ(barriers, expected);
  EXPECT_EQ(sharded.windows_run(), 3u);
}

TEST(ShardedSimulation, HookPostsFeedLaterWindows) {
  // A hook that relays: each barrier posts a kernel event 1.5 windows
  // out, mimicking the fleet's drain. Count deliveries.
  ShardedSimulation sharded{make_config(2, 1, sim::minutes(10))};
  int delivered = 0;
  sharded.set_barrier_hook([&](SimTime at) {
    if (at >= kStart + sim::hours(1)) return;
    sharded.post(1, at + sim::minutes(15), "relay",
                 [&delivered] { ++delivered; });
  });
  sharded.run_until(kStart + sim::hours(1));
  // Barriers at 10..50 min posted, delivering at 25..65; the 65-min one
  // is still pending when the run stops at 60.
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(sharded.messages_pending(), 1u);
  sharded.run_until(kStart + sim::minutes(70));
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(sharded.messages_pending(), 0u);
  EXPECT_EQ(sharded.messages_posted(), 5u);
  EXPECT_EQ(sharded.messages_delivered(), 5u);
}

TEST(ShardedSimulation, StatsCountWindowsAndEvents) {
  ShardedSimulation sharded{make_config(3, 2, sim::minutes(30))};
  int fired = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    sharded.shard(s).schedule_at(kStart + sim::minutes(double(5 + s)),
                                 [&fired] { ++fired; });
  }
  sharded.run_until(kStart + sim::hours(1));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sharded.events_executed(), 3u);
  EXPECT_EQ(sharded.windows_run(), 2u);
  EXPECT_EQ(sharded.now(), kStart + sim::hours(1));
}

}  // namespace
}  // namespace gw
