#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace gw::sim {
namespace {

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  simulation.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  simulation.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  simulation.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, TiesBreakInSchedulingOrder) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulation.schedule_at(SimTime{500}, [&order, i] { order.push_back(i); });
  }
  simulation.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation simulation{SimTime{1000}};
  SimTime seen{};
  simulation.schedule_in(Duration{500}, [&] { seen = simulation.now(); });
  simulation.run_all();
  EXPECT_EQ(seen, SimTime{1500});
  EXPECT_EQ(simulation.now(), SimTime{1500});
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation simulation{SimTime{1000}};
  EXPECT_THROW(simulation.schedule_at(SimTime{999}, [] {}),
               std::invalid_argument);
}

TEST(Simulation, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulation simulation;
  int fired = 0;
  simulation.schedule_at(SimTime{100}, [&] { ++fired; });
  simulation.schedule_at(SimTime{900}, [&] { ++fired; });
  simulation.run_until(SimTime{500});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulation.now(), SimTime{500});
  simulation.run_until(SimTime{1000});
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation simulation;
  int depth = 0;
  simulation.schedule_at(SimTime{10}, [&] {
    ++depth;
    simulation.schedule_in(Duration{10}, [&] { ++depth; });
  });
  simulation.run_all();
  EXPECT_EQ(depth, 2);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation simulation;
  bool fired = false;
  const EventId id = simulation.schedule_at(SimTime{50}, [&] { fired = true; });
  simulation.cancel(id);
  simulation.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelUnknownIdIsNoOp) {
  Simulation simulation;
  simulation.cancel(EventId{12345});
  bool fired = false;
  simulation.schedule_at(SimTime{1}, [&] { fired = true; });
  simulation.run_all();
  EXPECT_TRUE(fired);
}

TEST(Simulation, PeriodicSelfRescheduling) {
  Simulation simulation;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 48) simulation.schedule_in(minutes(30), tick);
  };
  simulation.schedule_in(minutes(30), tick);
  simulation.run_until(kEpoch + days(1));
  EXPECT_EQ(ticks, 48);  // one day of 30-minute voltage samples
}

TEST(Simulation, RunAllBudgetGuard) {
  Simulation simulation;
  std::function<void()> forever = [&] {
    simulation.schedule_in(Duration{1}, forever);
  };
  simulation.schedule_in(Duration{1}, forever);
  EXPECT_THROW(simulation.run_all(1000), std::runtime_error);
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation simulation;
  for (int i = 0; i < 5; ++i) simulation.schedule_at(SimTime{i}, [] {});
  simulation.run_all();
  EXPECT_EQ(simulation.events_executed(), 5u);
}

// Regression for the pre-tombstone cancel() id leak: cancelling unknown or
// already-fired ids used to park them in a set forever, so pending() and
// empty() drifted for the rest of the run.
TEST(Simulation, PendingIsExactAfterSpuriousCancels) {
  Simulation simulation;
  const EventId fired = simulation.schedule_at(SimTime{1}, [] {});
  simulation.run_all();
  EXPECT_EQ(simulation.pending(), 0u);
  EXPECT_TRUE(simulation.empty());

  simulation.cancel(fired);             // already fired
  simulation.cancel(EventId{12345});    // never issued
  simulation.cancel(EventId{0});        // never issued
  EXPECT_EQ(simulation.pending(), 0u);
  EXPECT_TRUE(simulation.empty());

  const EventId live = simulation.schedule_at(SimTime{10}, [] {});
  EXPECT_EQ(simulation.pending(), 1u);
  simulation.cancel(live);
  simulation.cancel(live);  // double-cancel must not underflow the count
  EXPECT_EQ(simulation.pending(), 0u);
  EXPECT_TRUE(simulation.empty());
  simulation.run_all();
  EXPECT_EQ(simulation.events_executed(), 1u);
}

TEST(Simulation, MoveOnlyCallablesAreSchedulable) {
  Simulation simulation;
  int observed = 0;
  auto payload = std::make_unique<int>(7);
  simulation.schedule_at(
      SimTime{5}, [p = std::move(payload), &observed] { observed = *p; });
  simulation.run_all();
  EXPECT_EQ(observed, 7);
}

// A handle from a previous tenancy of a recycled slot must not cancel the
// new tenant (the generation check).
TEST(Simulation, StaleIdFromRecycledSlotIsHarmless) {
  Simulation simulation;
  const EventId old_id = simulation.schedule_at(SimTime{1}, [] {});
  simulation.run_all();  // slot freed back to the pool

  bool fired = false;
  simulation.schedule_at(SimTime{2}, [&] { fired = true; });  // reuses slot
  simulation.cancel(old_id);  // stale generation: must be a no-op
  simulation.run_all();
  EXPECT_TRUE(fired);
}

TEST(Simulation, CancelOwnEventFromItsCallbackIsNoOp) {
  Simulation simulation;
  EventId self{};
  int fired = 0;
  self = simulation.schedule_at(SimTime{1}, [&] {
    ++fired;
    simulation.cancel(self);  // already executing: must not corrupt state
  });
  simulation.schedule_at(SimTime{2}, [&] { ++fired; });
  simulation.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulation.pending(), 0u);
}

TEST(Simulation, CancelLaterEventFromEarlierCallback) {
  Simulation simulation;
  bool late_fired = false;
  const EventId late =
      simulation.schedule_at(SimTime{100}, [&] { late_fired = true; });
  simulation.schedule_at(SimTime{50}, [&] { simulation.cancel(late); });
  simulation.run_all();
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(simulation.events_executed(), 1u);
}

// Heavy interleaving of bursts, cancellations, and partial drains must keep
// pending() consistent with what actually fires.
TEST(Simulation, PendingTracksBurstsAndDrains) {
  Simulation simulation;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(simulation.schedule_at(SimTime{i % 10}, [&] { ++fired; }));
  }
  EXPECT_EQ(simulation.pending(), 100u);
  for (int i = 0; i < 100; i += 4) simulation.cancel(ids[std::size_t(i)]);
  EXPECT_EQ(simulation.pending(), 75u);
  simulation.run_until(SimTime{4});
  simulation.run_all();
  EXPECT_EQ(fired, 75);
  EXPECT_EQ(simulation.pending(), 0u);
}

// schedule_in() queues a node in the delay lane bound to its delay (or in
// the heap once all four lanes are bound to other delays and busy). A
// lane's nodes answer pending_key() with the keys schedule_at() would have
// given them, cancel() tombstones them, and a cancelled head is skipped
// before run_until() compares the next event with its deadline.
TEST(Simulation, LaneNodesAnswerPendingKeyAndCancel) {
  Simulation simulation{SimTime{1000}};
  std::vector<int> order;
  const auto record = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };
  const EventId a = simulation.schedule_in(Duration{60}, record(1));
  const EventId b = simulation.schedule_in(Duration{60}, record(2));
  const EventId c = simulation.schedule_at(SimTime{1060}, record(3));
  // The 60-ms lane and three more bound: the 40- and 50-ms nodes queue
  // in the heap.
  std::vector<EventId> spread;
  for (int delay = 10; delay <= 50; delay += 10) {
    spread.push_back(simulation.schedule_in(Duration{delay}, record(delay)));
  }
  using Key = std::pair<std::int64_t, std::uint32_t>;
  EXPECT_EQ(simulation.pending_key(a), (Key{1060, 1}));
  EXPECT_EQ(simulation.pending_key(b), (Key{1060, 2}));
  EXPECT_EQ(simulation.pending_key(c), (Key{1060, 3}));
  for (std::size_t i = 0; i < spread.size(); ++i) {
    EXPECT_EQ(simulation.pending_key(spread[i]),
              (Key{1010 + 10 * std::int64_t(i), std::uint32_t(4 + i)}));
  }

  simulation.cancel(a);          // a lane's head
  simulation.cancel(spread[0]);  // the 10-ms lane's only node
  EXPECT_EQ(simulation.pending_key(a), std::nullopt);
  EXPECT_EQ(simulation.pending(), 6u);
  simulation.run_until(SimTime{1019});
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(simulation.now(), SimTime{1019});
  simulation.run_until(SimTime{1060});
  EXPECT_EQ(order, (std::vector<int>{20, 30, 40, 50, 2, 3}));
  EXPECT_EQ(simulation.pending_key(b), std::nullopt);
  EXPECT_TRUE(simulation.empty());
}

// The 32-bit tie-break sequence wraps once per 2^32 - 1 schedules, and the
// kernel then renumbers every pending event. A restored checkpoint starts
// the counter a few schedules short of the wrap. Tied and untied events
// scheduled on both sides of it, some from callbacks and one cancelled,
// must still run in (time, scheduling order), and keys read after the wrap
// must rebuild the same queue through schedule_rebuilt().
TEST(Simulation, SequenceWrapKeepsOrderAndRestores) {
  constexpr std::uint32_t kNearWrap = 0xffffffffu - 4;
  Simulation simulation;
  Simulation::KernelCheckpoint near_wrap;
  near_wrap.next_seq = kNearWrap;
  simulation.begin_restore(near_wrap);
  simulation.finish_restore();

  std::vector<int> order;
  std::vector<std::pair<EventId, int>> labelled;  // every recorded event
  const auto schedule = [&](std::int64_t at, int label) {
    const EventId id = simulation.schedule_at(
        SimTime{at}, [&order, label] { order.push_back(label); });
    labelled.emplace_back(id, label);
    return id;
  };
  schedule(20, 0);
  simulation.schedule_at(SimTime{10}, [&] {
    order.push_back(1);
    // The wrap. Popping this event left 0, 2 and 3 out of scheduling
    // order in the queue's storage; renumbering must restore it.
    schedule(20, 4);
  });
  schedule(20, 2);
  schedule(20, 3);
  simulation.run_until(SimTime{10});
  EXPECT_LT(simulation.checkpoint().next_seq, kNearWrap);
  simulation.schedule_at(SimTime{15}, [&] {
    order.push_back(5);
    schedule(15, 7);  // due now, behind nothing
  });
  schedule(30, 6);
  simulation.cancel(schedule(20, 8));
  simulation.run_until(SimTime{15});
  EXPECT_EQ(order, (std::vector<int>{1, 5, 7}));

  const Simulation::KernelCheckpoint checkpoint = simulation.checkpoint();
  Simulation restored;
  std::vector<int> restored_order;
  restored.begin_restore(checkpoint);
  // Rebuilt newest first: components restore in section order, not
  // sequence order.
  for (auto it = labelled.rbegin(); it != labelled.rend(); ++it) {
    const auto key = simulation.pending_key(it->first);
    if (!key.has_value()) continue;
    const int label = it->second;
    restored.schedule_rebuilt(key->first, key->second,
                              [&restored_order, label] {
                                restored_order.push_back(label);
                              });
  }
  restored.finish_restore();  // throws unless all five live events came back

  simulation.run_all();
  restored.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 7, 0, 2, 3, 4, 6}));
  EXPECT_EQ(restored_order, (std::vector<int>{0, 2, 3, 4, 6}));
}

}  // namespace
}  // namespace gw::sim
