// Golden event-order property test for the event kernel's heap and delay
// lanes.
//
// The kernel's contract is a total order — (timestamp, then scheduling
// sequence) — that must survive any mix of tied bursts, steady-state
// rescheduling, cancellation, run_until checkpoints and the wrap of the
// 32-bit sequence counter. This test replays an adversarial randomized
// workload against both sim::Simulation and a deliberately naive reference
// kernel (linear scan for the minimum, the obviously-correct O(n^2)
// implementation of the same contract) and requires the two execution
// traces to match event for event. A second workload adds periodic
// sources that reschedule through schedule_in() at five fixed delays, one
// more than the kernel has lanes, so some of them queue in the heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "sim/simulation.h"
#include "util/rng.h"

namespace gw::sim {
namespace {

// Obviously-correct reference: every pending event in one vector, the next
// event found by scanning for the minimum (at, seq).
class ReferenceKernel {
 public:
  explicit ReferenceKernel(std::int64_t start) : now_(start) {}

  [[nodiscard]] std::int64_t now() const { return now_; }

  std::uint64_t schedule(std::int64_t at, std::function<void()> fn) {
    events_.push_back(Event{at, next_seq_, std::move(fn), false});
    return next_seq_++;
  }

  std::uint64_t schedule_in(std::int64_t delay, std::function<void()> fn) {
    return schedule(now_ + delay, std::move(fn));
  }

  void cancel(std::uint64_t seq) {
    for (Event& event : events_) {
      if (event.seq == seq) {
        event.cancelled = true;
        return;
      }
    }
  }

  void run_until(std::int64_t deadline) {
    while (true) {
      const std::size_t index = find_min();
      if (index == events_.size() || events_[index].at > deadline) break;
      fire(index);
    }
    if (now_ < deadline) now_ = deadline;
  }

  void run_all() {
    while (true) {
      const std::size_t index = find_min();
      if (index == events_.size()) break;
      fire(index);
    }
  }

 private:
  struct Event {
    std::int64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool cancelled;
  };

  std::size_t find_min() {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].cancelled) continue;
      if (best == events_.size() || events_[i].at < events_[best].at ||
          (events_[i].at == events_[best].at &&
           events_[i].seq < events_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  void fire(std::size_t index) {
    now_ = events_[index].at;
    const std::function<void()> fn = std::move(events_[index].fn);
    events_.erase(events_.begin() + std::ptrdiff_t(index));
    fn();
  }

  std::vector<Event> events_;
  std::uint64_t next_seq_ = 1;
  std::int64_t now_ = 0;
};

// The periodic sources' delays: five, one more than the kernel's lanes.
// 0 reschedules at the firing instant, behind everything already due.
constexpr std::int64_t kPeriodicDelays[] = {0, 2, 5, 13, 40};

// Drives one kernel through the scripted workload. Kernel is duck-typed:
// cancel(id); the callables schedule an event at an absolute time or after
// a delay (returning its id), run to a deadline, drain, and read the
// clock. Every decision is drawn from the same seeded Rng stream, so both
// kernels see the identical operation sequence; the only free variable is
// the order the kernel fires events in — which is exactly what the trace
// records. With `periodic`, each round also starts periodic sources.
template <typename Kernel, typename ScheduleAt, typename ScheduleIn,
          typename RunUntil>
std::vector<int> run_workload(std::uint64_t seed, Kernel& kernel,
                              ScheduleAt schedule_at, ScheduleIn schedule_in,
                              RunUntil run_until,
                              std::function<void()> run_all,
                              std::function<std::int64_t()> now,
                              bool periodic) {
  util::Rng rng{seed};
  std::vector<int> trace;
  std::vector<std::uint64_t> live_ids;
  int next_label = 0;

  // A periodic source records itself and reschedules `repeats` more times
  // at its own delay, like the power tick and the samplers. Cancelling one
  // of its ids ends it.
  std::function<void(int, std::int64_t, int)> fire_periodic =
      [&](int label, std::int64_t delay, int repeats) {
        trace.push_back(label);
        if (repeats > 0) {
          live_ids.push_back(schedule_in(delay, [&, label, delay, repeats] {
            fire_periodic(label, delay, repeats - 1);
          }));
        }
      };

  // Self-rescheduling events schedule while the queue drains: a fired
  // event schedules a child at a deterministic offset (ties with other
  // children are common on purpose).
  std::function<void(int, int)> fire_and_maybe_respawn =
      [&](int label, int respawns) {
        trace.push_back(label);
        if (respawns > 0) {
          const std::int64_t at = now() + 1 + (label * 13) % 7;
          const int child = 100000 + label;
          live_ids.push_back(schedule_at(at, [&, child, respawns] {
            fire_and_maybe_respawn(child, respawns - 1);
          }));
        }
      };

  for (int round = 0; round < 40; ++round) {
    if (periodic) {
      const int sources = 1 + int(rng.uniform_index(3));
      for (int i = 0; i < sources; ++i) {
        const std::int64_t delay = kPeriodicDelays[rng.uniform_index(
            std::size(kPeriodicDelays))];
        const int repeats = 5 + int(rng.uniform_index(20));
        const int label = 500000 + next_label++;
        live_ids.push_back(schedule_in(delay, [&, label, delay, repeats] {
          fire_periodic(label, delay, repeats);
        }));
      }
    }
    // Burst: a batch of events over a narrow window (lots of exact ties).
    const int burst = 5 + int(rng.uniform_index(60));
    for (int i = 0; i < burst; ++i) {
      const std::int64_t at = now() + std::int64_t(rng.uniform_index(50));
      const int label = next_label++;
      const int respawns = rng.bernoulli(0.2) ? 2 : 0;
      live_ids.push_back(schedule_at(at, [&, label, respawns] {
        fire_and_maybe_respawn(label, respawns);
      }));
    }
    // Cancel a few known ids (some already fired — must be no-ops) and a
    // couple of ids that were never issued.
    const int cancels = int(rng.uniform_index(8));
    for (int i = 0; i < cancels && !live_ids.empty(); ++i) {
      kernel.cancel(live_ids[rng.uniform_index(live_ids.size())]);
    }
    kernel.cancel(0xdeadbeefdeadbeefULL);
    kernel.cancel(std::uint64_t(rng.uniform_index(1u << 30)));
    // Advance to a checkpoint, or fully drain.
    if (rng.bernoulli(0.25)) {
      run_all();
    } else {
      run_until(now() + std::int64_t(rng.uniform_index(40)));
    }
  }
  run_all();
  return trace;
}

// `first_seq`, when not 1, starts the kernel's tie-break sequence counter
// there through a restored checkpoint. `next_seq`, when given, receives
// the counter after the run, so a caller can tell that it wrapped.
std::vector<int> trace_simulation(std::uint64_t seed, bool periodic,
                                  std::uint32_t first_seq = 1,
                                  std::uint32_t* next_seq = nullptr) {
  Simulation simulation{SimTime{0}};
  if (first_seq != 1) {
    Simulation::KernelCheckpoint start;
    start.next_seq = first_seq;
    simulation.begin_restore(start);
    simulation.finish_restore();
  }
  std::vector<int> trace = run_workload(
      seed, simulation,
      [&](std::int64_t at, std::function<void()> fn) {
        return simulation.schedule_at(SimTime{at}, std::move(fn));
      },
      [&](std::int64_t delay, std::function<void()> fn) {
        return simulation.schedule_in(Duration{delay}, std::move(fn));
      },
      [&](std::int64_t deadline) { simulation.run_until(SimTime{deadline}); },
      [&] { simulation.run_all(); },
      [&] { return simulation.now().millis_since_epoch(); }, periodic);
  if (next_seq != nullptr) *next_seq = simulation.checkpoint().next_seq;
  return trace;
}

std::vector<int> trace_reference(std::uint64_t seed, bool periodic) {
  ReferenceKernel kernel{0};
  return run_workload(
      seed, kernel,
      [&](std::int64_t at, std::function<void()> fn) {
        return kernel.schedule(at, std::move(fn));
      },
      [&](std::int64_t delay, std::function<void()> fn) {
        return kernel.schedule_in(delay, std::move(fn));
      },
      [&](std::int64_t deadline) { kernel.run_until(deadline); },
      [&] { kernel.run_all(); }, [&] { return kernel.now(); }, periodic);
}

class EventOrderGolden : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrderGolden, MatchesReferenceKernel) {
  const std::vector<int> expected = trace_reference(GetParam(), false);
  const std::vector<int> actual = trace_simulation(GetParam(), false);
  ASSERT_GT(expected.size(), 100u) << "workload degenerated";
  EXPECT_EQ(actual, expected);
}

// The same workload started 1000 schedules short of the 32-bit sequence
// wrap, so renumber_sequences() runs mid-workload with tied, respawning
// and cancelled events pending.
TEST_P(EventOrderGolden, MatchesReferenceKernelAcrossSequenceWrap) {
  constexpr std::uint32_t kNearWrap = 0xffffffffu - 1000;
  const std::vector<int> expected = trace_reference(GetParam(), false);
  std::uint32_t next_seq = 0;
  const std::vector<int> actual =
      trace_simulation(GetParam(), false, kNearWrap, &next_seq);
  ASSERT_LT(next_seq, kNearWrap) << "the sequence counter never wrapped";
  EXPECT_EQ(actual, expected);
}

// Periodic sources at five delays fill the four lanes and spill into the
// heap; cancels leave tombstones in both.
TEST_P(EventOrderGolden, MatchesReferenceKernelWithDelayLanes) {
  const std::vector<int> expected = trace_reference(GetParam(), true);
  const std::vector<int> actual = trace_simulation(GetParam(), true);
  ASSERT_GT(expected.size(), 1000u) << "workload degenerated";
  EXPECT_EQ(actual, expected);
}

// The wrap drains the lanes into the heap mid-workload; lanes refill
// after it under the new sequence numbers.
TEST_P(EventOrderGolden, MatchesReferenceKernelWithDelayLanesAcrossWrap) {
  constexpr std::uint32_t kNearWrap = 0xffffffffu - 1000;
  const std::vector<int> expected = trace_reference(GetParam(), true);
  std::uint32_t next_seq = 0;
  const std::vector<int> actual =
      trace_simulation(GetParam(), true, kNearWrap, &next_seq);
  ASSERT_LT(next_seq, kNearWrap) << "the sequence counter never wrapped";
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(AdversarialSeeds, EventOrderGolden,
                         ::testing::Values(1u, 7u, 42u, 2008u, 0xabcdefu));

}  // namespace
}  // namespace gw::sim
