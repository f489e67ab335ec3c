// Discrete-event simulation kernel.
//
// One global event queue drives every model in the repository: chargers
// integrate energy on 60 s ticks, the MSP430 samples voltage every 30 min,
// stations wake at their scheduled windows, packets arrive after their
// serialisation delay. Events at equal timestamps run in scheduling order
// (a monotonic sequence number breaks ties), so runs are bit-reproducible.
//
// Hot-path design (docs/PERFORMANCE.md):
//   * pending events are 16-byte POD nodes (time, sequence, slot index)
//     in a 4-ary implicit min-heap plus four FIFO *delay lanes*. Every
//     model reschedules itself one event at a time, mostly at a fixed
//     period (the power tick, the samplers), so schedule_in(d) appends to
//     the lane bound to d: with `now` never falling and the sequence
//     always rising, one delay's keys arrive already in (time, seq) order.
//     schedule_at(), schedule_rebuilt() and any delay without a free lane
//     take the heap (one hole-based sift-up); step() pops the earliest of
//     the heap's head and the lanes' heads;
//   * callbacks are InlineCallback (48-byte small-buffer storage, no
//     per-event allocation for the lambdas this repo schedules), built
//     in place in a chunked slot slab whose addresses never move — so an
//     event is invoked directly from its slot, not copied out first;
//   * cancellation is a generation-checked tombstone: cancel() flips the
//     slot state in O(1) and the dead node is skipped when it surfaces —
//     no hash probe per executed event, and pending() is an exact counter
//     (cancelling unknown or already-fired ids no longer distorts it).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"
#include "snapshot/error.h"

namespace gw::sim {

// Opaque handle: packs (slot index << 32 | slot generation). Generations
// make stale handles harmless — cancel() of a fired, cancelled, or never-
// issued id is a no-op, exactly like an embedded timer API. Generations
// start at 1, so no live id is 0: holders use 0 for "none pending".
using EventId = std::uint64_t;

class Simulation {
 public:
  explicit Simulation(SimTime start = kEpoch) : now_(start) {}

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules `fn` (any void() callable; move-only is fine) at absolute
  // time `at` (>= now). Returns an id usable with cancel().
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    if (at < now_) throw std::invalid_argument("schedule_at in the past");
    if (next_seq_ == kMaxSeq) renumber_sequences();
    return push_event(at.millis_since_epoch(), next_seq_++,
                      std::forward<F>(fn));
  }

  // Schedules `fn` at now + delay (delay >= 0), in the same (time, seq)
  // order as schedule_at(now + delay). The node is appended to the lane
  // bound to `delay`, or to an empty lane rebound to it; with every lane
  // bound and busy it goes to the heap.
  template <typename F>
  EventId schedule_in(Duration delay, F&& fn) {
    const SimTime at = now_ + delay;
    if (at < now_) throw std::invalid_argument("schedule_at in the past");
    if (next_seq_ == kMaxSeq) renumber_sequences();
    const int lane = lane_for(delay.millis());
    if (lane == kHeap) {
      return push_event(at.millis_since_epoch(), next_seq_++,
                        std::forward<F>(fn));
    }
    const std::uint32_t index = fill_slot(std::forward<F>(fn));
    lanes_[std::size_t(lane)].push(
        HeapNode{at.millis_since_epoch(), next_seq_++, index});
    open_lanes_ |= 1u << lane;
    return id_of(index);
  }

  // Cancels a pending event; cancelling an already-fired or unknown id is a
  // no-op (matches how embedded timers behave). O(1): the queued node
  // becomes a tombstone discarded when it reaches the head.
  void cancel(EventId id) {
    const auto index = static_cast<std::uint32_t>(id >> 32);
    const auto generation = static_cast<std::uint32_t>(id);
    if (index >= slot_count_) return;
    Slot& slot = slot_at(index);
    if (slot.state != SlotState::kPending || slot.generation != generation) {
      return;
    }
    slot.state = SlotState::kCancelled;
    slot.fn.reset();  // release captures now, not when the tombstone pops
    --live_count_;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_count_; }
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  // Runs the next event, if any; returns false when the queue is exhausted.
  bool step() {
    const Head head = live_head();
    if (head.node == nullptr) return false;
    const HeapNode node = *head.node;
    pop(head.source);
    run_node(node);
    return true;
  }

  // Runs every event with timestamp <= deadline, then advances the clock to
  // the deadline (even if the queue went quiet earlier).
  void run_until(SimTime deadline) {
    const std::int64_t deadline_ms = deadline.millis_since_epoch();
    while (true) {
      const Head head = live_head();
      if (head.node == nullptr || head.node->at_ms > deadline_ms) break;
      const HeapNode node = *head.node;
      pop(head.source);
      run_node(node);
    }
    if (now_ < deadline) now_ = deadline;
  }

  void run_for(Duration duration) { run_until(now_ + duration); }

  // Drains the queue completely. Guarded by a ceiling so a self-rescheduling
  // model can't spin forever in a test.
  void run_all(std::uint64_t max_events = 100'000'000) {
    std::uint64_t executed = 0;
    while (step()) {
      if (++executed > max_events) {
        throw std::runtime_error("Simulation::run_all exceeded event budget");
      }
    }
  }

  // --- snapshot support (docs/SNAPSHOT.md) --------------------------------
  //
  // The queue's InlineCallback closures are code, not data, so the kernel
  // cannot serialise itself wholesale. Instead, each component that owns a
  // pending event saves a *rebuild record* — the event's exact queued
  // (timestamp, sequence) key, looked up with pending_key() — and on
  // restore re-registers an equivalent callback under that same key with
  // schedule_rebuilt(). Because execution order is the (time, seq) total
  // order and every key is replayed verbatim (never recomputed), a
  // restored run interleaves exactly like the original.

  struct KernelCheckpoint {
    std::int64_t now_ms = 0;
    std::uint32_t next_seq = 1;
    std::uint64_t events_executed = 0;
    std::uint64_t live_events = 0;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(now_ms);
      ar.value(next_seq);
      ar.value(events_executed);
      ar.value(live_events);
    }
  };

  [[nodiscard]] KernelCheckpoint checkpoint() const {
    return KernelCheckpoint{now_.millis_since_epoch(), next_seq_,
                            events_executed_, live_count_};
  }

  // The queued (timestamp, sequence) key of a still-pending event, or
  // nullopt when `id` already fired or was cancelled. O(pending) linear
  // scan — this runs at save time only, never on the hot path.
  [[nodiscard]] std::optional<std::pair<std::int64_t, std::uint32_t>>
  pending_key(EventId id) const {
    const auto index = static_cast<std::uint32_t>(id >> 32);
    const auto generation = static_cast<std::uint32_t>(id);
    if (index >= slot_count_) return std::nullopt;
    const Slot& slot = chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
    if (slot.state != SlotState::kPending || slot.generation != generation) {
      return std::nullopt;
    }
    for (const HeapNode& node : heap_) {
      if (node.slot == index) return std::make_pair(node.at_ms, node.seq);
    }
    for (const Lane& lane : lanes_) {
      for (std::uint32_t i = 0; i < lane.size; ++i) {
        const HeapNode& node = lane.at(i);
        if (node.slot == index) return std::make_pair(node.at_ms, node.seq);
      }
    }
    return std::nullopt;
  }

  // Restore protocol: begin_restore() wipes the queue and pins the clock,
  // each component re-registers its events with schedule_rebuilt(), and
  // finish_restore() reinstates the sequence counter after proving every
  // saved event came back. Stale EventId members left over from the fresh
  // construction are simply overwritten — never cancel() them.
  void begin_restore(const KernelCheckpoint& ckpt) {
    heap_.clear();
    for (Lane& lane : lanes_) lane.clear();
    open_lanes_ = 0;
    chunks_.clear();
    slot_count_ = 0;
    free_head_ = kNoSlot;
    live_count_ = 0;
    now_ = SimTime{ckpt.now_ms};
    events_executed_ = ckpt.events_executed;
    restore_ = ckpt;
    restoring_ = true;
  }

  // Re-registers one saved event under its exact saved key. Components
  // rebuild in section order, not sequence order, so the event always
  // takes the heap, which orders it by key like any other push.
  template <typename F>
  EventId schedule_rebuilt(std::int64_t at_ms, std::uint32_t seq, F&& fn) {
    if (!restoring_) {
      throw snapshot::SnapshotError(snapshot::SnapshotErrc::kStateMismatch,
                                    "schedule_rebuilt outside restore",
                                    "kernel");
    }
    if (at_ms < now_.millis_since_epoch() || seq >= restore_.next_seq) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotErrc::kStateMismatch,
          "rebuild record key (" + std::to_string(at_ms) + ", " +
              std::to_string(seq) + ") outside the checkpoint's horizon",
          "kernel");
    }
    return push_event(at_ms, seq, std::forward<F>(fn));
  }

  void finish_restore() {
    if (!restoring_) {
      throw snapshot::SnapshotError(snapshot::SnapshotErrc::kStateMismatch,
                                    "finish_restore outside restore",
                                    "kernel");
    }
    restoring_ = false;
    next_seq_ = restore_.next_seq;
    if (live_count_ != restore_.live_events) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotErrc::kStateMismatch,
          "rebuilt " + std::to_string(live_count_) +
              " event(s), checkpoint recorded " +
              std::to_string(restore_.live_events),
          "kernel");
    }
  }

 private:
  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  struct Slot {
    InlineCallback fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    SlotState state = SlotState::kFree;
  };

  // POD queue node; sift operations shuffle these 16 bytes, never
  // callbacks. `seq` is a 32-bit rolling tie-breaker: when it would wrap,
  // every pending node is renumbered in place, preserving the exact
  // (time, scheduling-order) relation — see renumber_sequences().
  struct HeapNode {
    std::int64_t at_ms;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kMaxSeq = 0xffffffffu;
  // 256 slots x ~64 B = one 16 KiB chunk; chunks are never moved or freed
  // until the Simulation dies, so Slot& stays valid across callbacks.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  // Enough for the power tick, the 30-minute samplers, the probe
  // samplers and one transient delay.
  static constexpr int kLanes = 4;
  static constexpr std::int64_t kUnbound = -1;  // delays are >= 0
  // Where a node is queued: a lane index 0..kLanes-1, or the heap.
  static constexpr int kHeap = -1;

  // A FIFO of the nodes scheduled with one delay: appends arrive in
  // (time, seq) order, so the front is the lane's earliest node. A ring
  // whose power-of-two storage grows to the lane's peak occupancy and is
  // kept; only an empty lane is rebound to another delay.
  struct Lane {
    std::int64_t delay_ms = kUnbound;
    std::vector<HeapNode> ring;
    std::uint32_t mask = 0;  // ring.size() - 1
    std::uint32_t head = 0;
    std::uint32_t size = 0;

    [[nodiscard]] const HeapNode& at(std::uint32_t i) const {
      return ring[(head + i) & mask];
    }
    void push(HeapNode node) {
      if (size == ring.size()) grow();
      ring[(head + size) & mask] = node;
      ++size;
    }
    void pop() {
      head = (head + 1) & mask;
      --size;
    }
    void clear() {
      delay_ms = kUnbound;
      head = 0;
      size = 0;
    }
    void grow() {
      std::vector<HeapNode> wider(ring.empty() ? 8 : 2 * ring.size());
      for (std::uint32_t i = 0; i < size; ++i) wider[i] = at(i);
      ring.swap(wider);
      mask = std::uint32_t(ring.size() - 1);
      head = 0;
    }
  };

  static bool earlier(const HeapNode& a, const HeapNode& b) {
    if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
    return a.seq < b.seq;
  }

  [[nodiscard]] Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    std::uint32_t index = free_head_;
    if (index != kNoSlot) {
      free_head_ = slot_at(index).next_free;
    } else {
      index = slot_count_++;
      if ((index & (kChunkSize - 1)) == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
    }
    ++slot_at(index).generation;  // invalidate ids from any prior use
    return index;
  }

  void free_slot(std::uint32_t index, Slot& slot) {
    slot.state = SlotState::kFree;
    slot.next_free = free_head_;
    free_head_ = index;
  }

  // Builds `fn` in a fresh slot, pending and counted live; the caller
  // queues the slot's node.
  template <typename F>
  std::uint32_t fill_slot(F&& fn) {
    const std::uint32_t index = acquire_slot();
    Slot& slot = slot_at(index);
    slot.fn.emplace(std::forward<F>(fn));
    slot.state = SlotState::kPending;
    ++live_count_;
    return index;
  }

  [[nodiscard]] EventId id_of(std::uint32_t index) {
    return (std::uint64_t{index} << 32) | slot_at(index).generation;
  }

  // Builds `fn` in a fresh slot and queues it in the heap under
  // (at_ms, seq).
  template <typename F>
  EventId push_event(std::int64_t at_ms, std::uint32_t seq, F&& fn) {
    const std::uint32_t index = fill_slot(std::forward<F>(fn));
    heap_push(HeapNode{at_ms, seq, index});
    return id_of(index);
  }

  // The lane bound to `delay_ms`, else the first empty lane, rebound to
  // it; kHeap when every lane is bound to another delay and busy.
  int lane_for(std::int64_t delay_ms) {
    int empty = kHeap;
    for (int i = 0; i < kLanes; ++i) {
      const Lane& lane = lanes_[std::size_t(i)];
      if (lane.delay_ms == delay_ms) return i;
      if (empty == kHeap && lane.size == 0) empty = i;
    }
    if (empty != kHeap) lanes_[std::size_t(empty)].delay_ms = delay_ms;
    return empty;
  }

  // 4-ary implicit heap: hole-based sift (the inserted/last node is held in
  // a register and written once), half the levels of a binary heap, and the
  // four children of a node share at most two cache lines.
  void heap_push(HeapNode node) {
    std::size_t child = heap_.size();
    heap_.push_back(node);  // reserve the space; value overwritten below
    while (child > 0) {
      const std::size_t parent = (child - 1) / 4;
      if (!earlier(node, heap_[parent])) break;
      heap_[child] = heap_[parent];
      child = parent;
    }
    heap_[child] = node;
  }

  // Kept out of line: inlined into the pop loop beside the lane code, g++
  // 12 -O2 compiled a sift-down that ran BM_EventQueueScheduleRun, the
  // heap-only burst, 15-30 % slower.
  [[gnu::noinline]] void heap_pop() {
    const HeapNode last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size != 0) {
      std::size_t parent = 0;
      while (true) {
        const std::size_t first = 4 * parent + 1;
        if (first >= size) break;
        const std::size_t end = first + 4 < size ? first + 4 : size;
        std::size_t smallest = first;
        for (std::size_t i = first + 1; i < end; ++i) {
          if (earlier(heap_[i], heap_[smallest])) smallest = i;
        }
        if (!earlier(heap_[smallest], last)) break;
        heap_[parent] = heap_[smallest];
        parent = smallest;
      }
      heap_[parent] = last;
    }
  }

  // The earliest queued node (null when nothing is queued) and where it
  // sits. With every lane empty it is the heap's head alone.
  struct Head {
    const HeapNode* node;
    int source;
  };

  [[nodiscard]] Head earliest() const {
    Head best{heap_.empty() ? nullptr : heap_.data(), kHeap};
    for (unsigned open = open_lanes_; open != 0; open &= open - 1) {
      const int i = std::countr_zero(open);
      const HeapNode& front = lanes_[std::size_t(i)].at(0);
      if (best.node == nullptr || earlier(front, *best.node)) {
        best = Head{&front, i};
      }
    }
    return best;
  }

  void pop(int source) {
    if (source == kHeap) {
      heap_pop();
      return;
    }
    Lane& lane = lanes_[std::size_t(source)];
    lane.pop();
    if (lane.size == 0) open_lanes_ &= ~(1u << source);
  }

  // Drops tombstones sitting at the head of the queue and returns the
  // earliest live node (run_until's deadline check relies on this).
  Head live_head() {
    while (true) {
      const Head head = earliest();
      if (head.node == nullptr) return head;
      const std::uint32_t index = head.node->slot;
      Slot& slot = slot_at(index);
      if (slot.state != SlotState::kCancelled) return head;
      free_slot(index, slot);
      pop(head.source);
    }
  }

  // Runs the popped live node's callback at its time.
  void run_node(HeapNode node) {
    Slot& slot = slot_at(node.slot);
    now_ = SimTime{node.at_ms};
    ++events_executed_;
    --live_count_;
    // Mark free *before* invoking so a self-cancel is a no-op, but keep
    // the slot off the free list until after: the callback may schedule
    // (slot addresses are chunk-stable, so `slot` stays valid) and must
    // not be handed its own still-occupied slot.
    slot.state = SlotState::kFree;
    slot.fn.invoke_and_reset();
    slot.next_free = free_head_;
    free_head_ = node.slot;
  }

  // Re-packs every pending node's tie-break sequence number into 1..n.
  // The lanes drain into the heap, and sorting it by (time, seq)
  // preserves the exact execution order; a sorted array is a valid d-ary
  // min-heap, so determinism is unaffected. Amortized cost ~0: once every
  // 2^32 - 1 scheduled events.
  void renumber_sequences() {
    for (Lane& lane : lanes_) {
      for (std::uint32_t i = 0; i < lane.size; ++i) heap_.push_back(lane.at(i));
      lane.clear();
    }
    open_lanes_ = 0;
    std::sort(heap_.begin(), heap_.end(), earlier);
    std::uint32_t seq = 1;
    for (HeapNode& node : heap_) node.seq = seq++;
    next_seq_ = seq;
  }

  SimTime now_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
  std::size_t live_count_ = 0;
  std::vector<HeapNode> heap_;  // pending nodes off the lanes, 4-ary min-heap
  std::array<Lane, kLanes> lanes_;
  unsigned open_lanes_ = 0;  // bit i set while lanes_[i] holds a node
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  KernelCheckpoint restore_{};  // horizon while restoring_
  bool restoring_ = false;
};

// Saves or restores one component-owned pending event through a snapshot
// archive (the standard way to write a rebuild record — see
// docs/SNAPSHOT.md). On save: records whether `id` is still pending and,
// if so, its exact queued key, and counts it in ar.rebuild_records so the
// fleet save can prove every live event is accounted for. On restore:
// re-registers `rebuild` under the saved key (or writes the null id).
// `rebuild` is any void() callable; it is only consumed on the load path.
template <class Archive, typename F>
void persist_pending(Archive& ar, Simulation& sim, EventId& id, F&& rebuild) {
  if constexpr (Archive::kIsSaver) {
    const auto key = sim.pending_key(id);
    const bool live = key.has_value();
    ar.value(live);
    if (live) {
      ar.value(key->first);
      ar.value(key->second);
      ++ar.rebuild_records;
    }
  } else {
    bool live = false;
    ar.value(live);
    if (live) {
      std::int64_t at_ms = 0;
      std::uint32_t seq = 0;
      ar.value(at_ms);
      ar.value(seq);
      id = sim.schedule_rebuilt(at_ms, seq, std::forward<F>(rebuild));
    } else {
      id = EventId{0};  // generations start at 1, so 0 never matches
    }
  }
}

}  // namespace gw::sim
