#include "proto/bulk_transfer.h"

#include <algorithm>
#include <vector>

namespace gw::proto {
namespace {

// Shared session bookkeeping: advances a time cursor per frame and stops at
// the budget. Time advances with airtime because loss probability is
// time-dependent (a session can straddle changing conditions).
class Session {
 public:
  Session(ProbeLink& link, sim::SimTime start, sim::Duration budget)
      : link_(link), now_(start), deadline_(start + budget) {}

  [[nodiscard]] bool out_of_budget() const { return now_ >= deadline_; }
  [[nodiscard]] sim::SimTime now() const { return now_; }
  [[nodiscard]] sim::Duration elapsed(sim::SimTime start) const {
    return now_ - start;
  }

  // Sends one frame: spends airtime, draws survival.
  bool send(util::Bytes wire_size) {
    now_ += link_.airtime(wire_size);
    return link_.packet_survives(now_);
  }

  // Idle wait (retransmission timeouts).
  void wait(sim::Duration d) { now_ += d; }

 private:
  ProbeLink& link_;
  sim::SimTime now_;
  sim::SimTime deadline_;
};

// Session-end bookkeeping shared by both protocols: totals into the
// "bulk_transfer" component (docs/OBSERVABILITY.md core set).
void publish_session(obs::Hooks hooks, const TransferStats& stats,
                     sim::SimTime end) {
  if (hooks.metrics != nullptr) {
    auto& metrics = *hooks.metrics;
    metrics.counter("bulk_transfer", "sessions").increment();
    metrics.counter("bulk_transfer", "data_frames")
        .increment(stats.data_packets);
    metrics.counter("bulk_transfer", "control_frames")
        .increment(stats.control_packets);
    metrics.counter("bulk_transfer", "delivered_readings")
        .increment(stats.delivered);
    metrics.counter("bulk_transfer", "retransmit_rounds")
        .increment(std::uint64_t(stats.retransmit_rounds));
    metrics.counter("bulk_transfer", "rerequest_all_rounds")
        .increment(std::uint64_t(stats.rerequest_all_rounds));
    if (stats.aborted) {
      metrics.counter("bulk_transfer", "aborted_sessions").increment();
    }
    if (stats.budget_exhausted) {
      metrics.counter("bulk_transfer", "budget_exhausted_sessions")
          .increment();
    }
    if (stats.delivered > 0) {
      // The §V efficiency observable: cost on air per reading landed.
      metrics
          .histogram("bulk_transfer", "bytes_per_reading",
                     {8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 1024})
          .observe(double(stats.bytes_on_air.count()) /
                   double(stats.delivered));
    }
  }
  if (hooks.journal != nullptr && stats.aborted) {
    hooks.journal->record(end.millis_since_epoch(),
                          obs::EventType::kSessionAborted, "bulk_transfer",
                          double(stats.offered - stats.delivered));
  }
}

// Hands the base station the readings flagged in `received` (one flag per
// pending reading) and confirms them to the probe, which releases them.
void deliver(ProbeStore& store, const std::vector<std::uint8_t>& received,
             TransferStats& stats) {
  const auto& pending = store.pending();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (received[i] != 0) stats.delivered_readings.push_back(pending[i]);
  }
  stats.delivered = store.confirm_delivered(received);
  stats.still_missing = stats.offered - stats.delivered;
}

}  // namespace

TransferStats NackBulkTransfer::run(ProbeStore& store, sim::SimTime start,
                                    sim::Duration budget) {
  TransferStats stats;
  Session session{link_, start, budget};

  // The work list is the probe's pending backlog, which it streams in
  // answer to the daily query; `received` flags what arrived, by position.
  stats.offered = store.pending_count();
  std::vector<std::uint8_t> received(stats.offered, 0);

  // Round 0: stream everything with no per-packet ACKs (§V).
  auto stream = [&] {
    for (std::size_t i = 0; i < stats.offered; ++i) {
      if (session.out_of_budget()) {
        stats.budget_exhausted = true;
        break;
      }
      ++stats.data_packets;
      stats.bytes_on_air += kReadingWireSize;
      if (session.send(kReadingWireSize)) received[i] = 1;
    }
  };
  stream();

  auto missing_list = [&] {
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < stats.offered; ++i) {
      if (received[i] == 0) missing.push_back(i);
    }
    return missing;
  };

  stats.missing_after_stream = missing_list().size();

  for (int round = 1; round < config_.max_rounds; ++round) {
    if (stats.budget_exhausted || stats.aborted) break;
    const std::vector<std::size_t> missing = missing_list();
    if (missing.empty()) break;
    ++stats.retransmit_rounds;
    if (hooks_.journal != nullptr) {
      hooks_.journal->record(session.now().millis_since_epoch(),
                             obs::EventType::kRetransmitRound,
                             "bulk_transfer", double(round),
                             double(missing.size()));
    }

    // "unless there were so many that it would be as efficient to request
    // them all again" — the probe's bulk mode can only replay its *entire*
    // pending dump, so the whole set is re-streamed (already-received
    // frames arrive as duplicates and are dropped). That costs one data
    // frame per reading offered; the individual path costs a request +
    // response (+ timeout risk) per *missing* reading — the crossover the
    // ratio knob encodes sits near 50%.
    if (double(missing.size()) >=
        config_.rerequest_all_ratio * double(stats.offered)) {
      ++stats.rerequest_all_rounds;
      stream();
      continue;
    }

    // Individual re-requests — the path that "could fail" in the deployed
    // firmware when ~400 readings landed on it (§V).
    if (config_.legacy_individual_limit > 0 &&
        missing.size() > config_.legacy_individual_limit) {
      stats.aborted = true;
      break;
    }
    for (const std::size_t i : missing) {
      if (session.out_of_budget()) {
        stats.budget_exhausted = true;
        break;
      }
      ++stats.control_packets;
      stats.bytes_on_air += kRequestWireSize;
      if (!session.send(kRequestWireSize)) {
        // Request lost: the probe never answers; wait out the response
        // timer before moving on.
        session.wait(kResponseTimeout);
        continue;
      }
      ++stats.data_packets;
      stats.bytes_on_air += kReadingWireSize;
      if (session.send(kReadingWireSize)) received[i] = 1;
    }
  }

  // Final confirmation: tell the probe what arrived so it can drop those
  // readings. Small frame; modelled as reliable (it is retried at the
  // command layer until it gets through).
  if (std::find(received.begin(), received.end(), 1) != received.end()) {
    ++stats.control_packets;
    stats.bytes_on_air += kAckWireSize;
  }

  deliver(store, received, stats);
  stats.airtime = session.elapsed(start);
  publish_session(hooks_, stats, session.now());
  return stats;
}

TransferStats StopAndWaitTransfer::run(ProbeStore& store, sim::SimTime start,
                                       sim::Duration budget) {
  TransferStats stats;
  Session session{link_, start, budget};

  stats.offered = store.pending_count();
  std::vector<std::uint8_t> acked(stats.offered, 0);

  for (std::size_t i = 0; i < stats.offered; ++i) {
    if (session.out_of_budget()) {
      stats.budget_exhausted = true;
      break;
    }
    for (int attempt = 0; attempt < kMaxRetriesPerReading; ++attempt) {
      if (session.out_of_budget()) {
        stats.budget_exhausted = true;
        break;
      }
      ++stats.data_packets;
      stats.bytes_on_air += kReadingWireSize;
      const bool data_arrived = session.send(kReadingWireSize);
      if (!data_arrived) {
        session.wait(kAckTimeout);  // sender times out, retransmits
        continue;
      }
      ++stats.control_packets;
      stats.bytes_on_air += kAckWireSize;
      const bool ack_arrived = session.send(kAckWireSize);
      if (ack_arrived) {
        acked[i] = 1;
        break;
      }
      // ACK lost: sender waits out the timer, then retransmits a reading
      // the base already has — the duplicate cost the NACK design avoids.
      session.wait(kAckTimeout);
    }
  }

  deliver(store, acked, stats);
  stats.airtime = session.elapsed(start);
  publish_session(hooks_, stats, session.now());
  return stats;
}

}  // namespace gw::proto
