// Probe-side reading store with task-completion semantics.
//
// §V's saving grace: "the task was not marked as complete in the probes; so
// many missing readings were obtained in subsequent days." The store keeps
// every reading until the base station has confirmed it, so a failed or
// truncated session simply leaves work for tomorrow.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "proto/reading.h"

namespace gw::proto {

class ProbeStore {
 public:
  void add(ProbeReading reading) { pending_.push_back(reading); }

  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] bool empty() const { return pending_.empty(); }

  // Everything awaiting delivery, oldest first (what the probe streams when
  // the base station queries it).
  [[nodiscard]] const std::deque<ProbeReading>& pending() const {
    return pending_;
  }

  // Lookup by sequence number (individual re-request path).
  [[nodiscard]] const ProbeReading* find(std::uint32_t seq) const {
    for (const auto& reading : pending_) {
      if (reading.seq == seq) return &reading;
    }
    return nullptr;
  }

  // The base station confirms what arrived, one flag per pending reading
  // in pending() order (non-zero: delivered); only then do readings leave
  // the probe. Readings past the end of `delivered` stay. Returns how many
  // were released.
  std::size_t confirm_delivered(const std::vector<std::uint8_t>& delivered) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (i < delivered.size() && delivered[i] != 0) continue;
      pending_[kept++] = pending_[i];
    }
    const std::size_t released = pending_.size() - kept;
    pending_.resize(kept);
    delivered_total_ += released;
    return released;
  }

  [[nodiscard]] std::size_t delivered_total() const {
    return delivered_total_;
  }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(pending_);
    ar.value(delivered_total_);
  }

 private:
  std::deque<ProbeReading> pending_;
  std::size_t delivered_total_ = 0;
};

}  // namespace gw::proto
