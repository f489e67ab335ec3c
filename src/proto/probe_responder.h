// Probe-side radio firmware: the state machine that answers the base
// station's frames.
//
// This is the half of the §V dialogue that runs 70 m under the ice. It is
// deliberately tiny and stateless between frames (MSP430-class firmware):
//   kQueryPending  -> stream every pending reading, one frame each;
//   kResendRequest -> retransmit exactly that sequence, if still held;
//   kConfirm       -> release the named readings (task-completion
//                     semantics: nothing leaves until confirmed) and ack;
//   kAck           -> silence (only stop-and-wait bases send these).
// Frames for a different probe id are ignored — all probes share the ice
// as a broadcast medium.
#pragma once

#include <algorithm>
#include <vector>

#include "proto/probe_frames.h"
#include "proto/probe_store.h"

namespace gw::proto {

class ProbeResponder {
 public:
  ProbeResponder(ProbeStore& store, std::uint16_t probe_id)
      : store_(store), probe_id_(probe_id) {}

  // Handles one decoded frame; returns the wire frames to transmit back.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> handle(
      const Frame& frame) {
    if (frame.probe_id != probe_id_) return {};  // not addressed to us
    switch (frame.type) {
      case FrameType::kQueryPending:
        return stream_pending();
      case FrameType::kResendRequest:
        return resend(frame.seq);
      case FrameType::kConfirm:
        return confirm(frame);
      case FrameType::kAck:
      case FrameType::kReadingData:
        return {};  // nothing a probe needs to do
    }
    return {};
  }

  [[nodiscard]] std::size_t confirms_processed() const {
    return confirms_processed_;
  }

 private:
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> stream_pending() {
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(store_.pending_count());
    for (const auto& reading : store_.pending()) {
      out.push_back(encode_reading_frame(reading));
    }
    return out;
  }

  [[nodiscard]] std::vector<std::vector<std::uint8_t>> resend(
      std::uint32_t seq) {
    const ProbeReading* reading = store_.find(seq);
    if (reading == nullptr) return {};  // already released or never existed
    return {encode_reading_frame(*reading)};
  }

  [[nodiscard]] std::vector<std::vector<std::uint8_t>> confirm(
      const Frame& frame) {
    auto seqs = parse_confirm(frame);
    if (!seqs.ok()) return {};  // malformed: base will retry
    std::vector<std::uint32_t>& named = seqs.value();
    std::sort(named.begin(), named.end());
    std::vector<std::uint8_t> delivered;
    delivered.reserve(store_.pending_count());
    for (const auto& reading : store_.pending()) {
      delivered.push_back(
          std::binary_search(named.begin(), named.end(), reading.seq) ? 1 : 0);
    }
    (void)store_.confirm_delivered(delivered);
    ++confirms_processed_;
    return {encode_ack(probe_id_, frame.seq)};
  }

  ProbeStore& store_;
  std::uint16_t probe_id_;
  std::size_t confirms_processed_ = 0;
};

}  // namespace gw::proto
