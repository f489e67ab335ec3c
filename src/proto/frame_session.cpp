#include "proto/frame_session.h"

#include <set>
#include <vector>

namespace gw::proto {
namespace {

// The physical trip for one encoded frame: airtime, loss draw, optional
// bit damage. Returns the frame the receiver decodes, or nullopt for a
// loss / CRC rejection (indistinguishable to the §V algorithm).
class Radio {
 public:
  Radio(ProbeLink& link, util::Rng& rng, double corruption,
        sim::SimTime start, sim::Duration budget)
      : link_(link),
        rng_(rng),
        corruption_(corruption),
        now_(start),
        deadline_(start + budget) {}

  [[nodiscard]] bool out_of_budget() const { return now_ >= deadline_; }
  [[nodiscard]] sim::SimTime now() const { return now_; }
  [[nodiscard]] sim::Duration elapsed(sim::SimTime start) const {
    return now_ - start;
  }
  void wait(sim::Duration d) { now_ += d; }

  std::optional<Frame> send(std::vector<std::uint8_t> wire) {
    now_ += link_.airtime(util::Bytes{std::int64_t(wire.size())});
    if (!link_.packet_survives(now_)) return std::nullopt;
    if (rng_.bernoulli(corruption_)) {
      const auto byte = rng_.uniform_index(wire.size());
      wire[byte] = std::uint8_t(wire[byte] ^ 0x08);
    }
    auto decoded = decode_frame(wire);
    if (!decoded.ok()) return std::nullopt;  // broken: CRC caught it
    return decoded.value();
  }

 private:
  ProbeLink& link_;
  util::Rng& rng_;
  double corruption_;
  sim::SimTime now_;
  sim::SimTime deadline_;
};

}  // namespace

TransferStats FrameLevelTransfer::run(ProbeResponder& responder,
                                      ProbeStore& store,
                                      std::uint16_t probe_id,
                                      sim::SimTime start,
                                      sim::Duration budget) {
  TransferStats stats;
  Radio radio{link_, rng_, config_.corruption_probability, start, budget};

  // The daily query opens the session. Model it as reliable (it is retried
  // by the command layer until the probe answers or the day is abandoned).
  std::vector<std::uint32_t> wanted;
  for (const auto& reading : store.pending()) wanted.push_back(reading.seq);
  stats.offered = wanted.size();
  ++stats.control_packets;
  const auto query = decode_frame(encode_query_pending(probe_id));
  const auto stream = responder.handle(query.value());

  std::set<std::uint32_t> received;
  auto receive_reading = [&](std::optional<Frame> frame) {
    if (!frame.has_value()) return;
    const auto parsed = parse_reading(frame->payload);
    if (parsed.ok()) received.insert(parsed.value().seq);
  };

  // Round 0: the probe streams everything pending.
  for (const auto& wire : stream) {
    if (radio.out_of_budget()) {
      stats.budget_exhausted = true;
      break;
    }
    ++stats.data_packets;
    receive_reading(radio.send(wire));
  }

  auto missing_list = [&] {
    std::vector<std::uint32_t> missing;
    for (const auto seq : wanted) {
      if (!received.contains(seq)) missing.push_back(seq);
    }
    return missing;
  };
  stats.missing_after_stream = missing_list().size();

  for (int round = 1; round < config_.max_rounds; ++round) {
    if (stats.budget_exhausted) break;
    const auto missing = missing_list();
    if (missing.empty()) break;

    if (double(missing.size()) >=
        config_.rerequest_all_ratio * double(stats.offered)) {
      // Replay the whole dump (§V: "request them all again").
      ++stats.rerequest_all_rounds;
      ++stats.control_packets;
      const auto replay = responder.handle(query.value());
      for (const auto& wire : replay) {
        if (radio.out_of_budget()) {
          stats.budget_exhausted = true;
          break;
        }
        ++stats.data_packets;
        receive_reading(radio.send(wire));
      }
      continue;
    }

    for (const auto seq : missing) {
      if (radio.out_of_budget()) {
        stats.budget_exhausted = true;
        break;
      }
      ++stats.control_packets;
      const auto request = radio.send(encode_resend_request(probe_id, seq));
      if (!request.has_value()) {
        radio.wait(config_.response_timeout);  // probe never heard us
        continue;
      }
      const auto responses = responder.handle(*request);
      if (responses.empty()) continue;  // already released / unknown
      ++stats.data_packets;
      receive_reading(radio.send(responses.front()));
    }
  }

  // Capture the payloads before confirmation releases them.
  for (const auto& reading : store.pending()) {
    if (received.contains(reading.seq)) {
      stats.delivered_readings.push_back(reading);
    }
  }

  // Confirmation dialogue: chunked confirm frames, command-layer reliable.
  if (!received.empty()) {
    std::vector<std::uint32_t> confirmed(received.begin(), received.end());
    for (const auto& wire : encode_confirm(probe_id, confirmed)) {
      ++stats.control_packets;
      const auto frame = decode_frame(wire);
      (void)responder.handle(frame.value());
    }
  }

  stats.delivered = stats.offered - store.pending_count();
  stats.still_missing = store.pending_count();
  stats.airtime = radio.elapsed(start);
  return stats;
}

}  // namespace gw::proto
