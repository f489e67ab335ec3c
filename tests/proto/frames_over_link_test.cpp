// End-to-end coherence of the frame codec with the lossy link: stream
// encoded reading frames through per-bit corruption, count CRC rejections
// as the "broken data packets" the paper's base station records alongside
// outright losses (§V: "records missing or broken data packets").
#include <gtest/gtest.h>

#include "env/environment.h"

#include "proto/probe_frames.h"
#include "proto/probe_link.h"
#include "util/rng.h"

namespace gw::proto {
namespace {

TEST(FramesOverLink, CorruptionAlwaysDetectedNeverAccepted) {
  util::Rng rng{5};
  int rejected = 0;
  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    ProbeReading reading;
    reading.probe_id = 21;
    reading.seq = std::uint32_t(i);
    reading.conductivity_us = 1.0 + 0.1 * rng.normal();
    auto wire = encode_reading_frame(reading);
    // 13% of frames take a bit flip somewhere (summer-grade corruption).
    if (rng.bernoulli(0.13)) {
      const auto byte = rng.uniform_index(wire.size());
      const auto bit = rng.uniform_index(8);
      wire[byte] = std::uint8_t(wire[byte] ^ (1u << bit));
      const auto decoded = decode_frame(wire);
      if (!decoded.ok()) {
        ++rejected;
        continue;
      }
      // A flip in the payload MUST have been caught by the CRC; a surviving
      // decode can only mean the flip landed... nowhere. Fail loudly.
      FAIL() << "corrupted frame accepted at frame " << i;
    }
    const auto decoded = decode_frame(wire);
    ASSERT_TRUE(decoded.ok());
    const auto parsed = parse_reading(decoded.value().payload);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().seq, std::uint32_t(i));
  }
  // The corruption rate seen by the receiver matches what was injected.
  EXPECT_NEAR(rejected / double(kFrames), 0.13, 0.025);
}

TEST(FramesOverLink, BrokenFramesBehaveLikeMissingOnes) {
  // The §V algorithm treats a CRC-rejected frame exactly like a lost one:
  // its sequence number lands on the re-request list. Simulate one stream
  // and verify the bookkeeping matches the NACK protocol's model.
  env::Environment environment{1};
  ProbeLink link{environment.melt(), util::Rng{3}};
  util::Rng corruption{4};

  const auto when = sim::at_midnight(2009, 2, 1);
  std::set<std::uint32_t> received;
  constexpr std::uint32_t kCount = 1000;
  for (std::uint32_t seq = 0; seq < kCount; ++seq) {
    ProbeReading reading;
    reading.probe_id = 21;
    reading.seq = seq;
    auto wire = encode_reading_frame(reading);
    if (!link.packet_survives(when)) continue;  // lost outright
    if (corruption.bernoulli(0.01)) {           // arrives broken
      wire[20] ^= 0x04;
    }
    const auto decoded = decode_frame(wire);
    if (!decoded.ok()) continue;  // recorded as broken -> re-request
    received.insert(decoded.value().seq);
  }
  const std::size_t missing = kCount - received.size();
  // Winter loss ~2% plus ~1% corruption: ~3% on the re-request list.
  EXPECT_NEAR(double(missing) / kCount, 0.03, 0.015);
}

}  // namespace
}  // namespace gw::proto
