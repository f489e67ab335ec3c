// Frame-level bulk-transfer session.
//
// NackBulkTransfer models the §V protocol with wire-size arithmetic; this
// class *runs* it — every frame is actually encoded, passed through the
// lossy link (plus optional in-flight bit corruption), decoded at the far
// end, and answered by the probe's ProbeResponder firmware. It exists to
// validate the abstract model: tests assert that both implementations
// agree on delivery, airtime and packet counts, so the fast model the
// benches use can be trusted.
#pragma once

#include "proto/bulk_transfer.h"
#include "proto/probe_frames.h"
#include "proto/probe_link.h"
#include "proto/probe_responder.h"
#include "proto/probe_store.h"
#include "sim/time.h"
#include "util/rng.h"

namespace gw::proto {

struct FrameSessionConfig {
  int max_rounds = 4;
  double rerequest_all_ratio = 0.5;
  // Probability a frame that physically arrives is bit-damaged (detected
  // by its CRC and treated as missing — §V's "broken data packets").
  double corruption_probability = 0.005;
};

class FrameLevelTransfer {
 public:
  FrameLevelTransfer(ProbeLink& link, util::Rng rng,
                     FrameSessionConfig config = {})
      : link_(link), config_(config), rng_(rng) {}

  // Runs one full fetch session against a probe's firmware.
  TransferStats run(ProbeResponder& responder, ProbeStore& store,
                    std::uint16_t probe_id, sim::SimTime start,
                    sim::Duration budget);

 private:
  ProbeLink& link_;
  FrameSessionConfig config_;
  util::Rng rng_;
};

}  // namespace gw::proto
