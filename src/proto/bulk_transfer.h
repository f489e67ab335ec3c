// Probe bulk-data transfer protocols.
//
// NackBulkTransfer is the paper's §V algorithm: stream every pending
// reading *without* per-packet acknowledgements, record which arrived,
// then request the missing ones individually — "unless there were so many
// that it would be as efficient to request them all again". The
// `legacy_individual_limit` knob reproduces the deployed firmware's
// failure: a fetch of ~400 individually-requested readings "was never
// considered in the testing phase and the process could fail".
//
// StopAndWaitTransfer is the conventional per-packet-ACK comparator the
// paper's "new technique, avoiding acknowledge packets" is measured
// against in bench_probe_protocol.
//
// Both protocols account airtime against a session budget (the slice of
// the 2-hour window allotted to probe jobs) and only *confirm* delivered
// readings to the probe store — unconfirmed readings stay pending for the
// next day's window, exactly the behaviour that rescued the deployment.
#pragma once

#include <vector>

#include "obs/journal.h"
#include "proto/probe_link.h"
#include "proto/probe_store.h"
#include "sim/time.h"

namespace gw::proto {

struct TransferStats {
  std::size_t offered = 0;        // pending at session start
  std::size_t delivered = 0;      // confirmed this session
  std::size_t still_missing = 0;  // left pending for tomorrow
  std::uint64_t data_packets = 0;     // probe -> base frames
  std::uint64_t control_packets = 0;  // base -> probe requests/ACKs
  sim::Duration airtime{};
  bool aborted = false;           // legacy firmware failure (§V)
  bool budget_exhausted = false;
  int rerequest_all_rounds = 0;   // times the whole set was re-streamed
  int retransmit_rounds = 0;      // retry rounds entered after the stream
  std::size_t missing_after_stream = 0;  // the "~400 of 3000" number
  util::Bytes bytes_on_air{0};    // every frame sent, both directions
  // The payloads that made it — the base station decodes, logs and packages
  // these (and the §VII data-priority analyser inspects them).
  std::vector<ProbeReading> delivered_readings;
};

struct NackConfig {
  int max_rounds = 4;
  // If missing/offered after a round reaches this, re-stream everything
  // missing instead of issuing per-reading requests.
  double rerequest_all_ratio = 0.5;
  // >0 reproduces the deployed bug: the session aborts when the individual
  // re-request list exceeds this (0 = fixed firmware, no limit).
  std::size_t legacy_individual_limit = 0;
  // How long the base waits for a probe response to a lost request.
  sim::Duration response_timeout = sim::milliseconds(250);
};

class NackBulkTransfer {
 public:
  // `hooks` (optional) records per-session counters and histograms under
  // the "bulk_transfer" component plus per-round journal records — see
  // docs/OBSERVABILITY.md.
  explicit NackBulkTransfer(ProbeLink& link, NackConfig config = {},
                            obs::Hooks hooks = {})
      : link_(link), config_(config), hooks_(hooks) {}

  TransferStats run(ProbeStore& store, sim::SimTime start,
                    sim::Duration budget);

 private:
  ProbeLink& link_;
  NackConfig config_;
  obs::Hooks hooks_;
};

struct StopAndWaitConfig {
  int max_retries_per_reading = 4;
  sim::Duration ack_timeout = sim::milliseconds(250);
};

class StopAndWaitTransfer {
 public:
  explicit StopAndWaitTransfer(ProbeLink& link, StopAndWaitConfig config = {},
                               obs::Hooks hooks = {})
      : link_(link), config_(config), hooks_(hooks) {}

  TransferStats run(ProbeStore& store, sim::SimTime start,
                    sim::Duration budget);

 private:
  ProbeLink& link_;
  StopAndWaitConfig config_;
  obs::Hooks hooks_;
};

}  // namespace gw::proto
