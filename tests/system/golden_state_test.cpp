// Golden whole-world state fingerprint (docs/SNAPSHOT.md).
//
// A 20-day faulted two-station season is snapshotted and every section's
// CRC-32 — plus the whole-world fingerprint — is pinned, once with the
// trace off and once with it on. Any change to any subsystem's dynamics,
// rng draw order, or persist field list shows up here as a named section,
// not a blind hash mismatch. The size of the whole
// sealed stream and its stored file CRC (the trailing four bytes, which
// must equal the CRC-32 of every byte before them) are pinned too: they
// cover the framing, which no section CRC sees. The CRC-32 of the whole
// stream would pin nothing: for any stream that ends in its own
// little-endian CRC it is the same constant residue. That is deliberate
// friction: a legitimate behaviour change must re-pin these constants in
// the same commit, with the diff showing exactly which subsystems moved
// (tools/gwsnap diff does the same for saved snapshot files). On mismatch
// the test prints the freshly-computed table ready to paste.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "snapshot/state_writer.h"
#include "station/fleet.h"
#include "util/crc32.h"

namespace gw::station {
namespace {

FleetConfig golden_config() {
  FleetConfig config;
  config.seed = 20080601;
  config.start = sim::DateTime{2008, 6, 1, 0, 0, 0};
  config.trace_enabled = false;
  config.fault_spec =
      "# scripted season, first 20 days (docs/FAULTS.md)\n"
      "gprs_outage      start=5d  duration=7d  severity=1.0\n"
      "dgps_no_fix      start=14d duration=2d  severity=0.9\n"
      "cf_write_fail    start=16d duration=1d  severity=0.3\n"
      "server_down      start=18d duration=12h\n";

  StationSpec base;
  base.station.name = "base";
  base.station.role = StationRole::kBaseStation;
  base.station.power.battery.capacity = util::AmpHours{6.0};
  base.station.power.battery.initial_soc = 0.6;
  base.station.power.battery.self_discharge_per_day = 0.10;
  base.station.uploads.session_timeout = sim::minutes(15);
  base.station.uploads.retry_backoff_base = sim::minutes(1);
  base.station.degrade_after_failed_days = 3;
  base.sync_group = "g1";
  base.chargers = {ChargerKind::kSolar, ChargerKind::kWind};
  base.probe_count = 3;
  config.stations.push_back(std::move(base));

  StationSpec reference;
  reference.station.name = "reference";
  reference.station.role = StationRole::kReferenceStation;
  reference.sync_group = "g1";
  reference.chargers = {ChargerKind::kSolar, ChargerKind::kMains};
  reference.probe_count = 0;
  config.stations.push_back(std::move(reference));
  return config;
}

struct GoldenSection {
  const char* name;
  std::uint32_t crc;
};

// What a golden season pins: every section CRC in order, the fingerprint,
// the size of the sealed stream and its stored file CRC.
struct Golden {
  std::span<const GoldenSection> sections;
  std::uint32_t fingerprint;
  std::size_t sealed_bytes;
  std::uint32_t file_crc;
};

// Runs `config` to day 20 + 17 min, seals it and compares the container
// with `golden`, printing the freshly-computed table on any drift.
void expect_golden_season(const FleetConfig& config, const Golden& golden) {
  Fleet fleet{config};
  fleet.simulation().run_until(fleet.simulation().now() + sim::days(20) +
                               sim::minutes(17));
  const std::vector<std::uint8_t> snapshot = fleet.save_snapshot();
  const snapshot::StateReader reader(snapshot);

  // The reader above has refused any stream too short for its framing.
  const std::size_t body = snapshot.size() - 4;
  std::uint32_t file_crc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    file_crc |= std::uint32_t(snapshot[body + i]) << (8 * i);
  }
  EXPECT_EQ(file_crc,
            util::crc32(std::span<const std::uint8_t>(snapshot).first(body)));
  bool drifted = reader.fingerprint() != golden.fingerprint ||
                 reader.sections().size() != golden.sections.size() ||
                 snapshot.size() != golden.sealed_bytes ||
                 file_crc != golden.file_crc;
  ASSERT_EQ(reader.sections().size(), golden.sections.size());
  for (std::size_t i = 0; i < golden.sections.size(); ++i) {
    const auto& section = reader.sections()[i];
    EXPECT_EQ(section.name, golden.sections[i].name);
    EXPECT_EQ(section.crc, golden.sections[i].crc)
        << "drifted section: " << section.name;
    drifted = drifted || section.name != golden.sections[i].name ||
              section.crc != golden.sections[i].crc;
  }
  EXPECT_EQ(reader.fingerprint(), golden.fingerprint);
  EXPECT_EQ(snapshot.size(), golden.sealed_bytes);
  EXPECT_EQ(file_crc, golden.file_crc);

  if (drifted) {
    std::printf("// freshly-computed golden table:\n");
    for (const auto& section : reader.sections()) {
      std::printf("    {\"%s\", 0x%08xu},\n", section.name.c_str(),
                  section.crc);
    }
    std::printf("fingerprint 0x%08xu, sealed bytes %zu, file CRC 0x%08xu\n",
                reader.fingerprint(), snapshot.size(), file_crc);
  }
}

// Pinned from the first green run; re-pin (paste the printed table) when a
// deliberate behaviour change moves a subsystem.
constexpr GoldenSection kGolden[] = {
    {"meta", 0xe54be544u},
    {"kernel", 0xd7270826u},
    {"fault", 0x702f7349u},
    {"server", 0xf18c2d33u},
    {"fleet", 0x1dcdf777u},
    {"station/base", 0x16ca6becu},
    {"probe/base/20", 0xafe3f1feu},
    {"probe/base/21", 0x00e69659u},
    {"probe/base/22", 0x057e1737u},
    {"station/reference", 0x3f78c1acu},
};
constexpr std::uint32_t kGoldenFingerprint = 0x39310183u;
constexpr std::size_t kGoldenSealedBytes = 88183;
constexpr std::uint32_t kGoldenFileCrc = 0x428b8bc0u;

TEST(GoldenStateTest, TwentyDayFaultedSeasonFingerprint) {
  expect_golden_season(golden_config(),
                       Golden{kGolden, kGoldenFingerprint, kGoldenSealedBytes,
                              kGoldenFileCrc});
}

// The same season with the 30-minute trace on: the `fleet` section then
// carries 9 series of 961 samples each, so this pins the trace codec. The
// sampler's events take kernel sequence numbers, which the pending events'
// rebuild records carry, so the kernel, station and probe sections differ
// from the trace-off table's too; tracing changes no ledger
// (tests/system/trace_invariance_test.cpp).
constexpr GoldenSection kTracedGolden[] = {
    {"meta", 0xe54be544u},
    {"kernel", 0x20f738ebu},
    {"fault", 0x702f7349u},
    {"server", 0xf18c2d33u},
    {"fleet", 0xcc79fa5bu},
    {"station/base", 0xeaa77acbu},
    {"probe/base/20", 0x41de5967u},
    {"probe/base/21", 0xeedb3ec0u},
    {"probe/base/22", 0xeb43bfaeu},
    {"station/reference", 0x80d3ddd9u},
};
constexpr std::uint32_t kTracedGoldenFingerprint = 0x189818c9u;
constexpr std::size_t kTracedGoldenSealedBytes = 157973;
constexpr std::uint32_t kTracedGoldenFileCrc = 0xc3dc02c2u;

TEST(GoldenStateTest, TracedTwentyDaySeasonFingerprint) {
  FleetConfig config = golden_config();
  config.trace_enabled = true;
  expect_golden_season(config, Golden{kTracedGolden, kTracedGoldenFingerprint,
                                      kTracedGoldenSealedBytes,
                                      kTracedGoldenFileCrc});
}

}  // namespace
}  // namespace gw::station
