#include "hw/cf_card.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "snapshot/archive.h"

namespace gw::hw {
namespace {

using namespace util::literals;

CompactFlashCard make_card(StorageFormat format = StorageFormat::kPlain,
                           std::uint64_t seed = 1) {
  CfCardConfig config;
  config.format = format;
  return CompactFlashCard{util::Rng{seed}, config};
}

TEST(CfCard, WriteReadRemove) {
  auto card = make_card();
  ASSERT_TRUE(card.write("dgps_001", 165_KiB).ok());
  ASSERT_TRUE(card.exists("dgps_001"));
  const auto read = card.read("dgps_001");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 165_KiB);
  EXPECT_TRUE(card.remove("dgps_001").ok());
  EXPECT_FALSE(card.exists("dgps_001"));
  EXPECT_FALSE(card.remove("dgps_001").ok());
}

TEST(CfCard, CapacityEnforced) {
  CfCardConfig config;
  config.capacity = 300_KiB;
  CompactFlashCard card{util::Rng{1}, config};
  ASSERT_TRUE(card.write("a", 165_KiB).ok());
  EXPECT_FALSE(card.write("b", 165_KiB).ok());
  EXPECT_EQ(card.file_count(), 1u);
}

TEST(CfCard, CapacityCountsOverwritesAndRemovals) {
  CfCardConfig config;
  config.capacity = 1000_B;
  CompactFlashCard card{util::Rng{1}, config};
  ASSERT_TRUE(card.write("a", 600_B).ok());
  ASSERT_TRUE(card.write("a", 300_B).ok());  // overwrite frees 300 B
  ASSERT_TRUE(card.write("b", 700_B).ok());  // exactly full
  EXPECT_EQ(card.used(), 1000_B);
  EXPECT_FALSE(card.begin_write("c", 1_B).ok());
  ASSERT_TRUE(card.remove("b").ok());
  ASSERT_TRUE(card.write("c", 700_B).ok());
  EXPECT_FALSE(card.begin_write("d", 1_B).ok());
}

// Sum of every stored file's size, read back through the public API:
// healthy files by read(), corrupted ones as an fsck scan's loss (a scan
// without recovery changes nothing).
util::Bytes stored_bytes(CompactFlashCard& card) {
  util::Bytes total{0};
  for (const std::string& name : card.list()) {
    if (const auto size = card.read(name); size.ok()) total += size.value();
  }
  return total + card.fsck(/*attempt_recovery=*/false).lost;
}

TEST(CfCard, UsedEqualsStoredSizesUnderRandomOperations) {
  CfCardConfig config;
  config.capacity = 64_KiB;
  config.metadata_corruption_on_cut = 0.2;
  config.bitrot_per_file_month = 0.05;
  CompactFlashCard card{util::Rng{11}, config};
  util::Rng ops{12};
  // Few names, so writes and torn writes land on existing files often.
  std::map<std::string, util::Bytes> expected;
  int overwrites = 0;
  int torn = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::string name = "f" + std::to_string(ops.uniform_index(8));
    const util::Bytes size{1 + std::int64_t(ops.uniform_index(12 * 1024))};
    switch (ops.uniform_index(5)) {
      case 0:
      case 1:
        if (card.write(name, size).ok()) {
          if (expected.contains(name)) ++overwrites;
          expected[name] = size;
        }
        break;
      case 2:
        if (card.begin_write(name, size).ok()) {
          card.power_cut();
          if (expected.contains(name)) ++overwrites;
          expected[name] = size;
          ++torn;
        }
        break;
      case 3:
        if (card.remove(name).ok()) expected.erase(name);
        break;
      default:
        card.age(sim::days(30));
        if (card.metadata_corrupted()) (void)card.fsck(true);
        break;
    }
    util::Bytes sum{0};
    for (const auto& [stored, bytes] : expected) sum += bytes;
    ASSERT_EQ(card.used().count(), sum.count()) << "step " << step;
    if (!card.metadata_corrupted()) {
      ASSERT_EQ(stored_bytes(card).count(), sum.count()) << "step " << step;
    }
  }
  EXPECT_GT(overwrites, 100);
  EXPECT_GT(torn, 100);
}

TEST(CfCard, SnapshotRoundTripRestoresUsage) {
  CfCardConfig config;
  config.metadata_corruption_on_cut = 0.0;
  CompactFlashCard card{util::Rng{5}, config};
  ASSERT_TRUE(card.write("a", 10_KiB).ok());
  ASSERT_TRUE(card.write("b", 20_KiB).ok());
  ASSERT_TRUE(card.write("a", 4_KiB).ok());
  ASSERT_TRUE(card.begin_write("c", 1_KiB).ok());
  card.power_cut();  // torn write: stored, corrupted
  ASSERT_EQ(card.used(), 25_KiB);
  snapshot::Saver saver;
  card.persist(saver);

  // Into a fresh card, and into one that holds other files.
  CompactFlashCard fresh{util::Rng{6}, config};
  snapshot::Loader fresh_loader{saver.bytes()};
  fresh.persist(fresh_loader);
  EXPECT_EQ(fresh.used(), 25_KiB);

  CompactFlashCard busy{util::Rng{7}, config};
  ASSERT_TRUE(busy.write("z", 100_KiB).ok());
  snapshot::Loader busy_loader{saver.bytes()};
  busy.persist(busy_loader);
  EXPECT_EQ(busy.used(), 25_KiB);
  EXPECT_EQ(stored_bytes(busy), 25_KiB);
}

// The card's persisted state as plain fields, in its persist order, so a
// test can age it with the reference walk: one bernoulli(hazard) per
// healthy file, in name order, corrupting the file on a hit.
struct ReferenceState {
  struct InFlight {
    std::string name;
    util::Bytes size{0};

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(name);
      ar.value(size);
    }
  };

  util::Rng rng{0};
  std::map<std::string, CompactFlashCard::FileInfo> files;
  std::optional<InFlight> in_flight;
  bool metadata_corrupted = false;

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng);
    ar.value(files);
    ar.value(in_flight);
    ar.value(metadata_corrupted);
  }
};

std::vector<std::uint8_t> saved(CompactFlashCard& card) {
  snapshot::Saver saver;
  card.persist(saver);
  return saver.take();
}

// Ages `card` the reference way: out through its snapshot bytes, one walk
// over the file table, and back in.
void reference_age(CompactFlashCard& card, double hazard) {
  const std::vector<std::uint8_t> before = saved(card);
  ReferenceState state;
  snapshot::Loader in{before};
  state.persist(in);
  in.expect_end();
  for (auto& [name, info] : state.files) {
    if (!info.corrupted && state.rng.bernoulli(hazard)) info.corrupted = true;
  }
  snapshot::Saver out;
  state.persist(out);
  snapshot::Loader back{out.bytes()};
  card.persist(back);
}

// One day of random traffic: new files, overwrites, removals, torn writes,
// and an fsck when the card needs one.
void random_day(CompactFlashCard& card, util::Rng& ops, int day) {
  for (int i = 0; i < 12; ++i) {
    const std::string name =
        ops.bernoulli(0.5) ? "d" + std::to_string(day) + "_" + std::to_string(i)
                           : "f" + std::to_string(ops.uniform_index(40));
    const util::Bytes size{1 + std::int64_t(ops.uniform_index(4096))};
    switch (ops.uniform_index(6)) {
      case 0:
        (void)card.remove(name);
        break;
      case 1:
        if (card.begin_write(name, size).ok()) card.power_cut();
        break;
      case 2:
        if (ops.bernoulli(0.2)) (void)card.fsck(ops.bernoulli(0.5));
        break;
      default:
        (void)card.write(name, size);
        break;
    }
  }
  if (card.metadata_corrupted() && ops.bernoulli(0.5)) (void)card.fsck(true);
}

TEST(CfCard, AgingMatchesTheReferenceWalk) {
  for (const double hazard : {0.0, 1e-5, 0.3, 1.0}) {
    CfCardConfig config;
    config.metadata_corruption_on_cut = 0.3;
    // age(30 days) is one month, so the per-file hazard is exactly this.
    config.bitrot_per_file_month = hazard;
    CompactFlashCard card{util::Rng{21}, config};
    CompactFlashCard reference{util::Rng{21}, config};
    std::optional<CompactFlashCard> restored;
    util::Rng ops{22};
    for (int day = 0; day < 120; ++day) {
      // The same operations on every card: each op stream is a copy.
      const util::Rng day_ops = ops;
      util::Rng ops_reference = day_ops;
      random_day(card, ops, day);
      random_day(reference, ops_reference, day);
      card.age(sim::days(30));
      reference_age(reference, hazard);
      const std::vector<std::uint8_t> bytes = saved(card);
      ASSERT_EQ(bytes, saved(reference))
          << "hazard " << hazard << " day " << day;
      ASSERT_EQ(stored_bytes(card), stored_bytes(reference));
      if (restored.has_value()) {
        util::Rng ops_restored = day_ops;
        random_day(*restored, ops_restored, day);
        restored->age(sim::days(30));
        ASSERT_EQ(saved(*restored), bytes)
            << "restored, hazard " << hazard << " day " << day;
      } else if (day == 60) {
        restored.emplace(util::Rng{99}, config);
        snapshot::Loader loader{bytes};
        restored->persist(loader);
      }
    }
  }
}

TEST(CfCard, DoubleBeginWriteRejected) {
  auto card = make_card();
  ASSERT_TRUE(card.begin_write("a", 1_KiB).ok());
  EXPECT_FALSE(card.begin_write("b", 1_KiB).ok());
  ASSERT_TRUE(card.commit_write().ok());
  EXPECT_FALSE(card.commit_write().ok());
}

TEST(CfCard, PlainPowerCutCorruptsInFlightFile) {
  // Use a seed/config where metadata survives to isolate the file effect.
  CfCardConfig config;
  config.metadata_corruption_on_cut = 0.0;
  CompactFlashCard card{util::Rng{1}, config};
  ASSERT_TRUE(card.begin_write("victim", 165_KiB).ok());
  card.power_cut();
  EXPECT_TRUE(card.exists("victim"));        // entry is there...
  EXPECT_FALSE(card.read("victim").ok());    // ...but unreadable
}

TEST(CfCard, PlainPowerCutSometimesKillsMetadata) {
  int metadata_deaths = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    auto card = make_card(StorageFormat::kPlain, seed);
    ASSERT_TRUE(card.begin_write("victim", 1_KiB).ok());
    card.power_cut();
    if (card.metadata_corrupted()) ++metadata_deaths;
  }
  // config default 15% — the rare whole-card corruption of §VII.
  EXPECT_NEAR(metadata_deaths / 200.0, 0.15, 0.07);
}

TEST(CfCard, JournaledPowerCutLosesOnlyInFlight) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    auto card = make_card(StorageFormat::kJournaled, seed);
    ASSERT_TRUE(card.write("committed", 10_KiB).ok());
    ASSERT_TRUE(card.begin_write("in_flight", 10_KiB).ok());
    card.power_cut();
    EXPECT_FALSE(card.metadata_corrupted());
    EXPECT_FALSE(card.exists("in_flight"));
    EXPECT_TRUE(card.read("committed").ok());
  }
}

TEST(CfCard, PowerCutWithNoWriteIsHarmless) {
  auto card = make_card();
  ASSERT_TRUE(card.write("data", 10_KiB).ok());
  card.power_cut();
  EXPECT_TRUE(card.read("data").ok());
  EXPECT_FALSE(card.metadata_corrupted());
}

TEST(CfCard, CorruptedMetadataBlocksEverything) {
  CfCardConfig config;
  config.metadata_corruption_on_cut = 1.0;
  CompactFlashCard card{util::Rng{1}, config};
  ASSERT_TRUE(card.write("data", 10_KiB).ok());
  ASSERT_TRUE(card.begin_write("victim", 1_KiB).ok());
  card.power_cut();
  ASSERT_TRUE(card.metadata_corrupted());
  EXPECT_FALSE(card.read("data").ok());
  EXPECT_FALSE(card.exists("data"));
  EXPECT_TRUE(card.list().empty());
  EXPECT_FALSE(card.write("new", 1_KiB).ok());
}

TEST(CfCard, FsckRecoversMostData) {
  // §VII: "it proved possible to recover the data from the card".
  CfCardConfig config;
  config.metadata_corruption_on_cut = 1.0;
  CompactFlashCard card{util::Rng{42}, config};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(card.write("f" + std::to_string(i), 165_KiB).ok());
  }
  ASSERT_TRUE(card.begin_write("victim", 1_KiB).ok());
  card.power_cut();
  ASSERT_TRUE(card.metadata_corrupted());
  const auto report = card.fsck(/*attempt_recovery=*/true);
  EXPECT_FALSE(card.metadata_corrupted());
  EXPECT_EQ(report.healthy, 20);
  EXPECT_EQ(report.corrupted_files, 1);
  // The 20 committed files are readable again.
  EXPECT_TRUE(card.read("f0").ok());
}

TEST(CfCard, AgeInducesBitrotEventually) {
  CfCardConfig config;
  config.bitrot_per_file_month = 0.05;  // accelerated for the test
  CompactFlashCard card{util::Rng{3}, config};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(card.write("f" + std::to_string(i), 1_KiB).ok());
  }
  card.age(sim::days(365));
  const auto report = card.fsck(/*attempt_recovery=*/false);
  EXPECT_GT(report.corrupted_files, 0);
  EXPECT_LT(report.corrupted_files, 50);
}

TEST(CfCard, ScanWithoutRecoveryCountsLoss) {
  CfCardConfig config;
  config.metadata_corruption_on_cut = 0.0;
  CompactFlashCard card{util::Rng{1}, config};
  ASSERT_TRUE(card.begin_write("victim", 100_KiB).ok());
  card.power_cut();
  auto report = card.fsck(/*attempt_recovery=*/false);
  EXPECT_EQ(report.corrupted_files, 1);
  EXPECT_EQ(report.lost, 100_KiB);
}

}  // namespace
}  // namespace gw::hw
