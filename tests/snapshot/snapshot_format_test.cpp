// GWSNAP container + archive contract tests (docs/SNAPSHOT.md).
//
// The format's promise is that *no* damaged or mismatched byte stream is
// ever half-restored: wrong magic, wrong version, truncation at any length,
// any single flipped byte, duplicate or missing sections, and persist()
// routines that under- or over-read their section all surface as a typed
// SnapshotError. The corruption cases are property sweeps — every prefix
// length and every byte offset of a real container — not hand-picked
// examples.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "snapshot/archive.h"
#include "snapshot/error.h"
#include "snapshot/state_writer.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace gw::snapshot {
namespace {

enum class Color : int { kRed = 1, kBlue = 7 };

struct Point {
  std::int64_t x = 0;
  std::int64_t y = 0;

  bool operator==(const Point&) const = default;

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(x);
    ar.value(y);
  }
};

std::vector<std::uint8_t> sample_container() {
  StateWriter writer;
  Saver alpha;
  alpha.value(std::uint64_t{42});
  alpha.value(std::string("hello"));
  writer.section("alpha", alpha.take());
  Saver beta;
  beta.value(3.25);
  beta.value(true);
  writer.section("beta", beta.take());
  Saver gamma;  // a zero-length payload is legal
  writer.section("gamma", gamma.take());
  return writer.finish();
}

// Sections are views into the reader's input, so the input must outlive
// the reader: a temporary buffer is refused at compile time.
static_assert(
    !std::is_constructible_v<StateReader, std::vector<std::uint8_t>&&>);
static_assert(
    std::is_constructible_v<StateReader, std::vector<std::uint8_t>&>);

std::uint64_t read_le(std::span<const std::uint8_t> bytes, std::size_t at,
                      int width) {
  std::uint64_t x = 0;
  for (int i = 0; i < width; ++i) {
    x |= std::uint64_t(bytes[at + std::size_t(i)]) << (8 * i);
  }
  return x;
}

SnapshotErrc code_of(const std::vector<std::uint8_t>& bytes) {
  try {
    const StateReader reader(bytes);
  } catch (const SnapshotError& error) {
    return error.code();
  }
  ADD_FAILURE() << "StateReader accepted a damaged stream";
  return SnapshotErrc::kBadMagic;
}

TEST(StateWriterTest, RoundTripsSections) {
  const auto bytes = sample_container();
  const StateReader reader(bytes);
  EXPECT_EQ(reader.version(), kFormatVersion);
  ASSERT_EQ(reader.sections().size(), 3u);
  EXPECT_EQ(reader.sections()[0].name, "alpha");
  EXPECT_EQ(reader.sections()[1].name, "beta");
  EXPECT_EQ(reader.sections()[2].name, "gamma");
  EXPECT_NE(reader.find("beta"), nullptr);
  EXPECT_EQ(reader.find("delta"), nullptr);

  Loader alpha = reader.open("alpha");
  std::uint64_t answer = 0;
  std::string greeting;
  alpha.value(answer);
  alpha.value(greeting);
  alpha.expect_end();
  EXPECT_EQ(answer, 42u);
  EXPECT_EQ(greeting, "hello");

  Loader beta = reader.open("beta");
  double scale = 0.0;
  bool flag = false;
  beta.value(scale);
  beta.value(flag);
  beta.expect_end();
  EXPECT_EQ(scale, 3.25);
  EXPECT_TRUE(flag);

  Loader gamma = reader.open("gamma");
  gamma.expect_end();
}

// The writer folds section CRCs into the file CRC instead of hashing the
// stream twice; the bytes must be those of the plain definition. Walks the
// framing by hand (docs/SNAPSHOT.md) rather than through StateReader.
TEST(StateWriterTest, CrcsEqualPlainCrcsOfTheBytesTheyCover) {
  const auto bytes = sample_container();
  const std::span<const std::uint8_t> all(bytes);
  const std::size_t body = all.size() - 4;
  EXPECT_EQ(read_le(all, body, 4), util::crc32(all.first(body)));

  std::size_t at = kMagic.size() + 2;
  const std::uint64_t count = read_le(all, at, 4);
  at += 4;
  ASSERT_EQ(count, 3u);
  for (std::uint64_t i = 0; i < count; ++i) {
    at += 2 + read_le(all, at, 2);  // name length + name
    const std::uint64_t length = read_le(all, at, 8);
    const std::uint64_t framed_crc = read_le(all, at + 8, 4);
    at += 8 + 4;
    EXPECT_EQ(framed_crc, util::crc32(all.subspan(at, length)))
        << "section " << i;
    at += length;
  }
  EXPECT_EQ(at, body);
}

TEST(StateWriterTest, DuplicateSectionRefusedAtWriteTime) {
  StateWriter writer;
  writer.section("twice", {});
  try {
    writer.section("twice", {});
    FAIL() << "duplicate section accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), SnapshotErrc::kDuplicateSection);
    EXPECT_EQ(error.section(), "twice");
  }
}

TEST(StateReaderTest, MissingSectionIsTyped) {
  const auto bytes = sample_container();
  const StateReader reader(bytes);
  try {
    (void)reader.open("nope");
    FAIL() << "open() found a section that is not there";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), SnapshotErrc::kMissingSection);
    EXPECT_EQ(error.section(), "nope");
  }
}

TEST(StateReaderTest, BadMagicRefused) {
  auto bytes = sample_container();
  bytes[0] ^= 0x01;
  EXPECT_EQ(code_of(bytes), SnapshotErrc::kBadMagic);
}

TEST(StateReaderTest, WrongVersionRefused) {
  auto bytes = sample_container();
  // The u16 version sits right after the 6-byte magic.
  bytes[6] += 1;
  EXPECT_EQ(code_of(bytes), SnapshotErrc::kBadVersion);
}

TEST(StateReaderTest, FlippedTrailerIsFileCrcMismatch) {
  auto bytes = sample_container();
  bytes.back() ^= 0x01;
  EXPECT_EQ(code_of(bytes), SnapshotErrc::kFileCrcMismatch);
}

// Property sweep: every truncation length of a real container must refuse.
TEST(StateReaderTest, TruncationAtEveryLengthThrows) {
  const auto bytes = sample_container();
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() +
                                            std::ptrdiff_t(length));
    EXPECT_THROW({ const StateReader reader(cut); }, SnapshotError)
        << "accepted a stream truncated to " << length << " bytes";
  }
}

// Property sweep: every single flipped bit must be caught — the section
// CRCs cover payloads, the trailer CRC covers all framing, and a damaged
// section count never turns into a huge allocation.
TEST(StateReaderTest, EveryFlippedByteIsCaught) {
  const auto bytes = sample_container();
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    auto damaged = bytes;
    damaged[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    EXPECT_THROW({ const StateReader reader(damaged); }, SnapshotError)
        << "accepted a stream with bit " << bit % 8 << " of byte " << bit / 8;
  }
}

TEST(StateReaderTest, TrailingBytesAfterTrailerRefused) {
  auto bytes = sample_container();
  bytes.push_back(0);
  EXPECT_EQ(code_of(bytes), SnapshotErrc::kTrailingBytes);
}

TEST(StateReaderTest, FingerprintTracksSectionContent) {
  const auto bytes = sample_container();
  const std::uint32_t baseline = fingerprint(bytes);
  EXPECT_EQ(baseline, fingerprint(sample_container()));

  StateWriter writer;
  Saver alpha;
  alpha.value(std::uint64_t{43});  // one different payload word
  alpha.value(std::string("hello"));
  writer.section("alpha", alpha.take());
  Saver beta;
  beta.value(3.25);
  beta.value(true);
  writer.section("beta", beta.take());
  writer.section("gamma", {});
  EXPECT_NE(fingerprint(writer.finish()), baseline);
}

TEST(LoaderTest, UnderrunIsTyped) {
  StateWriter writer;
  Saver saver;
  saver.value(true);  // 1 byte
  writer.section("short", saver.take());
  const auto bytes = writer.finish();
  const StateReader reader(bytes);
  Loader loader = reader.open("short");
  std::uint64_t word = 0;
  try {
    loader.value(word);
    FAIL() << "read 8 bytes from a 1-byte section";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), SnapshotErrc::kSectionUnderrun);
  }
}

// A vector count the payload cannot hold (2^62 u64s exceed max_size, 2^31
// would be 16 GiB) is a typed underrun, never an allocation failure.
TEST(LoaderTest, ForgedVectorCountIsUnderrun) {
  for (const std::uint64_t count : {1ULL << 62, 1ULL << 31}) {
    Saver saver;
    saver.value(count);
    Loader loader(saver.bytes());
    std::vector<std::uint64_t> items;
    try {
      loader.value(items);
      ADD_FAILURE() << "read " << count << " items from an empty payload";
    } catch (const SnapshotError& error) {
      EXPECT_EQ(error.code(), SnapshotErrc::kSectionUnderrun);
    }
  }
}

TEST(LoaderTest, LeftoverBytesAreTyped) {
  Saver saver;
  saver.value(std::uint64_t{1});
  saver.value(std::uint64_t{2});
  const auto payload = saver.take();
  Loader loader(payload);
  std::uint64_t first = 0;
  loader.value(first);
  EXPECT_EQ(loader.remaining(), 8u);
  try {
    loader.expect_end();
    FAIL() << "expect_end ignored leftover bytes";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), SnapshotErrc::kTrailingBytes);
  }
}

TEST(ArchiveTest, RoundTripsRepresentativeTypes) {
  Saver saver;
  saver.value(std::int64_t{-5});
  saver.value(std::uint32_t{77});
  saver.value(false);
  saver.value(Color::kBlue);
  saver.value(2.5);
  saver.value(std::string("station/base"));
  const std::vector<double> doubles{1.0, -2.0, 0.25};
  saver.value(doubles);
  const std::deque<std::int64_t> deque_in{9, 8, 7};
  saver.value(deque_in);
  const std::map<std::string, std::int64_t> map_in{{"a", 1}, {"b", 2}};
  saver.value(map_in);
  const std::optional<Point> present = Point{3, 4};
  const std::optional<Point> absent;
  saver.value(present);
  saver.value(absent);
  const std::pair<std::int64_t, double> pair_in{11, 0.5};
  saver.value(pair_in);
  const sim::Duration interval = sim::minutes(30);
  saver.value(interval);
  util::Rng rng{1234};
  (void)rng.uniform();
  saver.value(rng);

  const auto payload = saver.take();
  Loader loader(payload);
  std::int64_t negative = 0;
  std::uint32_t small = 0;
  bool flag = true;
  Color color = Color::kRed;
  double scale = 0.0;
  std::string name;
  std::vector<double> doubles_out;
  std::deque<std::int64_t> deque_out;
  std::map<std::string, std::int64_t> map_out;
  std::optional<Point> present_out;
  std::optional<Point> absent_out = Point{9, 9};
  std::pair<std::int64_t, double> pair_out{0, 0.0};
  sim::Duration interval_out{};
  util::Rng rng_out{1};
  loader.value(negative);
  loader.value(small);
  loader.value(flag);
  loader.value(color);
  loader.value(scale);
  loader.value(name);
  loader.value(doubles_out);
  loader.value(deque_out);
  loader.value(map_out);
  loader.value(present_out);
  loader.value(absent_out);
  loader.value(pair_out);
  loader.value(interval_out);
  loader.value(rng_out);
  loader.expect_end();

  EXPECT_EQ(negative, -5);
  EXPECT_EQ(small, 77u);
  EXPECT_FALSE(flag);
  EXPECT_EQ(color, Color::kBlue);
  EXPECT_EQ(scale, 2.5);
  EXPECT_EQ(name, "station/base");
  EXPECT_EQ(doubles_out, doubles);
  EXPECT_EQ(deque_out, deque_in);
  EXPECT_EQ(map_out, map_in);
  ASSERT_TRUE(present_out.has_value());
  EXPECT_EQ(*present_out, Point(3, 4));
  EXPECT_FALSE(absent_out.has_value());
  EXPECT_EQ(pair_out, pair_in);
  EXPECT_EQ(interval_out, interval);
  // The restored generator must continue the stream, not restart it.
  EXPECT_EQ(rng_out.uniform(), rng.uniform());
}

}  // namespace
}  // namespace gw::snapshot
