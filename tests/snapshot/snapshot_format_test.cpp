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
#include <stdexcept>
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

std::vector<std::uint8_t> sample_container(std::uint64_t answer = 42) {
  return StateWriter::seal([&](StateWriter& out) {
    out.section("alpha", [&](Saver& ar) {
      ar.value(answer);
      ar.value(std::string("hello"));
    });
    out.section("beta", [](Saver& ar) {
      ar.value(3.25);
      ar.value(true);
    });
    out.section("gamma", [](Saver&) {});  // a zero-length payload is legal
  });
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
  try {
    (void)StateWriter::seal([](StateWriter& out) {
      out.section("twice", [](Saver&) {});
      out.section("twice", [](Saver&) {});
    });
    FAIL() << "duplicate section accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), SnapshotErrc::kDuplicateSection);
    EXPECT_EQ(error.section(), "twice");
  }
}

// The writer counts each section, then writes it in place into a buffer
// of the counted size. Sections that differ between the two passes are a
// programming error and are refused, never written past their room.
TEST(StateWriterTest, PassesThatDisagreeAreRefused) {
  const auto seal_with = [](auto second_pass) {
    int pass = 0;
    return StateWriter::seal([&](StateWriter& out) {
      if (pass++ == 0) {
        out.section("alpha", [](Saver& ar) { ar.value(std::uint64_t{1}); });
      } else {
        second_pass(out);
      }
    });
  };
  EXPECT_THROW(seal_with([](StateWriter& out) {
                 out.section("alpha", [](Saver& ar) {
                   ar.value(std::uint64_t{1});
                   ar.value(true);  // one byte past the counted eight
                 });
               }),
               std::logic_error);
  EXPECT_THROW(seal_with([](StateWriter& out) {
                 out.section("alpha", [](Saver& ar) { ar.value(false); });
               }),
               std::logic_error);
  EXPECT_THROW(seal_with([](StateWriter& out) {
                 out.section("beta", [](Saver& ar) {
                   ar.value(std::uint64_t{1});
                 });
               }),
               std::logic_error);
  EXPECT_THROW(seal_with([](StateWriter&) {}), std::logic_error);
}

// What a counting Saver adds up is what an owning Saver writes.
TEST(SaverTest, CounterCountsWhatIsWritten) {
  const auto fill = [](Saver& ar) {
    ar.value(std::string("station/base"));
    ar.value(std::vector<double>{1.0, 2.0});
    ar.value(std::optional<std::int64_t>{7});
    ar.value(false);
  };
  Saver owning;
  fill(owning);
  Saver counter = Saver::counter();
  fill(counter);
  EXPECT_EQ(counter.size(), owning.bytes().size());
  EXPECT_EQ(counter.size(), 8u + 12u + 8u + 16u + 1u + 8u + 1u);
  EXPECT_TRUE(counter.bytes().empty());
}

TEST(SaverTest, InPlaceSaverStaysInsideItsBuffer) {
  std::vector<std::uint8_t> buffer(12, 0xee);
  Saver saver(std::span<std::uint8_t>(buffer).first(9));
  saver.value(std::uint64_t{0x0102030405060708});
  saver.value(true);
  EXPECT_EQ(saver.size(), 9u);
  EXPECT_THROW(saver.value(true), std::logic_error);
  const std::vector<std::uint8_t> expected = {8, 7, 6, 5, 4, 3, 2, 1, 1,
                                              0xee, 0xee, 0xee};
  EXPECT_EQ(buffer, expected);
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
  // One different payload word.
  EXPECT_NE(fingerprint(sample_container(43)), baseline);
}

TEST(LoaderTest, UnderrunIsTyped) {
  const auto bytes = StateWriter::seal([](StateWriter& out) {
    out.section("short", [](Saver& ar) { ar.value(true); });  // 1 byte
  });
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

// A Saver writes a map in key order. A payload that declares three
// entries with keys b, a, a would otherwise load as two entries, pass
// expect_end() and re-save to fewer bytes.
TEST(LoaderTest, MapKeysOutOfOrderAreRefused) {
  const auto payload_with_keys = [](std::vector<std::string> keys) {
    Saver saver;
    saver.value(std::uint64_t(keys.size()));
    for (const std::string& key : keys) {
      saver.value(key);
      saver.value(std::int64_t{1});
    }
    return saver.take();
  };
  for (const auto& keys : std::vector<std::vector<std::string>>{
           {"b", "a", "a"}, {"a", "a"}, {"a", "c", "b"}}) {
    const auto payload = payload_with_keys(keys);
    Loader loader(payload);
    std::map<std::string, std::int64_t> map;
    try {
      loader.value(map);
      ADD_FAILURE() << "loaded " << keys.size() << " keys out of order";
    } catch (const SnapshotError& error) {
      EXPECT_EQ(error.code(), SnapshotErrc::kStateMismatch);
    }
  }
  const auto in_order = payload_with_keys({"a", "b", "c"});
  EXPECT_EQ(in_order.size(), 8u + 3 * (8 + 1 + 8));
  Loader loader(in_order);
  std::map<std::string, std::int64_t> map;
  loader.value(map);
  loader.expect_end();
  EXPECT_EQ(map.size(), 3u);
  Saver resaved;
  resaved.value(map);
  EXPECT_EQ(resaved.take(), in_order);
}

// A Saver writes a bool as 0 or 1; the byte 2 would load as true and
// re-save as 1.
TEST(LoaderTest, BoolByteOtherThanZeroOrOneIsRefused) {
  for (const std::uint8_t byte : {std::uint8_t{2}, std::uint8_t{0xff}}) {
    const std::vector<std::uint8_t> payload = {byte};
    Loader loader(payload);
    bool flag = false;
    try {
      loader.value(flag);
      ADD_FAILURE() << "loaded the byte " << int(byte) << " as a bool";
    } catch (const SnapshotError& error) {
      EXPECT_EQ(error.code(), SnapshotErrc::kStateMismatch);
    }
  }
  const std::vector<std::uint8_t> payload = {0, 1};
  Loader loader(payload);
  bool first = true;
  bool second = false;
  loader.value(first);
  loader.value(second);
  loader.expect_end();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
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

TEST(ArchiveTest, StringsOfEveryLengthClassResaveToTheSameBytes) {
  // Empty, the longest a short-string buffer holds, the first length that
  // allocates, and a long one; every byte value, high bit set included.
  std::vector<std::string> strings;
  for (const std::size_t length : {0, 15, 16, 4096}) {
    std::string text;
    for (std::size_t i = 0; i < length; ++i) {
      text.push_back(static_cast<char>((i * 37 + 0x80) & 0xff));
    }
    strings.push_back(text);
  }
  Saver saver;
  for (const std::string& text : strings) saver.value(text);
  const std::vector<std::uint8_t> payload = saver.take();

  Loader loader(payload);
  Saver resaver;
  for (const std::string& text : strings) {
    std::string loaded = "stale contents longer than fifteen bytes";
    loader.value(loaded);
    EXPECT_EQ(loaded, text);
    resaver.value(loaded);
  }
  loader.expect_end();
  EXPECT_EQ(resaver.take(), payload);
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
