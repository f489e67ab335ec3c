#include "snapshot/state_writer.h"

#include <algorithm>
#include <stdexcept>

#include "util/crc32.h"

namespace gw::snapshot {

namespace {

// A section's u64 payload length and u32 payload CRC, between its name and
// its payload.
constexpr std::size_t kLengthAndCrcBytes = 8 + 4;

// Writes `width` bytes of `x`, little-endian, and advances `at`.
void put_le(std::uint8_t*& at, std::uint64_t x, int width) {
  for (int i = 0; i < width; ++i) *at++ = std::uint8_t(x >> (8 * i));
}

void put_raw(std::uint8_t*& at, std::span<const std::uint8_t> bytes) {
  at = std::copy(bytes.begin(), bytes.end(), at);
}

std::span<const std::uint8_t> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

// Strict cursor over the raw container bytes; all reads are bounds-checked
// against kTruncated (the archive Loader's underrun error is for *payload*
// reads, which have their own section context).
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::span<const std::uint8_t> take(std::uint64_t n,
                                                   const char* what) {
    if (n > data_.size() - pos_) {
      throw SnapshotError(SnapshotErrc::kTruncated,
                          std::string("stream ends inside ") + what);
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::uint16_t take_u16(const char* what) {
    const auto raw = take(2, what);
    return std::uint16_t(raw[0] | (std::uint16_t(raw[1]) << 8));
  }

  [[nodiscard]] std::uint32_t take_u32(const char* what) {
    const auto raw = take(4, what);
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) x |= std::uint32_t(raw[std::size_t(i)]) << (8 * i);
    return x;
  }

  [[nodiscard]] std::uint64_t take_u64(const char* what) {
    const auto raw = take(8, what);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x |= std::uint64_t(raw[std::size_t(i)]) << (8 * i);
    return x;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t left() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// The CRC of every name followed by its u32 section CRC, chained through
// the seed rather than concatenated.
std::uint32_t pairs_fingerprint(const std::vector<Section>& sections) {
  std::uint32_t digest = 0;
  for (const Section& section : sections) {
    std::uint8_t crc_le[4];
    std::uint8_t* at = crc_le;
    put_le(at, section.crc, 4);
    digest = util::crc32(as_bytes(section.name), digest);
    digest = util::crc32(crc_le, digest);
  }
  return digest;
}

}  // namespace

Saver StateWriter::open(std::string_view name) {
  if (!writing_) {
    const bool duplicate =
        std::any_of(sections_.begin(), sections_.end(),
                    [&](const Counted& c) { return c.name == name; });
    if (duplicate) {
      throw SnapshotError(SnapshotErrc::kDuplicateSection,
                          "section written twice", std::string(name));
    }
    sections_.push_back(Counted{std::string(name)});
    return Saver::counter();
  }
  if (next_ == sections_.size() || sections_[next_].name != name) {
    throw std::logic_error("snapshot: section " + std::string(name) +
                           " was not counted in this place");
  }
  std::uint8_t* at = out_.data() + at_;
  put_le(at, name.size(), 2);
  put_raw(at, as_bytes(name));
  at += kLengthAndCrcBytes;  // back-patched by close()
  at_ = std::size_t(at - out_.data());
  return Saver(std::span<std::uint8_t>(out_).subspan(
      at_, sections_[next_].payload));
}

void StateWriter::close(const Saver& saver) {
  rebuild_records_ += saver.rebuild_records;
  if (!writing_) {
    sections_.back().payload = saver.size();
    return;
  }
  const std::size_t length = saver.size();
  if (length != sections_[next_].payload) {
    throw std::logic_error("snapshot: section " + sections_[next_].name +
                           " wrote " + std::to_string(length) + " of its " +
                           std::to_string(sections_[next_].payload) +
                           " counted byte(s)");
  }
  const std::uint32_t payload_crc = util::crc32(saver.bytes());
  std::uint8_t* framing = out_.data() + at_ - kLengthAndCrcBytes;
  put_le(framing, length, 8);
  put_le(framing, payload_crc, 4);
  // Each payload is read once: its CRC goes into the framing and is folded
  // into the file CRC, which hashes only the framing bytes themselves.
  file_crc_ = util::crc32(
      std::span<const std::uint8_t>(out_).subspan(hashed_, at_ - hashed_),
      file_crc_);
  file_crc_ = util::crc32_combine(file_crc_, payload_crc, length);
  at_ += length;
  hashed_ = at_;
  ++next_;
}

void StateWriter::begin_write() {
  std::size_t sealed = kMagic.size() + 2 + 4 + 4;  // + version, count, CRC
  for (const Counted& section : sections_) {
    sealed += 2 + section.name.size() + kLengthAndCrcBytes + section.payload;
  }
  out_.resize(sealed);
  std::uint8_t* at = out_.data();
  put_raw(at, as_bytes(kMagic));
  put_le(at, kFormatVersion, 2);
  put_le(at, sections_.size(), 4);
  at_ = std::size_t(at - out_.data());
  writing_ = true;
  rebuild_records_ = 0;
}

std::vector<std::uint8_t> StateWriter::finish() {
  if (next_ != sections_.size() || at_ + 4 != out_.size()) {
    throw std::logic_error("snapshot: the write pass ended at byte " +
                           std::to_string(at_) + " of " +
                           std::to_string(out_.size() - 4) + " counted");
  }
  file_crc_ = util::crc32(
      std::span<const std::uint8_t>(out_).subspan(hashed_, at_ - hashed_),
      file_crc_);
  std::uint8_t* at = out_.data() + at_;
  put_le(at, file_crc_, 4);
  return std::move(out_);
}

StateReader::StateReader(std::span<const std::uint8_t> bytes) {
  // Framing is walked first, every read bounds-checked and every section
  // CRC verified; the file CRC, which covers everything before itself, is
  // checked last and catches the damage the framing cannot see. Each
  // payload is read once: its CRC is checked against the framing and then
  // folded into the body CRC, which hashes only the framing bytes.
  if (bytes.size() < kMagic.size()) {
    throw SnapshotError(SnapshotErrc::kBadMagic, "stream shorter than magic");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    throw SnapshotError(SnapshotErrc::kBadMagic, "not a GWSNAP stream");
  }
  Cursor cursor(bytes);
  (void)cursor.take(kMagic.size(), "magic");
  version_ = cursor.take_u16("format version");
  if (version_ != kFormatVersion) {
    throw SnapshotError(SnapshotErrc::kBadVersion,
                        "format version " + std::to_string(version_) +
                            ", this build speaks " +
                            std::to_string(kFormatVersion));
  }
  const std::uint32_t count = cursor.take_u32("section count");
  // Untrusted count: reserve no more sections than the bytes left can frame.
  constexpr std::size_t kMinSectionBytes = 2 + 8 + 4;  // u16, u64, u32
  sections_.reserve(
      std::min<std::size_t>(count, cursor.left() / kMinSectionBytes));
  std::uint32_t body_crc = 0;
  std::size_t hashed = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    Section section;
    const std::uint16_t name_len = cursor.take_u16("section name length");
    const auto name_raw = cursor.take(name_len, "section name");
    section.name.assign(name_raw.begin(), name_raw.end());
    const std::uint64_t payload_len = cursor.take_u64("section length");
    section.crc = cursor.take_u32("section crc");
    body_crc = util::crc32(bytes.subspan(hashed, cursor.pos() - hashed),
                           body_crc);
    section.payload = cursor.take(payload_len, "section payload");
    const std::uint32_t payload_crc = util::crc32(section.payload);
    if (payload_crc != section.crc) {
      throw SnapshotError(SnapshotErrc::kSectionCrcMismatch,
                          "payload does not match its CRC", section.name);
    }
    body_crc = util::crc32_combine(body_crc, payload_crc,
                                   section.payload.size());
    hashed = cursor.pos();
    for (const Section& existing : sections_) {
      if (existing.name == section.name) {
        throw SnapshotError(SnapshotErrc::kDuplicateSection,
                            "section appears twice", section.name);
      }
    }
    sections_.push_back(std::move(section));
  }
  body_crc = util::crc32(bytes.subspan(hashed, cursor.pos() - hashed),
                         body_crc);
  const std::uint32_t file_crc = cursor.take_u32("file crc");
  if (cursor.left() != 0) {
    throw SnapshotError(SnapshotErrc::kTrailingBytes,
                        std::to_string(cursor.left()) +
                            " byte(s) after the file CRC");
  }
  if (body_crc != file_crc) {
    throw SnapshotError(SnapshotErrc::kFileCrcMismatch,
                        "file CRC does not match the stream");
  }
}

const Section* StateReader::find(std::string_view name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

Loader StateReader::open(std::string_view name) const {
  const Section* section = find(name);
  if (section == nullptr) {
    throw SnapshotError(SnapshotErrc::kMissingSection,
                        "snapshot has no such section", std::string(name));
  }
  return Loader(section->payload, section->name);
}

std::uint32_t StateReader::fingerprint() const {
  return pairs_fingerprint(sections_);
}

std::uint32_t fingerprint(std::span<const std::uint8_t> bytes) {
  return StateReader(bytes).fingerprint();
}

}  // namespace gw::snapshot
