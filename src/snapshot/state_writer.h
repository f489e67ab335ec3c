// Versioned, CRC-guarded snapshot container.
//
// Byte layout (all integers little-endian):
//
//   "GWSNAP"                     6-byte magic
//   u16  format version          (kFormatVersion)
//   u32  section count
//   per section, in write order:
//     u16  name length
//     ...  name bytes
//     u64  payload length
//     u32  CRC-32 of the payload
//     ...  payload bytes (a snapshot::Saver stream)
//   u32  CRC-32 of every byte above
//
// Sections are the unit of blame: each component of the world serialises
// into its own named section, so corruption, drift, or a save/load field
// mismatch is reported against a name ("station/base", "env"), not an
// offset into a monolithic blob. The reader validates *everything* up
// front — magic, version, framing, every section CRC, the file CRC — and
// throws a typed SnapshotError before any caller sees a byte; a snapshot
// either loads whole or not at all. Writer and reader both read each
// payload byte once: the file CRC is folded from the section CRCs
// (util::crc32_combine), with the same value a second pass would give.
// The writer sizes the container with a counting pass first and then
// writes every payload straight into it, so a save allocates one buffer
// of the sealed size and copies nothing.
//
// The fingerprint is the CRC-32 over the (name, section-CRC) pairs: a
// 32-bit digest of the entire world state that golden tests pin and the
// gwsnap CLI prints. Policy and format rationale: docs/SNAPSHOT.md.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/archive.h"
#include "snapshot/error.h"

namespace gw::snapshot {

inline constexpr std::uint16_t kFormatVersion = 6;
inline constexpr std::string_view kMagic = "GWSNAP";

class StateWriter {
 public:
  // Seals a container from sections(writer), which names every section in
  // write order through writer.section(). It runs twice. The first pass
  // only counts bytes; anything it throws (a device guard's kNotQuiescent,
  // the caller's own checks) leaves nothing allocated. The second writes
  // each payload in place into one buffer of exactly the counted size and
  // back-patches each section's length and CRC. Both passes must give the
  // same sections with the same bytes, as persist() bodies over unchanged
  // state do; a pass that does not is a std::logic_error.
  template <class Sections>
  [[nodiscard]] static std::vector<std::uint8_t> seal(Sections&& sections) {
    StateWriter writer;
    sections(writer);
    writer.begin_write();
    sections(writer);
    return writer.finish();
  }

  // One named section, its payload written by fill(Saver&). Names must be
  // unique within a snapshot.
  template <class Fill>
  void section(std::string_view name, Fill&& fill) {
    Saver saver = open(name);
    fill(saver);
    close(saver);
  }

  // The rebuild records this pass's sections have written so far
  // (Saver::rebuild_records, summed).
  [[nodiscard]] std::size_t rebuild_records() const {
    return rebuild_records_;
  }

 private:
  StateWriter() = default;

  Saver open(std::string_view name);
  void close(const Saver& saver);
  void begin_write();
  std::vector<std::uint8_t> finish();

  struct Counted {
    std::string name;
    std::size_t payload = 0;
  };
  std::vector<Counted> sections_;  // from the counting pass
  std::size_t rebuild_records_ = 0;
  // The write pass: the container, the next section, the write position,
  // and the file CRC of the bytes before `hashed_`.
  bool writing_ = false;
  std::vector<std::uint8_t> out_;
  std::size_t next_ = 0;
  std::size_t at_ = 0;
  std::size_t hashed_ = 0;
  std::uint32_t file_crc_ = 0;
};

struct Section {
  std::string name;
  std::uint32_t crc = 0;
  // A view into the bytes the StateReader was built over; it must not
  // outlive them.
  std::span<const std::uint8_t> payload;
};

class StateReader {
 public:
  // Parses and fully validates `bytes`; throws SnapshotError (kBadMagic,
  // kBadVersion, kTruncated, kDuplicateSection, kSectionCrcMismatch,
  // kFileCrcMismatch, kTrailingBytes) on anything suspect.
  // Sections view `bytes` rather than copy them, so the caller keeps the
  // buffer alive for as long as the reader and its Loaders are in use; a
  // temporary buffer would leave every view dangling.
  explicit StateReader(std::span<const std::uint8_t> bytes);
  StateReader(std::vector<std::uint8_t>&&) = delete;

  [[nodiscard]] const std::vector<Section>& sections() const {
    return sections_;
  }

  // The named section, or null when absent.
  [[nodiscard]] const Section* find(std::string_view name) const;

  // A Loader positioned over the named section's payload, whose errors
  // name the section; throws SnapshotError(kMissingSection) when absent.
  [[nodiscard]] Loader open(std::string_view name) const;

  // CRC-32 over the ordered (name, section CRC) pairs — the whole-world
  // digest golden tests pin.
  [[nodiscard]] std::uint32_t fingerprint() const;

  [[nodiscard]] std::uint16_t version() const { return version_; }

 private:
  std::uint16_t version_ = kFormatVersion;
  std::vector<Section> sections_;
};

// The fingerprint of a sealed snapshot without keeping a reader around.
[[nodiscard]] std::uint32_t fingerprint(std::span<const std::uint8_t> bytes);

}  // namespace gw::snapshot
