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

inline constexpr std::uint16_t kFormatVersion = 2;
inline constexpr std::string_view kMagic = "GWSNAP";

class StateWriter {
 public:
  // Appends one named section. Names must be unique within a snapshot.
  void section(std::string name, std::vector<std::uint8_t> payload);

  // Seals the container: framing + per-section CRCs + file CRC.
  [[nodiscard]] std::vector<std::uint8_t> finish() const;

 private:
  struct Pending {
    std::string name;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Pending> sections_;
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

  // A Loader positioned over the named section's payload; throws
  // SnapshotError(kMissingSection) when absent.
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
