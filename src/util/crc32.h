// CRC-32 (IEEE 802.3 polynomial, reflected).
//
// Used by the probe radio protocol to detect "broken" packets (§V: the base
// station records missing or broken data packets for later re-request), by
// the storage models to detect CF-card sector corruption, and by the
// snapshot container, whose writer and reader fold each section CRC into
// the file CRC with crc32_combine so every payload byte is read once.
//
// crc32 folds inputs of 64 bytes or more 16 bytes at a time with
// carry-less multiplication when the CPU has it (PCLMULQDQ, detected once
// at run time), and runs slicing-by-8 for shorter inputs, the last
// 0–15 bytes, and on hosts without it. Both paths give the same value.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace gw::util {

// `seed` chains: crc32(b, crc32(a)) == crc32(a ‖ b).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0);
[[nodiscard]] std::uint32_t crc32(std::string_view data,
                                  std::uint32_t seed = 0);

// crc32 on the slicing-by-8 path alone, whatever the host: the path hosts
// without carry-less multiplication take, callable anywhere so tests can
// check it too.
[[nodiscard]] std::uint32_t crc32_portable(std::span<const std::uint8_t> data,
                                           std::uint32_t seed = 0);

// crc32(a ‖ b) from crc_a = crc32(a), crc_b = crc32(b) and len_b = b.size(),
// without reading a or b.
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a,
                                          std::uint32_t crc_b,
                                          std::uint64_t len_b);

}  // namespace gw::util
