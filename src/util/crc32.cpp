#include "util/crc32.h"

#include <array>

namespace gw::util {
namespace {

constexpr std::uint32_t kPolynomial = 0xedb88320u;

// Slicing-by-8 tables. Table 0 is the classic byte-at-a-time table; table k
// advances a byte's contribution through k further zero bytes, so one step
// can look up eight input bytes independently and XOR the results.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

// Little-endian by construction, whatever the host's byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
         (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

// a·b mod P over GF(2), in the reflected order the CRC register uses:
// bit 31 holds x^0 and bit 0 holds x^31.
std::uint32_t multiply_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
    if (a & bit) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t crc = seed ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  return crc32(std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()),
               seed);
}

// CRC linearity: crc32(a ‖ b) = crc_a·x^(8·len_b) ⊕ crc_b (mod P); the
// pre- and post-inversions cancel. x^(8·len_b) is built by repeated
// squaring, one multiply per bit of len_b (zlib's crc32_combine method).
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  std::uint32_t power = 1u << 31;   // x^0
  std::uint32_t square = 1u << 23;  // x^8: one byte of shift
  for (; len_b != 0; len_b >>= 1) {
    if (len_b & 1u) power = multiply_mod_p(power, square);
    square = multiply_mod_p(square, square);
  }
  return multiply_mod_p(power, crc_a) ^ crc_b;
}

}  // namespace gw::util
