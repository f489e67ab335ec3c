#include "util/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// The CRC register after `n` more bytes, eight per step and the tail
// through table 0.
std::uint32_t slice_by_8(const std::uint8_t* p, std::size_t n,
                         std::uint32_t crc) {
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
  return crc;
}

// a·b mod P over GF(2), in the reflected order the CRC register uses:
// bit 31 holds x^0 and bit 0 holds x^31.
constexpr std::uint32_t multiply_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
    if (a & bit) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

// base^n mod P by repeated squaring, one multiply per bit of n.
constexpr std::uint32_t pow_mod_p(std::uint32_t base, std::uint64_t n) {
  std::uint32_t power = 1u << 31;  // x^0
  for (; n != 0; n >>= 1) {
    if (n & 1u) power = multiply_mod_p(power, base);
    base = multiply_mod_p(base, base);
  }
  return power;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009). A
// 128-bit block B followed by d more bits of message contributes
// B·x^d mod P to the CRC, so a running remainder can be carried d bits
// forward by two 64×64 carry-less products with constants x^(d±32) mod P,
// then XORed into the block that sits there. Four lanes fold 64 bytes per
// step; one lane then folds 16 bytes per step; a last multiply and a
// Barrett reduction bring 128 bits down to the 32-bit register.

// x^n mod P as a fold multiplies by it: reflected like the register, and
// one bit up, because a carry-less product of two reflected operands
// comes out one bit low.
constexpr std::uint64_t fold_constant(std::uint64_t n) {
  return std::uint64_t(pow_mod_p(1u << 30, n)) << 1;  // 1u << 30: x^1
}

constexpr std::uint64_t reflect(std::uint64_t v, int bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < bits; ++i) {
    if ((v >> i) & 1u) out |= std::uint64_t{1} << (bits - 1 - i);
  }
  return out;
}

// P with its x^32 term, reflected over 33 bits.
constexpr std::uint64_t kPolynomial33 = (std::uint64_t{kPolynomial} << 1) | 1u;

// floor(x^64 / P), the Barrett quotient, reflected over its 33 bits. The
// long division runs in the normal bit order.
constexpr std::uint64_t barrett_quotient() {
  const std::uint64_t divisor = reflect(kPolynomial33, 33);
  std::uint64_t remainder = 0;
  std::uint64_t quotient = 0;
  for (int i = 64; i >= 0; --i) {
    remainder = (remainder << 1) | (i == 64 ? 1u : 0u);
    if ((remainder >> 32) & 1u) {
      remainder ^= divisor;
      quotient |= std::uint64_t{1} << i;
    }
  }
  return reflect(quotient, 33);
}

constexpr std::uint64_t kFold512Lo = fold_constant(4 * 128 + 32);
constexpr std::uint64_t kFold512Hi = fold_constant(4 * 128 - 32);
constexpr std::uint64_t kFold128Lo = fold_constant(128 + 32);
constexpr std::uint64_t kFold128Hi = fold_constant(128 - 32);
constexpr std::uint64_t kFold64 = fold_constant(64);
constexpr std::uint64_t kBarrettQuotient = barrett_quotient();

// Carries `block` 128 bits forward and adds `next`, the block found there.
__attribute__((target("pclmul"))) inline __m128i fold_block(
    __m128i block, __m128i constants, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(block, constants, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(block, constants, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

__attribute__((target("pclmul"))) inline __m128i load_block(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// The CRC register after `n` more bytes; n >= 64 and a multiple of 16.
__attribute__((target("pclmul"))) std::uint32_t fold_clmul(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  const __m128i fold512 = _mm_set_epi64x(std::int64_t(kFold512Hi),
                                         std::int64_t(kFold512Lo));
  const __m128i fold128 = _mm_set_epi64x(std::int64_t(kFold128Hi),
                                         std::int64_t(kFold128Lo));
  __m128i x0 = _mm_xor_si128(load_block(p), _mm_cvtsi32_si128(int(crc)));
  __m128i x1 = load_block(p + 16);
  __m128i x2 = load_block(p + 32);
  __m128i x3 = load_block(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold_block(x0, fold512, load_block(p));
    x1 = fold_block(x1, fold512, load_block(p + 16));
    x2 = fold_block(x2, fold512, load_block(p + 32));
    x3 = fold_block(x3, fold512, load_block(p + 48));
  }
  x0 = fold_block(x0, fold128, x1);
  x0 = fold_block(x0, fold128, x2);
  x0 = fold_block(x0, fold128, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = fold_block(x0, fold128, load_block(p));
  }

  // 128 bits to 64: the low half moves 64 bits forward onto the high half.
  const __m128i low32s = _mm_set_epi32(0, -1, 0, -1);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, fold128, 0x10));
  // 64 bits to 32 followed by 32 zero bits: the low word moves 32 forward.
  const __m128i fold64 = _mm_set_epi64x(0, std::int64_t(kFold64));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32s), fold64,
                                          0x00));
  // Barrett: the quotient estimate times P cancels all but the remainder,
  // which lands in bits 32..63.
  const __m128i barrett = _mm_set_epi64x(std::int64_t(kBarrettQuotient),
                                         std::int64_t(kPolynomial33));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32s), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32s), barrett, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return std::uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

bool host_has_clmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t crc = seed ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= 64 && host_has_clmul()) {
    const std::size_t blocks = n & ~std::size_t{15};
    crc = fold_clmul(p, blocks, crc);
    p += blocks;
    n -= blocks;
  }
#endif
  return slice_by_8(p, n, crc) ^ 0xffffffffu;
}

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  return crc32(std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()),
               seed);
}

std::uint32_t crc32_portable(std::span<const std::uint8_t> data,
                             std::uint32_t seed) {
  return slice_by_8(data.data(), data.size(), seed ^ 0xffffffffu) ^
         0xffffffffu;
}

// CRC linearity: crc32(a ‖ b) = crc_a·x^(8·len_b) ⊕ crc_b (mod P); the
// pre- and post-inversions cancel. x^(8·len_b) is (x^8)^len_b, built by
// repeated squaring (zlib's crc32_combine method).
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  constexpr std::uint32_t kOneByte = 1u << 23;  // x^8
  return multiply_mod_p(pow_mod_p(kOneByte, len_b), crc_a) ^ crc_b;
}

}  // namespace gw::util
