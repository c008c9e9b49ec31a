#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define USTREAM_HAS_X86_DISPATCH 1
#include <immintrin.h>
#endif  // USTREAM_HAS_X86_DISPATCH

namespace ustream {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  // table[k][b]: CRC contribution of byte b when it sits k bytes away from
  // the end of an 8-byte block (slicing-by-8).
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  constexpr Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][b] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
      }
    }
  }
};

constexpr Tables kTables{};

#if USTREAM_HAS_X86_DISPATCH
// The SSE4.2 crc32 instruction computes exactly this CRC (reflected
// Castagnoli), eight bytes per instruction.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t crc) noexcept {
  std::uint64_t c = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; --n) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}
#endif  // USTREAM_HAS_X86_DISPATCH

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc) noexcept {
#if USTREAM_HAS_X86_DISPATCH
  static const bool kHasSse42 = __builtin_cpu_supports("sse4.2") > 0;
  if (kHasSse42) return crc32c_sse42(data, crc);
#endif
  return crc32c_sw(data, crc);
}

std::uint32_t crc32c_sw(std::span<const std::uint8_t> data, std::uint32_t crc) noexcept {
  const auto& t = kTables.t;
  std::uint32_t c = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    c ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    c = t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
        t[4][(c >> 24) & 0xFFu] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n--) {
    c = (c >> 8) ^ t[0][(c ^ *p++) & 0xFFu];
  }
  return ~c;
}

}  // namespace ustream
