#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ged {

namespace {

// 8 tables of 256 entries: table[0] is the classic byte-at-a-time table for
// the reflected Castagnoli polynomial; table[k] advances a byte's
// contribution k extra bytes, enabling the slice-by-8 main loop.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  constexpr Crc32cTables() : t{} {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

constexpr Crc32cTables kTables;

#if defined(__x86_64__)
// SSE4.2 `crc32` computes exactly this polynomial, 8 bytes per instruction.
// Only this function is compiled for SSE4.2; Crc32c calls it after a CPUID
// check, so the binary still runs on CPUs without it.
__attribute__((target("sse4.2")))
uint32_t Crc32cSse42(const unsigned char* p, size_t n, uint32_t crc) {
  crc = ~crc;
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (n--) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
}

bool DetectSse42() { return __builtin_cpu_supports("sse4.2"); }
#else
bool DetectSse42() { return false; }
#endif

}  // namespace

bool Crc32cHardware() {
  static const bool supported = DetectSse42();
  return supported;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
#if defined(__x86_64__)
  if (Crc32cHardware()) {
    return Crc32cSse42(static_cast<const unsigned char*>(data), n, crc);
  }
#endif
  return Crc32cPortable(data, n, crc);
}

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  const auto& t = kTables.t;
  // Slice-by-8: fold 8 input bytes per iteration through the 8 tables.
  while (n >= 8) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][crc >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n--) {
    crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace ged
