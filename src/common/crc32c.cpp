#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#define HARDTAPE_CRC32C_HW 1
#include <immintrin.h>
#else
#define HARDTAPE_CRC32C_HW 0
#endif

namespace hardtape {

namespace {

constexpr uint32_t kPolynomial = 0x82f63b78;  // Castagnoli, bit-reflected

constexpr std::array<uint32_t, 256> make_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1) != 0 ? kPolynomial : 0);
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = make_table();

#if HARDTAPE_CRC32C_HW
__attribute__((target("sse4.2"))) uint32_t crc32c_hw(BytesView data, uint32_t crc) {
  uint64_t state = ~crc;
  const uint8_t* p = data.data();
  size_t left = data.size();
  for (; left >= 8; p += 8, left -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<uint32_t>(state);
  for (; left > 0; ++p, --left) state32 = _mm_crc32_u8(state32, *p);
  return ~state32;
}

bool sse42_available() {
  static const bool kAvailable = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return kAvailable;
}
#endif

}  // namespace

namespace detail {

uint32_t crc32c_portable(BytesView data, uint32_t crc) {
  crc = ~crc;
  for (const uint8_t byte : data) crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xff];
  return ~crc;
}

}  // namespace detail

uint32_t crc32c(BytesView data, uint32_t crc) {
#if HARDTAPE_CRC32C_HW
  if (sse42_available()) return crc32c_hw(data, crc);
#endif
  return detail::crc32c_portable(data, crc);
}

}  // namespace hardtape
