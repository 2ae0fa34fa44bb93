#include "crypto/keccak.hpp"

#include <bit>
#include <cstring>

namespace hardtape::crypto {

namespace {
constexpr uint64_t kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

// One row of chi over five lanes already moved by rho and pi.
inline void chi(uint64_t* row, uint64_t b0, uint64_t b1, uint64_t b2, uint64_t b3,
                uint64_t b4) {
  row[0] = b0 ^ (~b1 & b2);
  row[1] = b1 ^ (~b2 & b3);
  row[2] = b2 ^ (~b3 & b4);
  row[3] = b3 ^ (~b4 & b0);
  row[4] = b4 ^ (~b0 & b1);
}

// One round from `a` into `out`, every index and rotation a constant. Lane
// a[x + 5y] goes, after theta, to out[y + 5((2x + 3y) mod 5)] rotated by its
// rho offset; each chi() call lists one output row's lanes in that order.
inline void keccak_round(const uint64_t* a, uint64_t* out, uint64_t round_constant) {
  const uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
  const uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
  const uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
  const uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
  const uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
  const uint64_t d0 = c4 ^ std::rotl(c1, 1);
  const uint64_t d1 = c0 ^ std::rotl(c2, 1);
  const uint64_t d2 = c1 ^ std::rotl(c3, 1);
  const uint64_t d3 = c2 ^ std::rotl(c4, 1);
  const uint64_t d4 = c3 ^ std::rotl(c0, 1);
  chi(out + 0, a[0] ^ d0, std::rotl(a[6] ^ d1, 44), std::rotl(a[12] ^ d2, 43),
      std::rotl(a[18] ^ d3, 21), std::rotl(a[24] ^ d4, 14));
  chi(out + 5, std::rotl(a[3] ^ d3, 28), std::rotl(a[9] ^ d4, 20), std::rotl(a[10] ^ d0, 3),
      std::rotl(a[16] ^ d1, 45), std::rotl(a[22] ^ d2, 61));
  chi(out + 10, std::rotl(a[1] ^ d1, 1), std::rotl(a[7] ^ d2, 6), std::rotl(a[13] ^ d3, 25),
      std::rotl(a[19] ^ d4, 8), std::rotl(a[20] ^ d0, 18));
  chi(out + 15, std::rotl(a[4] ^ d4, 27), std::rotl(a[5] ^ d0, 36), std::rotl(a[11] ^ d1, 10),
      std::rotl(a[17] ^ d2, 15), std::rotl(a[23] ^ d3, 56));
  chi(out + 20, std::rotl(a[2] ^ d2, 62), std::rotl(a[8] ^ d3, 55), std::rotl(a[14] ^ d4, 39),
      std::rotl(a[15] ^ d0, 41), std::rotl(a[21] ^ d1, 2));
  out[0] ^= round_constant;  // iota
}

// Keccak-f[1600]: rounds alternate between the state and a scratch copy, so
// no round copies its lanes back.
void keccak_f1600(uint64_t state[25]) {
  uint64_t scratch[25];
  for (size_t round = 0; round < 24; round += 2) {
    keccak_round(state, scratch, kRoundConstants[round]);
    keccak_round(scratch, state, kRoundConstants[round + 1]);
  }
}
}  // namespace

H256 keccak256(BytesView data) {
  constexpr size_t kRate = 136;  // 1088-bit rate for Keccak-256
  uint64_t state[25] = {};

  // Absorb full blocks.
  size_t offset = 0;
  while (data.size() - offset >= kRate) {
    for (size_t i = 0; i < kRate / 8; ++i) {
      uint64_t lane;
      std::memcpy(&lane, data.data() + offset + i * 8, 8);
      state[i] ^= lane;
    }
    keccak_f1600(state);
    offset += kRate;
  }

  // Final block with Keccak (pre-FIPS) padding: 0x01 ... 0x80.
  uint8_t block[kRate] = {};
  const size_t remaining = data.size() - offset;
  if (remaining > 0) std::memcpy(block, data.data() + offset, remaining);
  block[remaining] = 0x01;
  block[kRate - 1] |= 0x80;
  for (size_t i = 0; i < kRate / 8; ++i) {
    uint64_t lane;
    std::memcpy(&lane, block + i * 8, 8);
    state[i] ^= lane;
  }
  keccak_f1600(state);

  H256 out;
  std::memcpy(out.bytes.data(), state, 32);
  return out;
}

H256 keccak256(std::string_view data) {
  return keccak256(BytesView{reinterpret_cast<const uint8_t*>(data.data()), data.size()});
}

}  // namespace hardtape::crypto
