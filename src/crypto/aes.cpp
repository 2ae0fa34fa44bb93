#include "crypto/aes.hpp"

#include <algorithm>
#include <cstring>

// The AES-NI path is compiled on every x86 build, whatever -march says:
// each function carries its own target attribute and runs only after
// detail::hardware_gcm_available() has seen the instructions at run time.
#if defined(__x86_64__) || defined(__i386__)
#define HARDTAPE_GCM_HW 1
#define HARDTAPE_GCM_HW_FN __attribute__((target("aes,pclmul,ssse3")))
#include <immintrin.h>
#else
#define HARDTAPE_GCM_HW 0
#endif

namespace hardtape::crypto {

namespace {
// AES S-box (FIPS-197).
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

uint8_t xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}
}  // namespace

Aes128::Aes128(const AesKey128& key) {
  std::memcpy(round_keys_.data(), key.data(), 16);
  for (size_t i = 4; i < 44; ++i) {
    uint8_t t[4] = {};
    std::memcpy(t, round_keys_.data() + (i - 1) * 4, 4);
    if (i % 4 == 0) {
      const uint8_t tmp = t[0];
      t[0] = static_cast<uint8_t>(kSbox[t[1]] ^ kRcon[i / 4]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (size_t j = 0; j < 4; ++j) {
      round_keys_[i * 4 + j] = round_keys_[(i - 4) * 4 + j] ^ t[j];
    }
  }
}

void Aes128::encrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  uint8_t s[16] = {};
  for (size_t i = 0; i < 16; ++i) s[i] = in[i] ^ round_keys_[i];

  for (size_t round = 1; round <= 10; ++round) {
    // SubBytes
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[col*4 + row])
    uint8_t t[16] = {};
    for (size_t col = 0; col < 4; ++col) {
      for (size_t row = 0; row < 4; ++row) {
        t[col * 4 + row] = s[((col + row) % 4) * 4 + row];
      }
    }
    std::memcpy(s, t, 16);
    // MixColumns (skipped in the final round)
    if (round != 10) {
      for (size_t col = 0; col < 4; ++col) {
        uint8_t* c = s + col * 4;
        const uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
        const uint8_t all = static_cast<uint8_t>(a0 ^ a1 ^ a2 ^ a3);
        c[0] = static_cast<uint8_t>(a0 ^ all ^ xtime(static_cast<uint8_t>(a0 ^ a1)));
        c[1] = static_cast<uint8_t>(a1 ^ all ^ xtime(static_cast<uint8_t>(a1 ^ a2)));
        c[2] = static_cast<uint8_t>(a2 ^ all ^ xtime(static_cast<uint8_t>(a2 ^ a3)));
        c[3] = static_cast<uint8_t>(a3 ^ all ^ xtime(static_cast<uint8_t>(a3 ^ a0)));
      }
    }
    // AddRoundKey
    for (size_t i = 0; i < 16; ++i) s[i] ^= round_keys_[round * 16 + i];
  }
  std::memcpy(out, s, 16);
}

namespace {

// ---------------------------------------------------------------------------
// Portable path: byte-wise, straight from SP 800-38D
// ---------------------------------------------------------------------------

// GF(2^128) multiplication for GHASH, bit-by-bit (right-shift algorithm,
// NIST SP 800-38D notation).
void gf_mul(uint8_t x[16], const uint8_t y[16]) {
  uint8_t z[16] = {};
  uint8_t v[16] = {};
  std::memcpy(v, y, 16);
  for (size_t i = 0; i < 128; ++i) {
    if ((x[i / 8] >> (7 - i % 8)) & 1) {
      for (size_t j = 0; j < 16; ++j) z[j] ^= v[j];
    }
    const bool lsb = v[15] & 1;
    for (size_t j = 15; j > 0; --j) v[j] = static_cast<uint8_t>((v[j] >> 1) | (v[j - 1] << 7));
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xe1;
  }
  std::memcpy(x, z, 16);
}

void ghash_update(uint8_t y[16], const uint8_t h[16], BytesView data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const size_t take = std::min<size_t>(16, data.size() - offset);
    for (size_t i = 0; i < take; ++i) y[i] ^= data[offset + i];
    gf_mul(y, h);
    offset += take;
  }
}

void inc32(uint8_t counter[16]) {
  for (size_t i = 15; i >= 12; --i) {
    ++counter[i];
    if (counter[i] != 0) break;
  }
}

/// J0 = nonce || 0^31 || 1 (96-bit IV); the data keystream starts at inc32(J0).
std::array<uint8_t, 16> initial_counter(const GcmNonce& nonce) {
  std::array<uint8_t, 16> j0{};
  std::memcpy(j0.data(), nonce.data(), 12);
  j0[15] = 1;
  return j0;
}

/// The GHASH length block: bit lengths of AAD and ciphertext, big-endian.
std::array<uint8_t, 16> length_block(size_t aad_len, size_t ct_len) {
  std::array<uint8_t, 16> lengths{};
  const uint64_t aad_bits = uint64_t{aad_len} * 8;
  const uint64_t ct_bits = uint64_t{ct_len} * 8;
  for (size_t i = 0; i < 8; ++i) {
    lengths[i] = static_cast<uint8_t>(aad_bits >> (56 - i * 8));
    lengths[8 + i] = static_cast<uint8_t>(ct_bits >> (56 - i * 8));
  }
  return lengths;
}

}  // namespace

namespace detail {

PortableGcm::PortableGcm(const AesKey128& key) : cipher_(key) {
  const uint8_t zero[16] = {};
  cipher_.encrypt_block(zero, h_.data());
}

void PortableGcm::ctr_xor(const GcmNonce& nonce, BytesView in, uint8_t* out) const {
  auto counter = initial_counter(nonce);
  size_t offset = 0;
  while (offset < in.size()) {
    inc32(counter.data());
    uint8_t keystream[16] = {};
    cipher_.encrypt_block(counter.data(), keystream);
    const size_t take = std::min<size_t>(16, in.size() - offset);
    for (size_t i = 0; i < take; ++i) out[offset + i] = in[offset + i] ^ keystream[i];
    offset += take;
  }
}

GcmTag PortableGcm::tag(const GcmNonce& nonce, BytesView aad, BytesView ciphertext) const {
  uint8_t y[16] = {};
  ghash_update(y, h_.data(), aad);
  ghash_update(y, h_.data(), ciphertext);
  const auto lengths = length_block(aad.size(), ciphertext.size());
  ghash_update(y, h_.data(), BytesView{lengths.data(), lengths.size()});
  const auto j0 = initial_counter(nonce);
  uint8_t ek_j0[16] = {};
  cipher_.encrypt_block(j0.data(), ek_j0);
  GcmTag tag{};
  for (size_t i = 0; i < 16; ++i) tag[i] = y[i] ^ ek_j0[i];
  return tag;
}

GcmTag PortableGcm::seal(const GcmNonce& nonce, BytesView plaintext, BytesView aad,
                         uint8_t* ciphertext) const {
  ctr_xor(nonce, plaintext, ciphertext);
  return tag(nonce, aad, BytesView{ciphertext, plaintext.size()});
}

bool PortableGcm::open(const GcmNonce& nonce, BytesView ciphertext, BytesView aad,
                       const GcmTag& expected, uint8_t* plaintext,
                       size_t decrypt_len) const {
  const GcmTag actual = tag(nonce, aad, ciphertext);
  if (!ct_equal(BytesView{actual.data(), actual.size()},
                BytesView{expected.data(), expected.size()})) {
    return false;
  }
  ctr_xor(nonce, ciphertext.first(std::min(decrypt_len, ciphertext.size())), plaintext);
  return true;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Hardware path: AES-NI + PCLMULQDQ (Intel's carry-less multiplication
// white paper, "Intel Carry-Less Multiplication Instruction and its Usage
// for Computing the GCM Mode"). GHASH works on byte-reflected blocks, so
// PCLMULQDQ's product needs a one-bit left shift before the reduction.
// ---------------------------------------------------------------------------

#if HARDTAPE_GCM_HW

namespace {

HARDTAPE_GCM_HW_FN inline __m128i load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

HARDTAPE_GCM_HW_FN inline void store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

HARDTAPE_GCM_HW_FN inline __m128i reflect(__m128i x) {
  return _mm_shuffle_epi8(x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

struct RoundKeys {
  __m128i k[11];
};

HARDTAPE_GCM_HW_FN inline RoundKeys load_round_keys(const uint8_t* bytes) {
  RoundKeys rk{};
  for (size_t i = 0; i < 11; ++i) rk.k[i] = load(bytes + 16 * i);
  return rk;
}

HARDTAPE_GCM_HW_FN inline __m128i encrypt_block(const RoundKeys& rk, __m128i b) {
  b = _mm_xor_si128(b, rk.k[0]);
  for (size_t r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, rk.k[r]);
  return _mm_aesenclast_si128(b, rk.k[10]);
}

/// An unreduced 256-bit GHASH product, Karatsuba-free: lo, hi and the two
/// cross terms summed in mid. Sums of products reduce once (aggregated
/// reduction) because the shift and reduction below are GF(2)-linear.
struct Wide {
  __m128i lo;
  __m128i mid;
  __m128i hi;
};

HARDTAPE_GCM_HW_FN inline void clmul_acc(Wide& acc, __m128i a, __m128i b) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc.mid = _mm_xor_si128(acc.mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                                 _mm_clmulepi64_si128(a, b, 0x01)));
}

HARDTAPE_GCM_HW_FN inline __m128i reduce(const Wide& w) {
  __m128i lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
  __m128i hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));
  // Shift the 256-bit product left by one bit.
  __m128i carry_lo = _mm_srli_epi32(lo, 31);
  __m128i carry_hi = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  const __m128i cross = _mm_srli_si128(carry_lo, 12);
  carry_hi = _mm_slli_si128(carry_hi, 4);
  carry_lo = _mm_slli_si128(carry_lo, 4);
  lo = _mm_or_si128(lo, carry_lo);
  hi = _mm_or_si128(_mm_or_si128(hi, carry_hi), cross);
  // Reduce modulo x^128 + x^7 + x^2 + x + 1.
  __m128i a = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
                            _mm_slli_epi32(lo, 25));
  const __m128i a_hi = _mm_srli_si128(a, 4);
  a = _mm_slli_si128(a, 12);
  lo = _mm_xor_si128(lo, a);
  __m128i b = _mm_xor_si128(_mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
                            _mm_srli_epi32(lo, 7));
  b = _mm_xor_si128(b, a_hi);
  lo = _mm_xor_si128(lo, b);
  return _mm_xor_si128(hi, lo);
}

HARDTAPE_GCM_HW_FN inline __m128i gf_mul(__m128i a, __m128i b) {
  Wide w{_mm_setzero_si128(), _mm_setzero_si128(), _mm_setzero_si128()};
  clmul_acc(w, a, b);
  return reduce(w);
}

/// Absorbs `len` bytes (the last block zero-padded) into the reflected
/// GHASH state `y`; h[i] = H^(i+1). Eight blocks share one reduction:
/// y' = (y ^ X1)·H^8 ^ X2·H^7 ^ ... ^ X8·H.
HARDTAPE_GCM_HW_FN __m128i ghash(const __m128i h[8], __m128i y, const uint8_t* data,
                                 size_t len) {
  size_t off = 0;
  for (; len - off >= 128; off += 128) {
    Wide acc{_mm_setzero_si128(), _mm_setzero_si128(), _mm_setzero_si128()};
    clmul_acc(acc, _mm_xor_si128(y, reflect(load(data + off))), h[7]);
#pragma GCC unroll 7
    for (size_t k = 1; k < 8; ++k) {
      clmul_acc(acc, reflect(load(data + off + 16 * k)), h[7 - k]);
    }
    y = reduce(acc);
  }
  for (; len - off >= 16; off += 16) {
    y = gf_mul(_mm_xor_si128(y, reflect(load(data + off))), h[0]);
  }
  if (off < len) {
    uint8_t last[16] = {};
    std::memcpy(last, data + off, len - off);
    y = gf_mul(_mm_xor_si128(y, reflect(load(last))), h[0]);
  }
  return y;
}

/// The next eight keystream blocks, all in flight through the AES rounds
/// together; `ctr` is the byte-reflected counter block, advanced by eight.
HARDTAPE_GCM_HW_FN inline void keystream8(const RoundKeys& rk, __m128i& ctr, __m128i ks[8]) {
  // Byte-reflected, the big-endian 32-bit counter is lane 0, so a lane add
  // is inc32 (wrapping mod 2^32 as the spec requires).
  const __m128i one = _mm_set_epi32(0, 0, 0, 1);
#pragma GCC unroll 8
  for (size_t k = 0; k < 8; ++k) {
    ctr = _mm_add_epi32(ctr, one);
    ks[k] = _mm_xor_si128(reflect(ctr), rk.k[0]);
  }
#pragma GCC unroll 9
  for (size_t r = 1; r < 10; ++r) {
#pragma GCC unroll 8
    for (size_t k = 0; k < 8; ++k) ks[k] = _mm_aesenc_si128(ks[k], rk.k[r]);
  }
#pragma GCC unroll 8
  for (size_t k = 0; k < 8; ++k) ks[k] = _mm_aesenclast_si128(ks[k], rk.k[10]);
}

/// XORs the GCM keystream (counter blocks inc32(J0), ...) into `in` -> `out`.
HARDTAPE_GCM_HW_FN void ctr_xor_hw(const RoundKeys& rk, const GcmNonce& nonce,
                                   const uint8_t* in, uint8_t* out, size_t len) {
  const auto j0 = initial_counter(nonce);
  __m128i ctr = reflect(load(j0.data()));
  __m128i ks[8] = {};
  size_t off = 0;
  for (; len - off >= 128; off += 128) {
    keystream8(rk, ctr, ks);
#pragma GCC unroll 8
    for (size_t k = 0; k < 8; ++k) {
      store(out + off + 16 * k, _mm_xor_si128(ks[k], load(in + off + 16 * k)));
    }
  }
  if (off < len) {
    keystream8(rk, ctr, ks);
    uint8_t tail[128] = {};
    for (size_t k = 0; k < 8; ++k) store(tail + 16 * k, ks[k]);
    for (size_t i = 0; off + i < len; ++i) out[off + i] = in[off + i] ^ tail[i];
  }
}

HARDTAPE_GCM_HW_FN GcmTag tag_hw(const RoundKeys& rk, const uint8_t* h_powers,
                                 const GcmNonce& nonce, BytesView aad,
                                 const uint8_t* ciphertext, size_t len) {
  __m128i h[8] = {};
  for (size_t i = 0; i < 8; ++i) h[i] = load(h_powers + 16 * i);
  __m128i y = ghash(h, _mm_setzero_si128(), aad.data(), aad.size());
  y = ghash(h, y, ciphertext, len);
  const auto lengths = length_block(aad.size(), len);
  y = gf_mul(_mm_xor_si128(y, reflect(load(lengths.data()))), h[0]);
  const auto j0 = initial_counter(nonce);
  GcmTag tag{};
  store(tag.data(), _mm_xor_si128(reflect(y), encrypt_block(rk, load(j0.data()))));
  return tag;
}

HARDTAPE_GCM_HW_FN void init_hw(const uint8_t* round_keys, uint8_t* h_powers) {
  const RoundKeys rk = load_round_keys(round_keys);
  const __m128i h = reflect(encrypt_block(rk, _mm_setzero_si128()));
  __m128i power = h;
  store(h_powers, power);
  for (size_t i = 1; i < 8; ++i) {
    power = gf_mul(power, h);
    store(h_powers + 16 * i, power);
  }
}

HARDTAPE_GCM_HW_FN GcmTag seal_hw(const uint8_t* round_keys, const uint8_t* h_powers,
                                  const GcmNonce& nonce, BytesView plaintext,
                                  BytesView aad, uint8_t* ciphertext) {
  const RoundKeys rk = load_round_keys(round_keys);
  ctr_xor_hw(rk, nonce, plaintext.data(), ciphertext, plaintext.size());
  return tag_hw(rk, h_powers, nonce, aad, ciphertext, plaintext.size());
}

HARDTAPE_GCM_HW_FN bool open_hw(const uint8_t* round_keys, const uint8_t* h_powers,
                                const GcmNonce& nonce, BytesView ciphertext,
                                BytesView aad, const GcmTag& expected,
                                uint8_t* plaintext, size_t decrypt_len) {
  const RoundKeys rk = load_round_keys(round_keys);
  const GcmTag actual =
      tag_hw(rk, h_powers, nonce, aad, ciphertext.data(), ciphertext.size());
  if (!ct_equal(BytesView{actual.data(), actual.size()},
                BytesView{expected.data(), expected.size()})) {
    return false;
  }
  ctr_xor_hw(rk, nonce, ciphertext.data(), plaintext,
             std::min(decrypt_len, ciphertext.size()));
  return true;
}

}  // namespace

#endif  // HARDTAPE_GCM_HW

namespace detail {

bool hardware_gcm_available() {
#if HARDTAPE_GCM_HW
  static const bool kAvailable = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("ssse3");
  }();
  return kAvailable;
#else
  return false;
#endif
}

}  // namespace detail

// ---------------------------------------------------------------------------
// AesGcm: the keyed context; portable_ is engaged exactly when the
// hardware path is not in use
// ---------------------------------------------------------------------------

AesGcm::AesGcm(const AesKey128& key) {
#if HARDTAPE_GCM_HW
  if (detail::hardware_gcm_available()) {
    round_keys_ = Aes128(key).round_keys();
    init_hw(round_keys_.data(), h_powers_.data());
    return;
  }
#endif
  portable_.emplace(key);
}

GcmTag AesGcm::seal(const GcmNonce& nonce, BytesView plaintext, BytesView aad,
                    uint8_t* ciphertext) const {
#if HARDTAPE_GCM_HW
  if (!portable_.has_value()) {
    return seal_hw(round_keys_.data(), h_powers_.data(), nonce, plaintext, aad, ciphertext);
  }
#endif
  return portable_->seal(nonce, plaintext, aad, ciphertext);
}

bool AesGcm::open(const GcmNonce& nonce, BytesView ciphertext, BytesView aad,
                  const GcmTag& tag, uint8_t* plaintext, size_t decrypt_len) const {
#if HARDTAPE_GCM_HW
  if (!portable_.has_value()) {
    return open_hw(round_keys_.data(), h_powers_.data(), nonce, ciphertext, aad, tag,
                   plaintext, decrypt_len);
  }
#endif
  return portable_->open(nonce, ciphertext, aad, tag, plaintext, decrypt_len);
}

// ---------------------------------------------------------------------------
// One-shot wrappers
// ---------------------------------------------------------------------------

GcmResult aes_gcm_encrypt(const AesKey128& key, const GcmNonce& nonce,
                          BytesView plaintext, BytesView aad) {
  GcmResult result;
  result.ciphertext.resize(plaintext.size());
  result.tag = AesGcm(key).seal(nonce, plaintext, aad, result.ciphertext.data());
  return result;
}

std::optional<Bytes> aes_gcm_decrypt(const AesKey128& key, const GcmNonce& nonce,
                                     BytesView ciphertext, BytesView aad,
                                     const GcmTag& tag) {
  Bytes plaintext(ciphertext.size());
  if (!AesGcm(key).open(nonce, ciphertext, aad, tag, plaintext.data())) return std::nullopt;
  return plaintext;
}

Bytes aes_ctr_xor(const AesKey128& key, const GcmNonce& nonce, BytesView data) {
  Bytes out(data.size());
  detail::PortableGcm(key).ctr_xor(nonce, data, out.data());
  return out;
}

}  // namespace hardtape::crypto
