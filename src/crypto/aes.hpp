// AES-128 and AES-128-GCM.
//
// HarDTAPE uses AES-GCM in three places (Section IV-C):
//  - the user<->Hypervisor secure channel (session key from DHKE),
//  - sealing layer-3 (untrusted memory) pages,
//  - ORAM block re-encryption (shared ORAM key across devices).
// The "A.E.DMA" hardware units of the paper correspond to this module plus
// the DMA cost model in sim/.
//
// AesGcm is the keyed context every seal goes through: it expands the round
// keys and precomputes H^1..H^8 once per key. On x86 CPUs with AES-NI and
// PCLMULQDQ (checked once at run time, no build flag) it runs CTR eight
// blocks at a time and GHASH with one reduction per eight blocks. Elsewhere
// it falls back to detail::PortableGcm, the byte-wise SP 800-38D code that
// is also the oracle the hardware path is tested against. Both paths give
// byte-identical ciphertexts and tags.
#pragma once

#include <array>
#include <optional>

#include "common/bytes.hpp"

namespace hardtape::crypto {

using AesKey128 = std::array<uint8_t, 16>;
using GcmNonce = std::array<uint8_t, 12>;
using GcmTag = std::array<uint8_t, 16>;

/// `decrypt_len` of an open that decrypts the whole message.
inline constexpr size_t kWholeMessage = static_cast<size_t>(-1);

/// Raw AES-128 block cipher (table-free, byte-wise). Exposed for tests
/// against FIPS-197 vectors; its key schedule also feeds the AES-NI path.
class Aes128 {
 public:
  explicit Aes128(const AesKey128& key);
  void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;
  /// The 11 round keys, FIPS-197 byte order.
  const std::array<uint8_t, 176>& round_keys() const { return round_keys_; }

 private:
  std::array<uint8_t, 176> round_keys_{};  // 11 round keys
};

struct GcmResult {
  Bytes ciphertext;
  GcmTag tag;
};

namespace detail {

/// True when this CPU has AES-NI, PCLMULQDQ and SSSE3 (decided once).
bool hardware_gcm_available();

/// AES-128-GCM exactly as SP 800-38D writes it: byte-wise AES, bit-serial
/// GF(2^128) multiply. The portable fallback and the test oracle; same
/// interface as AesGcm.
class PortableGcm {
 public:
  explicit PortableGcm(const AesKey128& key);
  GcmTag seal(const GcmNonce& nonce, BytesView plaintext, BytesView aad,
              uint8_t* ciphertext) const;
  bool open(const GcmNonce& nonce, BytesView ciphertext, BytesView aad,
            const GcmTag& tag, uint8_t* plaintext,
            size_t decrypt_len = kWholeMessage) const;
  /// Bare CTR keystream XOR, counter starting at inc32(J0) as in GCM.
  void ctr_xor(const GcmNonce& nonce, BytesView in, uint8_t* out) const;

 private:
  GcmTag tag(const GcmNonce& nonce, BytesView aad, BytesView ciphertext) const;

  Aes128 cipher_;
  std::array<uint8_t, 16> h_{};
};

}  // namespace detail

/// AES-128-GCM under one key, reusable across any number of messages and
/// safe to share between threads (every method is const). Output buffers
/// are caller-owned, hold exactly the input's length, and may alias it.
class AesGcm {
 public:
  explicit AesGcm(const AesKey128& key);

  /// True when the AES-NI + PCLMULQDQ path is in use.
  bool hardware() const { return !portable_.has_value(); }

  /// Encrypts `plaintext` into `ciphertext` and returns the tag.
  GcmTag seal(const GcmNonce& nonce, BytesView plaintext, BytesView aad,
              uint8_t* ciphertext) const;
  /// Verifies `tag` over all of (aad, ciphertext) and only then decrypts
  /// the first min(decrypt_len, ciphertext.size()) bytes into `plaintext`;
  /// the rest of the keystream is never computed. Returns false, writing
  /// nothing, when the tag fails.
  bool open(const GcmNonce& nonce, BytesView ciphertext, BytesView aad,
            const GcmTag& tag, uint8_t* plaintext,
            size_t decrypt_len = kWholeMessage) const;

 private:
  alignas(16) std::array<uint8_t, 176> round_keys_{};
  /// H^1..H^8, byte-reflected as the PCLMULQDQ GHASH consumes them.
  alignas(16) std::array<uint8_t, 128> h_powers_{};
  std::optional<detail::PortableGcm> portable_;  ///< engaged without AES-NI
};

/// One-shot AES-128-GCM authenticated encryption (a context per call).
GcmResult aes_gcm_encrypt(const AesKey128& key, const GcmNonce& nonce,
                          BytesView plaintext, BytesView aad);

/// Returns std::nullopt when the tag does not verify (expected failure mode;
/// never throws for tampered input).
std::optional<Bytes> aes_gcm_decrypt(const AesKey128& key, const GcmNonce& nonce,
                                     BytesView ciphertext, BytesView aad,
                                     const GcmTag& tag);

/// AES-128-CTR keystream XOR (GCM's counter layout, no tag), on the
/// portable path: nothing on a hot path uses it.
Bytes aes_ctr_xor(const AesKey128& key, const GcmNonce& nonce, BytesView data);

}  // namespace hardtape::crypto
