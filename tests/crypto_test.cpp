// Known-answer and property tests for the crypto substrate.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/errors.hpp"
#include "common/random.hpp"
#include "crypto/aes.hpp"
#include "crypto/keccak.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"

namespace hardtape::crypto {
namespace {

TEST(Keccak, KnownVectors) {
  // Ethereum-style Keccak-256 (original padding), not SHA3-256.
  EXPECT_EQ(keccak256("").hex(),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
  EXPECT_EQ(keccak256("abc").hex(),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
  EXPECT_EQ(keccak256("The quick brown fox jumps over the lazy dog").hex(),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak, MultiBlockInput) {
  // > 136-byte input exercises the multi-block absorb path.
  const std::string long_input(500, 'a');
  const H256 h1 = keccak256(long_input);
  const H256 h2 = keccak256(long_input);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, keccak256(std::string(501, 'a')));
  // Boundary: exactly one rate block.
  EXPECT_NE(keccak256(std::string(136, 'x')), keccak256(std::string(135, 'x')));
}

// The loop-indexed Keccak-f[1600] keccak.cpp used before its permutation
// was unrolled, kept as the differential oracle for the unrolled one.
void reference_keccak_f1600(uint64_t state[25]) {
  constexpr uint64_t kRoundConstants[24] = {
      0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
      0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
      0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
      0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
      0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
      0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
      0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
      0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};
  constexpr int kRotations[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                                  25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};
  for (int round = 0; round < 24; ++round) {
    uint64_t c[5], d[5];
    for (int x = 0; x < 5; ++x) {
      c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
    }
    for (int x = 0; x < 5; ++x) {
      d[x] = c[(x + 4) % 5] ^ std::rotl(c[(x + 1) % 5], 1);
      for (int y = 0; y < 5; ++y) state[x + 5 * y] ^= d[x];
    }
    uint64_t b[25];
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        b[y + 5 * ((2 * x + 3 * y) % 5)] = std::rotl(state[x + 5 * y], kRotations[x + 5 * y]);
      }
    }
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        state[x + 5 * y] =
            b[x + 5 * y] ^ ((~b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
      }
    }
    state[0] ^= kRoundConstants[round];
  }
}

// Keccak-256 sponge (rate 136, padding 0x01 ... 0x80) over the oracle.
H256 reference_keccak256(BytesView data) {
  constexpr size_t kRate = 136;
  uint64_t state[25] = {};
  Bytes padded(data.begin(), data.end());
  padded.resize((data.size() / kRate + 1) * kRate, 0);
  padded[data.size()] ^= 0x01;
  padded.back() |= 0x80;
  for (size_t offset = 0; offset < padded.size(); offset += kRate) {
    for (size_t i = 0; i < kRate / 8; ++i) {
      uint64_t lane;
      std::memcpy(&lane, padded.data() + offset + i * 8, 8);
      state[i] ^= lane;
    }
    reference_keccak_f1600(state);
  }
  H256 out;
  std::memcpy(out.bytes.data(), state, 32);
  return out;
}

TEST(Keccak, UnrolledPermutationMatchesLoopOracle) {
  Random rng(1600);
  for (size_t len = 0; len <= 300; ++len) {  // every length across two rate blocks
    const Bytes data = rng.bytes(len);
    ASSERT_EQ(keccak256(data), reference_keccak256(data)) << "length " << len;
  }
  for (int i = 0; i < 300; ++i) {
    const Bytes data = rng.bytes(rng.uniform(1025));  // 0..1 KiB
    ASSERT_EQ(keccak256(data), reference_keccak256(data)) << "length " << data.size();
  }
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(sha256(Bytes{}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const Bytes abc = {'a', 'b', 'c'};
  EXPECT_EQ(sha256(abc).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // 56-byte input exercises the two-block padding path.
  const std::string s56(56, 'a');
  const Bytes b56(s56.begin(), s56.end());
  EXPECT_EQ(sha256(b56).hex(),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, HmacRfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string data = "Hi There";
  const Bytes msg(data.begin(), data.end());
  EXPECT_EQ(hmac_sha256(key, msg).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Sha256, HmacRfc4231Case2) {
  const std::string k = "Jefe";
  const std::string d = "what do ya want for nothing?";
  EXPECT_EQ(hmac_sha256(Bytes(k.begin(), k.end()), Bytes(d.begin(), d.end())).hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Sha256, HkdfProducesRequestedLength) {
  const Bytes ikm(22, 0x0b);
  const Bytes out = hkdf_sha256(ikm, Bytes{}, Bytes{}, 42);
  EXPECT_EQ(out.size(), 42u);
  // Deterministic.
  EXPECT_EQ(out, hkdf_sha256(ikm, Bytes{}, Bytes{}, 42));
  // Different info separates keys.
  const Bytes info = {'x'};
  EXPECT_NE(out, hkdf_sha256(ikm, Bytes{}, info, 42));
}

TEST(Aes128, Fips197Vector) {
  const Bytes key_bytes = from_hex("000102030405060708090a0b0c0d0e0f");
  AesKey128 key;
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  uint8_t out[16];
  Aes128(key).encrypt_block(pt.data(), out);
  EXPECT_EQ(to_hex(BytesView{out, 16}), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesGcm, NistTestCase1EmptyPlaintext) {
  const AesKey128 key{};
  const GcmNonce nonce{};
  const auto result = aes_gcm_encrypt(key, nonce, Bytes{}, Bytes{});
  EXPECT_TRUE(result.ciphertext.empty());
  EXPECT_EQ(to_hex(BytesView{result.tag.data(), result.tag.size()}),
            "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(AesGcm, NistTestCase2) {
  const AesKey128 key{};
  const GcmNonce nonce{};
  const Bytes pt(16, 0);
  const auto result = aes_gcm_encrypt(key, nonce, pt, Bytes{});
  EXPECT_EQ(to_hex(result.ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(to_hex(BytesView{result.tag.data(), result.tag.size()}),
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(AesGcm, RoundTripWithAad) {
  AesKey128 key;
  Random rng(11);
  rng.fill(key.data(), key.size());
  GcmNonce nonce;
  rng.fill(nonce.data(), nonce.size());
  const Bytes pt = rng.bytes(1000);
  const Bytes aad = rng.bytes(37);

  const auto enc = aes_gcm_encrypt(key, nonce, pt, aad);
  const auto dec = aes_gcm_decrypt(key, nonce, enc.ciphertext, aad, enc.tag);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, pt);
}

TEST(AesGcm, TamperDetection) {
  AesKey128 key{};
  GcmNonce nonce{};
  const Bytes pt = {1, 2, 3, 4, 5};
  const Bytes aad = {9, 9};
  const auto enc = aes_gcm_encrypt(key, nonce, pt, aad);

  // Flip a ciphertext bit.
  Bytes bad_ct = enc.ciphertext;
  bad_ct[0] ^= 1;
  EXPECT_FALSE(aes_gcm_decrypt(key, nonce, bad_ct, aad, enc.tag).has_value());

  // Flip a tag bit.
  GcmTag bad_tag = enc.tag;
  bad_tag[0] ^= 1;
  EXPECT_FALSE(aes_gcm_decrypt(key, nonce, enc.ciphertext, aad, bad_tag).has_value());

  // Wrong AAD.
  const Bytes bad_aad = {9, 8};
  EXPECT_FALSE(aes_gcm_decrypt(key, nonce, enc.ciphertext, bad_aad, enc.tag).has_value());

  // Wrong key.
  AesKey128 other_key{};
  other_key[0] = 1;
  EXPECT_FALSE(aes_gcm_decrypt(other_key, nonce, enc.ciphertext, aad, enc.tag).has_value());
}

TEST(AesCtr, XorIsInvolution) {
  AesKey128 key{};
  key[5] = 0xaa;
  GcmNonce nonce{};
  nonce[0] = 7;
  const Bytes data = Random(3).bytes(777);
  const Bytes enc = aes_ctr_xor(key, nonce, data);
  EXPECT_NE(enc, data);
  EXPECT_EQ(aes_ctr_xor(key, nonce, enc), data);
}

// --- AES-GCM: every check on the AES-NI path and on the portable oracle ---

struct HardwareGcm {
  using Context = AesGcm;
  static constexpr const char* kName = "Hardware";
  static bool available() { return detail::hardware_gcm_available(); }
};

struct PortableGcm {
  using Context = detail::PortableGcm;
  static constexpr const char* kName = "Portable";
  static bool available() { return true; }
};

template <class Impl>
class GcmPathTest : public ::testing::Test {
 protected:
  using Context = typename Impl::Context;

  void SetUp() override {
    if (!Impl::available()) GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ";
    // The dispatched context must really be the path under test.
    if constexpr (std::is_same_v<Impl, HardwareGcm>) {
      ASSERT_TRUE(AesGcm(AesKey128{}).hardware());
    }
  }

  static GcmResult seal(const Context& ctx, const GcmNonce& nonce, BytesView pt,
                        BytesView aad) {
    GcmResult out;
    out.ciphertext.resize(pt.size());
    out.tag = ctx.seal(nonce, pt, aad, out.ciphertext.data());
    return out;
  }
  static std::optional<Bytes> open(const Context& ctx, const GcmNonce& nonce, BytesView ct,
                                   BytesView aad, const GcmTag& tag) {
    Bytes pt(ct.size(), 0xee);
    const bool ok = ctx.open(nonce, ct, aad, tag, pt.data());
    // A refused open writes nothing.
    if (!ok && pt != Bytes(ct.size(), 0xee)) ADD_FAILURE() << "refused open wrote plaintext";
    if (!ok) return std::nullopt;
    return pt;
  }
};

struct GcmPathNames {
  template <class T>
  static std::string GetName(int) {
    return T::kName;
  }
};

using GcmPaths = ::testing::Types<HardwareGcm, PortableGcm>;
TYPED_TEST_SUITE(GcmPathTest, GcmPaths, GcmPathNames);

template <size_t N>
std::array<uint8_t, N> fixed_hex(const std::string& hex) {
  const Bytes b = from_hex(hex);
  std::array<uint8_t, N> out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

TYPED_TEST(GcmPathTest, NistSp80038dVectors) {
  struct Vector {
    const char *key, *nonce, *pt, *aad, *ct, *tag;
  };
  // McGrew & Viega GCM spec test cases 1-4 (AES-128).
  const Vector vectors[] = {
      {"00000000000000000000000000000000", "000000000000000000000000", "", "", "",
       "58e2fccefa7e3061367f1d57a4e7455a"},
      {"00000000000000000000000000000000", "000000000000000000000000",
       "00000000000000000000000000000000", "", "0388dace60b6a392f328c2b971b2fe78",
       "ab6e47d42cec13bdf53a67b21257bddf"},
      {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
       "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
       "",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
       "4d5c2af327cd64a62cf35abd2ba6fab4"},
      {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
       "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
       "feedfacedeadbeeffeedfacedeadbeefabaddad2",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
       "5bc94fbc3221a5db94fae95ae7121a47"},
  };
  for (const Vector& v : vectors) {
    const typename TestFixture::Context ctx(fixed_hex<16>(v.key));
    const auto nonce = fixed_hex<12>(v.nonce);
    const Bytes pt = from_hex(v.pt);
    const Bytes aad = from_hex(v.aad);
    const GcmResult out = TestFixture::seal(ctx, nonce, pt, aad);
    EXPECT_EQ(to_hex(out.ciphertext), v.ct);
    EXPECT_EQ(to_hex(BytesView{out.tag.data(), out.tag.size()}), v.tag);
    const auto back = TestFixture::open(ctx, nonce, out.ciphertext, aad, out.tag);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, pt);
  }
}

TYPED_TEST(GcmPathTest, ByteIdenticalToTheOtherPath) {
  // Hardware is checked against the portable oracle; the portable path
  // against the dispatched context (the hardware one wherever it exists).
  // Every length 0-160 hits each tail shape of the 8-block loops; then
  // random lengths up to 4 KB, AAD 0-64 B. Every third case runs in place.
  Random rng(2025);
  for (size_t i = 0; i < 161 + 400; ++i) {
    AesKey128 key;
    rng.fill(key.data(), key.size());
    GcmNonce nonce;
    rng.fill(nonce.data(), nonce.size());
    const size_t len = i <= 160 ? i : rng.uniform(4097);
    const Bytes pt = rng.bytes(len);
    const Bytes aad = rng.bytes(i <= 160 ? i % 65 : rng.uniform(65));
    const typename TestFixture::Context ctx(key);
    GcmResult got;
    if (i % 3 == 0) {
      got.ciphertext = pt;
      got.tag = ctx.seal(nonce, got.ciphertext, aad, got.ciphertext.data());
    } else {
      got = TestFixture::seal(ctx, nonce, pt, aad);
    }
    GcmResult want;
    want.ciphertext.resize(len);
    if constexpr (std::is_same_v<TypeParam, HardwareGcm>) {
      want.tag = detail::PortableGcm(key).seal(nonce, pt, aad, want.ciphertext.data());
    } else {
      want.tag = AesGcm(key).seal(nonce, pt, aad, want.ciphertext.data());
    }
    ASSERT_EQ(got.ciphertext, want.ciphertext) << "len " << len << " aad " << aad.size();
    ASSERT_EQ(got.tag, want.tag) << "len " << len << " aad " << aad.size();
    const auto back = TestFixture::open(ctx, nonce, got.ciphertext, aad, got.tag);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(*back, pt);
  }
}

TYPED_TEST(GcmPathTest, EveryFlipIsRejected) {
  Random rng(77);
  AesKey128 key;
  rng.fill(key.data(), key.size());
  const typename TestFixture::Context ctx(key);
  for (const size_t len : {size_t{1}, size_t{16}, size_t{100}, size_t{1056}}) {
    GcmNonce nonce;
    rng.fill(nonce.data(), nonce.size());
    const Bytes pt = rng.bytes(len);
    const Bytes aad = rng.bytes(21);
    const GcmResult out = TestFixture::seal(ctx, nonce, pt, aad);
    for (size_t bit = 0; bit < 128; bit += 7) {
      GcmTag tag = out.tag;
      tag[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(TestFixture::open(ctx, nonce, out.ciphertext, aad, tag).has_value());
    }
    for (size_t at = 0; at < len; at += 1 + len / 9) {
      Bytes ct = out.ciphertext;
      ct[at] ^= 0x04;
      EXPECT_FALSE(TestFixture::open(ctx, nonce, ct, aad, out.tag).has_value()) << at;
    }
    for (size_t at = 0; at < aad.size(); at += 5) {
      Bytes bad_aad = aad;
      bad_aad[at] ^= 0x80;
      EXPECT_FALSE(TestFixture::open(ctx, nonce, out.ciphertext, bad_aad, out.tag).has_value());
    }
    for (size_t at = 0; at < nonce.size(); ++at) {
      GcmNonce bad_nonce = nonce;
      bad_nonce[at] ^= 0x01;
      EXPECT_FALSE(TestFixture::open(ctx, bad_nonce, out.ciphertext, aad, out.tag).has_value());
    }
    const Bytes shorter(out.ciphertext.begin(), out.ciphertext.end() - 1);
    EXPECT_FALSE(TestFixture::open(ctx, nonce, shorter, aad, out.tag).has_value());
    ASSERT_TRUE(TestFixture::open(ctx, nonce, out.ciphertext, aad, out.tag).has_value());
  }
}

TYPED_TEST(GcmPathTest, PrefixOpenEqualsPrefixOfFullOpen) {
  // An open with a decrypt length verifies the tag over every byte, writes
  // exactly the plaintext prefix a full open gives, and leaves the rest of
  // the output untouched; with a failed tag it writes nothing.
  Random rng(32);
  AesKey128 key;
  rng.fill(key.data(), key.size());
  const typename TestFixture::Context ctx(key);
  for (const size_t n : {size_t{33}, size_t{200}, size_t{1056}}) {
    GcmNonce nonce;
    rng.fill(nonce.data(), nonce.size());
    const Bytes pt = rng.bytes(n);
    const Bytes aad = rng.bytes(n % 7);
    const GcmResult sealed = TestFixture::seal(ctx, nonce, pt, aad);
    for (const size_t len : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                             size_t{32}, n - 1, n, n + 5, kWholeMessage}) {
      Bytes out(n, 0xee);
      ASSERT_TRUE(ctx.open(nonce, sealed.ciphertext, aad, sealed.tag, out.data(), len))
          << "n " << n << " len " << len;
      Bytes want = pt;
      const size_t written = std::min(len, n);
      std::fill(want.begin() + static_cast<ptrdiff_t>(written), want.end(), 0xee);
      EXPECT_EQ(out, want) << "n " << n << " len " << len;

      Bytes tail_flipped = sealed.ciphertext;
      tail_flipped.back() ^= 0x01;  // outside every prefix shorter than n
      Bytes refused(n, 0xee);
      EXPECT_FALSE(ctx.open(nonce, tail_flipped, aad, sealed.tag, refused.data(), len))
          << "n " << n << " len " << len;
      EXPECT_EQ(refused, Bytes(n, 0xee)) << "n " << n << " len " << len;
    }
  }
}

TYPED_TEST(GcmPathTest, ReusedContextEqualsOneShot) {
  // One context across many messages (seals and opens interleaved) gives
  // what a fresh context per message gives: no state carries over.
  Random rng(5);
  AesKey128 key;
  rng.fill(key.data(), key.size());
  const typename TestFixture::Context reused(key);
  for (int i = 0; i < 200; ++i) {
    GcmNonce nonce;
    rng.fill(nonce.data(), nonce.size());
    const Bytes pt = rng.bytes(rng.uniform(1100));
    const Bytes aad = rng.bytes(rng.uniform(40));
    const GcmResult a = TestFixture::seal(reused, nonce, pt, aad);
    const GcmResult b = TestFixture::seal(typename TestFixture::Context(key), nonce, pt, aad);
    ASSERT_EQ(a.ciphertext, b.ciphertext);
    ASSERT_EQ(a.tag, b.tag);
    const GcmResult one_shot = aes_gcm_encrypt(key, nonce, pt, aad);
    ASSERT_EQ(a.ciphertext, one_shot.ciphertext);
    ASSERT_EQ(a.tag, one_shot.tag);
    ASSERT_TRUE(TestFixture::open(reused, nonce, a.ciphertext, aad, a.tag).has_value());
  }
}

// --- secp256k1 ---

TEST(Secp256k1, GeneratorOnCurve) {
  EXPECT_TRUE(secp256k1::is_on_curve(secp256k1::generator()));
}

TEST(Secp256k1, GroupLaws) {
  const Point g = secp256k1::generator();
  // 2G via add == 2G via double.
  EXPECT_EQ(secp256k1::add(g, g), secp256k1::dbl(g));
  // (G + 2G) == 3G.
  const Point g2 = secp256k1::dbl(g);
  const Point g3a = secp256k1::add(g, g2);
  const Point g3b = secp256k1::mul(g, u256{3});
  EXPECT_EQ(g3a, g3b);
  EXPECT_TRUE(secp256k1::is_on_curve(g3a));
  // n*G = infinity.
  EXPECT_TRUE(secp256k1::mul(g, secp256k1::group_order()).is_infinity);
  // (n-1)*G + G = infinity.
  const Point gn1 = secp256k1::mul(g, secp256k1::group_order() - u256{1});
  EXPECT_TRUE(secp256k1::add(gn1, g).is_infinity);
  // P + infinity = P.
  EXPECT_EQ(secp256k1::add(g, Point{.is_infinity = true}), g);
}

TEST(Secp256k1, ScalarMulDistributes) {
  const Point g = secp256k1::generator();
  // (a+b)G == aG + bG
  const u256 a{123456789};
  const u256 b = u256::from_string("0xfedcba9876543210");
  EXPECT_EQ(secp256k1::mul(g, a + b),
            secp256k1::add(secp256k1::mul(g, a), secp256k1::mul(g, b)));
}

TEST(Secp256k1, EthereumAddressOfKeyOne) {
  // Well-known: the address of private key 1.
  const PrivateKey key(u256{1});
  EXPECT_EQ(pubkey_to_address(key.public_key()).hex(),
            "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf");
  // And of private key 2.
  const PrivateKey key2(u256{2});
  EXPECT_EQ(pubkey_to_address(key2.public_key()).hex(),
            "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf");
}

TEST(Secp256k1, KeyValidation) {
  EXPECT_THROW(PrivateKey(u256{}), UsageError);
  EXPECT_THROW(PrivateKey(secp256k1::group_order()), UsageError);
  EXPECT_NO_THROW(PrivateKey(secp256k1::group_order() - u256{1}));
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  const PrivateKey key = PrivateKey::from_seed(from_hex("aabbcc"));
  const H256 msg = keccak256("hello hardtape");
  const Signature sig = key.sign(msg);
  EXPECT_TRUE(ecdsa_verify(key.public_key(), msg, sig));
  // Wrong message fails.
  EXPECT_FALSE(ecdsa_verify(key.public_key(), keccak256("other"), sig));
  // Wrong key fails.
  const PrivateKey other = PrivateKey::from_seed(from_hex("ddeeff"));
  EXPECT_FALSE(ecdsa_verify(other.public_key(), msg, sig));
  // Tampered signature fails.
  Signature bad = sig;
  bad.s += u256{1};
  EXPECT_FALSE(ecdsa_verify(key.public_key(), msg, bad));
}

TEST(Ecdsa, DeterministicSignatures) {
  const PrivateKey key(u256{42});
  const H256 msg = keccak256("determinism");
  const Signature s1 = key.sign(msg);
  const Signature s2 = key.sign(msg);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Ecdsa, RecoveryMatchesPublicKey) {
  Random rng(17);
  for (int i = 0; i < 5; ++i) {
    const PrivateKey key = PrivateKey::from_seed(rng.bytes(16));
    const H256 msg = keccak256(rng.bytes(40));
    const Signature sig = key.sign(msg);
    const auto recovered = ecdsa_recover(msg, sig);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(*recovered, key.public_key());
  }
}

TEST(Ecdsa, RecoveryRejectsGarbage) {
  Signature sig;
  sig.r = u256{};  // r = 0 invalid
  sig.s = u256{1};
  EXPECT_FALSE(ecdsa_recover(keccak256("x"), sig).has_value());
  sig.r = secp256k1::group_order();  // r >= n invalid
  EXPECT_FALSE(ecdsa_recover(keccak256("x"), sig).has_value());
}

TEST(Ecdsa, SignatureSerializeRoundTrip) {
  const PrivateKey key(u256{7});
  const Signature sig = key.sign(keccak256("serialize"));
  const Bytes wire = sig.serialize();
  EXPECT_EQ(wire.size(), 65u);
  const auto back = Signature::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->r, sig.r);
  EXPECT_EQ(back->s, sig.s);
  EXPECT_EQ(back->recovery_id, sig.recovery_id);
  EXPECT_FALSE(Signature::deserialize(Bytes(64, 0)).has_value());
}

TEST(Ecdh, SharedSecretAgreement) {
  const PrivateKey alice = PrivateKey::from_seed(from_hex("01"));
  const PrivateKey bob = PrivateKey::from_seed(from_hex("02"));
  const H256 s1 = alice.ecdh(bob.public_key());
  const H256 s2 = bob.ecdh(alice.public_key());
  EXPECT_EQ(s1, s2);
  const PrivateKey carol = PrivateKey::from_seed(from_hex("03"));
  EXPECT_NE(s1, carol.ecdh(alice.public_key()));
}

TEST(Ecdh, RejectsInvalidPeer) {
  const PrivateKey key(u256{5});
  Point bogus{u256{1}, u256{1}, false};  // not on curve
  EXPECT_THROW(key.ecdh(bogus), UsageError);
  EXPECT_THROW(key.ecdh(Point{.is_infinity = true}), UsageError);
}

TEST(Secp256k1, LiftX) {
  const Point g = secp256k1::generator();
  const auto lifted = secp256k1::lift_x(g.x, g.y.bit(0));
  ASSERT_TRUE(lifted.has_value());
  EXPECT_EQ(*lifted, g);
  // Opposite parity gives the mirrored point.
  const auto mirrored = secp256k1::lift_x(g.x, !g.y.bit(0));
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_EQ(mirrored->y, secp256k1::field_prime() - g.y);
}

TEST(Secp256k1, PointSerializeRoundTrip) {
  const Point g = secp256k1::generator();
  const auto back = point_deserialize(point_serialize(g));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
  // Infinity round-trips as zeros.
  const auto inf = point_deserialize(point_serialize(Point{.is_infinity = true}));
  ASSERT_TRUE(inf.has_value());
  EXPECT_TRUE(inf->is_infinity);
  // Off-curve points rejected.
  Bytes bad(64, 0);
  bad[31] = 1;  // x=1, y=0 not on curve
  EXPECT_FALSE(point_deserialize(bad).has_value());
}

}  // namespace
}  // namespace hardtape::crypto
