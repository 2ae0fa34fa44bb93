#include "pagedstore/page.hpp"

#include <array>

#include "common/crc32c.hpp"
#include "common/errors.hpp"

namespace hardtape::pagedstore {

namespace {

void put_u16(Bytes& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void put_u32(Bytes& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_u64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint16_t get_u16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t get_u32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t get_u64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

/// CRC-32C over id_be || generation_le || payload.
uint32_t page_checksum(const u256& id, uint64_t generation, BytesView payload) {
  const auto id_bytes = id.to_be_bytes();
  std::array<uint8_t, 8> gen_bytes{};
  for (size_t i = 0; i < 8; ++i) gen_bytes[i] = static_cast<uint8_t>(generation >> (8 * i));
  uint32_t crc = crc32c(BytesView{id_bytes.data(), id_bytes.size()});
  crc = crc32c(BytesView{gen_bytes.data(), gen_bytes.size()}, crc);
  return crc32c(payload, crc);
}

}  // namespace

Bytes encode_page(const u256& id, uint64_t generation, BytesView payload) {
  if (payload.size() > kMaxPagePayload) {
    throw UsageError("pagedstore: page payload exceeds kMaxPagePayload");
  }
  Bytes out;
  out.reserve(kPageHeaderSize + payload.size());
  put_u32(out, kPageMagic);
  put_u16(out, kPageVersion);
  put_u16(out, 0);  // reserved
  append(out, id.to_be_bytes_vec());
  put_u64(out, generation);
  put_u32(out, static_cast<uint32_t>(payload.size()));
  put_u32(out, page_checksum(id, generation, payload));
  put_u32(out, 0);  // high half of the checksum field: zero since version 2
  append(out, payload);
  return out;
}

std::optional<DecodedPage> decode_page(BytesView raw) {
  if (raw.size() < kPageHeaderSize) return std::nullopt;
  const uint8_t* p = raw.data();
  if (get_u32(p) != kPageMagic) return std::nullopt;
  if (get_u16(p + 4) != kPageVersion) return std::nullopt;
  DecodedPage page;
  page.id = u256::from_be_bytes(BytesView{p + 8, 32});
  page.generation = get_u64(p + 40);
  const uint32_t len = get_u32(p + 48);
  if (len > kMaxPagePayload) return std::nullopt;
  if (raw.size() != kPageHeaderSize + len) return std::nullopt;
  const BytesView payload{p + kPageHeaderSize, len};
  if (get_u32(p + 52) != page_checksum(page.id, page.generation, payload)) return std::nullopt;
  if (get_u32(p + 56) != 0) return std::nullopt;
  page.payload.assign(payload.begin(), payload.end());
  return page;
}

}  // namespace hardtape::pagedstore
