// CRC-32C (Castagnoli): the page-record checksum of the paged store.
//
// It catches torn writes and bit rot. It is NOT an integrity check against
// an adversary: anyone can recompute it. Tampering is caught by the GCM tags
// on ORAM slots and by the trie's content addressing above the store.
//
// SSE4.2's CRC32 instruction computes exactly this polynomial; the CPU is
// checked once at run time, with a byte-wise table as the portable
// fallback, so build flags do not matter.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace hardtape {

/// CRC-32C of `data`, continuing from `crc` (the CRC of the bytes before
/// it): crc32c(b, crc32c(a)) == crc32c(a || b). crc32c("123456789") is
/// 0xE3069283.
uint32_t crc32c(BytesView data, uint32_t crc = 0);

namespace detail {
/// The table-driven fallback; equal to crc32c() on every input.
uint32_t crc32c_portable(BytesView data, uint32_t crc = 0);
}  // namespace detail

}  // namespace hardtape
