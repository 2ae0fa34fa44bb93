// Heap allocations of a warmed-up ORAM walk. The path's slot buffers are
// owned by the client and recycled through the store, so a walk allocates
// nothing per slot: the count per access must not grow with the path's
// Z * (depth + 1) slots. Global operator new is replaced in this binary
// (and only here) to count calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "crypto/keccak.hpp"
#include "durability/vfs.hpp"
#include "oram/path_oram.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace hardtape::oram {
namespace {

constexpr size_t kBlockSize = 1024;
constexpr int kCountedAccesses = 32;

crypto::AesKey128 test_key() {
  crypto::AesKey128 key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(3 * i + 2);
  return key;
}

struct WalkAllocations {
  uint64_t reads = 0;        ///< over kCountedAccesses reads of a stored block
  uint64_t dummy_reads = 0;  ///< over kCountedAccesses reads of unknown ids
  size_t path_slots = 0;
};

// A tree of `capacity` blocks, every slot already sealed (a warmed-up tree:
// each slot buffer has its full size), holding one stored block. With one
// block the work per access is fixed: the block is always on its path, is
// stashed, copied out and evicted again.
WalkAllocations count_walk_allocations(OramConfig config) {
  config.block_size = kBlockSize;
  config.bucket_capacity = 4;
  OramServer server(config);
  const crypto::AesGcm gcm(test_key());
  Random rng(5);
  Bytes dummy(32 + kBlockSize, 0);
  std::fill_n(dummy.begin(), 32, 0xff);  // the all-ones id marks a dummy
  std::vector<SealedSlot> tree(server.bucket_count() * config.bucket_capacity);
  for (SealedSlot& slot : tree) seal_slot(gcm, rng, dummy, slot);
  server.load_slots(std::move(tree));

  OramClient client(server, test_key(), 11);
  const BlockId id = crypto::keccak256("stored block").to_u256();
  const BlockId unknown = crypto::keccak256("unknown block").to_u256();
  client.write(id, Bytes(kBlockSize, 7));
  // Warm the client's buffers and the server's leaf log, then start the log
  // over so the counted accesses fit in its capacity.
  for (int i = 0; i < 2 * kCountedAccesses; ++i) {
    client.read(id);
    client.read(unknown);
  }
  server.clear_observations();

  WalkAllocations out;
  out.path_slots = (server.depth() + 1) * config.bucket_capacity;
  uint64_t before = g_allocations.load();
  for (int i = 0; i < kCountedAccesses; ++i) {
    const auto data = client.read(id);
    EXPECT_TRUE(data.has_value() && data->size() == kBlockSize && (*data)[0] == 7);
  }
  out.reads = g_allocations.load() - before;
  before = g_allocations.load();
  for (int i = 0; i < kCountedAccesses; ++i) EXPECT_FALSE(client.read(unknown).has_value());
  out.dummy_reads = g_allocations.load() - before;
  return out;
}

TEST(OramWalkAllocations, RamWalkAllocationsDoNotGrowWithThePath) {
  const WalkAllocations shallow = count_walk_allocations(OramConfig{.capacity = 256});
  const WalkAllocations deep = count_walk_allocations(OramConfig{.capacity = 4096});
  ASSERT_LT(shallow.path_slots, deep.path_slots);  // 36 against 52 slots
  EXPECT_EQ(shallow.reads, deep.reads);
  EXPECT_EQ(shallow.dummy_reads, deep.dummy_reads);
  // What is left is per access, not per slot: the stash entry of the block
  // read and the copy handed back. A dummy access allocates nothing.
  EXPECT_LE(shallow.reads, 3u * kCountedAccesses);
  EXPECT_EQ(shallow.dummy_reads, 0u);
}

TEST(OramWalkAllocations, PagedWalkAllocatesNothingPerSlotWhenResident) {
  // With the whole tree resident in the pool, a paged walk deserializes into
  // the recycled slots and serializes through one reused payload into the
  // frames' own buffers: the same counts as the RAM tree.
  durability::SimFs fs;
  const WalkAllocations ram = count_walk_allocations(OramConfig{.capacity = 256});
  const WalkAllocations paged = count_walk_allocations(OramConfig{
      .capacity = 256,
      .backend = SlotBackend::kPaged,
      .backing_fs = &fs,
      .buffer_pool_pages = 1024,
      .backing_name = "alloc"});
  EXPECT_EQ(paged.reads, ram.reads);
  EXPECT_EQ(paged.dummy_reads, ram.dummy_reads);
}

}  // namespace
}  // namespace hardtape::oram
