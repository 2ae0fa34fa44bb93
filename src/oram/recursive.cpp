#include "oram/recursive.hpp"

#include <algorithm>
#include <cstring>

namespace hardtape::oram {

namespace {
const u256 kDummyId = ~u256{};
}  // namespace

RecursiveOramClient::RecursiveOramClient(const RecursiveOramConfig& config,
                                         const crypto::AesKey128& oram_key,
                                         uint64_t rng_seed)
    : config_(config),
      gcm_(oram_key),
      rng_(rng_seed),
      data_server_(OramConfig{.block_size = config.block_size,
                              .bucket_capacity = config.bucket_capacity,
                              .capacity = config.capacity,
                              .max_stash_blocks = config.max_stash_blocks}),
      map_server_(OramConfig{
          .block_size = config.map_entries_per_block * 8,
          .bucket_capacity = config.bucket_capacity,
          .capacity = (config.capacity + config.map_entries_per_block - 1) /
                          config.map_entries_per_block +
                      1,
          .max_stash_blocks = config.max_stash_blocks}),
      map_client_(map_server_, oram_key, rng_seed ^ 0x3a9) {}

// Data blocks carry their current leaf in the sealed header (id || leaf ||
// data) so blocks swept up in transit keep a valid mapping without an extra
// map lookup.
void RecursiveOramClient::seal_block(const u256& id, uint64_t leaf, BytesView data,
                                     SealedSlot& slot) {
  if (data.size() > config_.block_size) throw UsageError("recursive oram: block too large");
  plain_.assign(40 + config_.block_size, 0);
  const auto id_bytes = id.to_be_bytes();
  std::copy(id_bytes.begin(), id_bytes.end(), plain_.begin());
  for (size_t i = 0; i < 8; ++i) plain_[32 + i] = static_cast<uint8_t>(leaf >> (8 * i));
  std::copy(data.begin(), data.end(), plain_.begin() + 40);
  seal_slot(gcm_, rng_, plain_, slot);
}

void RecursiveOramClient::open_block(const SealedSlot& slot, size_t decrypt_len) {
  if (!open_slot(gcm_, slot, plain_, decrypt_len)) {
    throw IntegrityError("recursive oram: authentication failed");
  }
}

// Swaps the map entry for `index` and returns the previous one. Exactly one
// map-ORAM access per data access (read-modify-write on the map block).
uint64_t RecursiveOramClient::map_entry_swap(uint64_t index, uint64_t new_entry) {
  const uint64_t map_index = index / config_.map_entries_per_block;
  const size_t offset = (index % config_.map_entries_per_block) * 8;
  uint64_t previous = 0;
  map_position_[map_index] = true;
  map_client_.read_modify_write(u256{map_index}, [&](std::optional<Bytes> block) {
    Bytes contents;
    if (block.has_value()) {
      contents = std::move(*block);
    } else {
      // Uninitialized map block: every entry gets a fresh random leaf.
      contents.resize(config_.map_entries_per_block * 8);
      for (size_t i = 0; i < config_.map_entries_per_block; ++i) {
        const uint64_t leaf = rng_.uniform(data_server_.leaf_count());
        std::memcpy(contents.data() + i * 8, &leaf, 8);
      }
    }
    std::memcpy(&previous, contents.data() + offset, 8);
    std::memcpy(contents.data() + offset, &new_entry, 8);
    return contents;
  });
  return previous;
}

std::optional<Bytes> RecursiveOramClient::read(uint64_t index) {
  if (index >= config_.capacity) throw UsageError("recursive oram: index out of range");
  const uint64_t new_leaf = rng_.uniform(data_server_.leaf_count());
  const uint64_t leaf = map_entry_swap(index, new_leaf) % data_server_.leaf_count();
  // Absent blocks are simply not found on the path: the access is uniform
  // either way (one map access + one data access).
  return data_access(index, leaf, new_leaf, nullptr);
}

void RecursiveOramClient::write(uint64_t index, BytesView data) {
  if (index >= config_.capacity) throw UsageError("recursive oram: index out of range");
  if (data.size() > config_.block_size) throw UsageError("recursive oram: block too large");
  Bytes padded(data.begin(), data.end());
  padded.resize(config_.block_size, 0);
  const uint64_t new_leaf = rng_.uniform(data_server_.leaf_count());
  const uint64_t leaf = map_entry_swap(index, new_leaf) % data_server_.leaf_count();
  data_access(index, leaf, new_leaf, &padded);
}

std::optional<Bytes> RecursiveOramClient::data_access(uint64_t index, uint64_t leaf,
                                                      uint64_t new_leaf,
                                                      const Bytes* new_data) {
  // Verify every slot, decrypting only its id, before the stash changes;
  // then open in full just the blocks the stash takes.
  data_server_.read_path(leaf, path_);
  stash_bound_.clear();
  for (size_t i = 0; i < path_.size(); ++i) {
    if (path_[i].ciphertext.empty()) continue;
    open_block(path_[i], 32);
    const u256 slot_id = u256::from_be_bytes(BytesView{plain_.data(), 32});
    if (slot_id == kDummyId) continue;
    if (data_stash_.contains(slot_id.as_u64())) continue;
    stash_bound_.push_back(i);
  }
  for (const size_t i : stash_bound_) {
    open_block(path_[i], crypto::kWholeMessage);
    const uint64_t id = u256::from_be_bytes(BytesView{plain_.data(), 32}).as_u64();
    const auto [entry, inserted] = data_stash_.try_emplace(id);
    if (!inserted) continue;  // an earlier copy on this path was stashed
    // The block header carries its current leaf, so transit blocks keep
    // their true mapping without an extra map lookup.
    uint64_t header_leaf = 0;
    std::memcpy(&header_leaf, plain_.data() + 32, 8);
    entry->second.data.assign(plain_.begin() + 40, plain_.end());
    entry->second.leaf = (id == index) ? new_leaf : header_leaf;
  }

  std::optional<Bytes> result;
  auto it = data_stash_.find(index);
  if (it != data_stash_.end()) {
    result = it->second.data;
    it->second.leaf = new_leaf;
    if (new_data != nullptr) it->second.data = *new_data;
  } else if (new_data != nullptr) {
    data_stash_[index] = StashEntry{*new_data, new_leaf};
  }
  stash_high_water_ = std::max(stash_high_water_, data_stash_.size());

  evict_data_path(leaf);
  return result;
}

void RecursiveOramClient::evict_data_path(uint64_t leaf) {
  const size_t depth = data_server_.depth();
  const size_t z = config_.bucket_capacity;
  for (size_t level_plus_1 = depth + 1; level_plus_1 > 0; --level_plus_1) {
    const size_t level = level_plus_1 - 1;
    size_t filled = 0;
    const uint64_t path_prefix = (data_server_.leaf_count() + leaf) >> (depth - level);
    for (auto it = data_stash_.begin(); it != data_stash_.end() && filled < z;) {
      const uint64_t block_prefix =
          (data_server_.leaf_count() + it->second.leaf) >> (depth - level);
      if (block_prefix == path_prefix) {
        seal_block(u256{it->first}, it->second.leaf, it->second.data,
                   path_[level * z + filled]);
        ++filled;
        it = data_stash_.erase(it);
      } else {
        ++it;
      }
    }
    for (; filled < z; ++filled) seal_block(kDummyId, 0, BytesView{}, path_[level * z + filled]);
  }
  data_server_.write_path(leaf, path_);
}

}  // namespace hardtape::oram
