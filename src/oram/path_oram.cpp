#include "oram/path_oram.hpp"

#include <algorithm>

#include "oram/slot_store.hpp"

namespace hardtape::oram {

namespace {

// Block ids are 32 bytes inside the sealed plaintext: id || data.
// The all-ones id marks a dummy slot.
const u256 kDummyId = ~u256{};

}  // namespace

void seal_slot(const crypto::AesGcm& gcm, Random& rng, BytesView plaintext,
               SealedSlot& slot) {
  rng.fill(slot.nonce.data(), slot.nonce.size());
  slot.ciphertext.resize(plaintext.size());
  slot.tag = gcm.seal(slot.nonce, plaintext, BytesView{}, slot.ciphertext.data());
}

bool open_slot(const crypto::AesGcm& gcm, const SealedSlot& slot, Bytes& plaintext,
               size_t decrypt_len) {
  plaintext.resize(slot.ciphertext.size());
  return gcm.open(slot.nonce, slot.ciphertext, BytesView{}, slot.tag, plaintext.data(),
                  decrypt_len);
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

OramServer::OramServer(const OramConfig& config) : config_(config) {
  if (config.capacity == 0) throw UsageError("oram: zero capacity");
  // Leaves sized so the tree holds `capacity` blocks with Z-slot buckets and
  // comfortable slack (standard Path ORAM: N leaves for N blocks suffices
  // when Z >= 4; we round capacity up to a power of two).
  leaf_count_ = 1;
  depth_ = 0;
  while (leaf_count_ < config.capacity) {
    leaf_count_ <<= 1;
    ++depth_;
  }
  switch (config.backend) {
    case SlotBackend::kRam:
      store_ = std::make_unique<RamSlotStore>(bucket_count(), config.bucket_capacity);
      break;
    case SlotBackend::kPaged: {
      if (config.backing_fs == nullptr) {
        throw UsageError("oram: paged slot backend requires backing_fs");
      }
      pagedstore::PagedStoreConfig ps;
      ps.name = config.backing_name;
      ps.buffer_pool_pages = config.buffer_pool_pages;
      ps.registry = config.registry;
      // Walk working set: every bucket of one path stays pinned from
      // read_path to write_path, plus slack for the rewrite's fetches.
      store_ = std::make_unique<PagedSlotStore>(*config.backing_fs, std::move(ps),
                                                config.bucket_capacity,
                                                /*min_pool_pages=*/2 * (depth_ + 1));
      break;
    }
  }
  if (store_ == nullptr) throw UsageError("oram: bad slot backend");
}

OramServer::~OramServer() = default;

void OramServer::read_path(uint64_t leaf, std::vector<SealedSlot>& path) {
  if (leaf >= leaf_count_) throw UsageError("oram: leaf out of range");
  observed_leaves_.push_back(leaf);
  ++access_count_;
  walk_buckets_.clear();
  for (size_t level = 0; level <= depth_; ++level) {
    walk_buckets_.push_back(bucket_index(leaf, level));
  }
  // The walk's pages stay pinned until write_path rewrites them (or the next
  // read_path supersedes the walk) — eviction proceeds around them.
  store_->begin_walk(walk_buckets_);
  path.resize((depth_ + 1) * config_.bucket_capacity);
  for (size_t level = 0; level <= depth_; ++level) {
    store_->read_bucket(walk_buckets_[level], path.data() + level * config_.bucket_capacity);
  }
}

void OramServer::write_path(uint64_t leaf, std::vector<SealedSlot>& path) {
  if (leaf >= leaf_count_) throw UsageError("oram: leaf out of range");
  if (path.size() != (depth_ + 1) * config_.bucket_capacity) {
    throw UsageError("oram: path shape mismatch");
  }
  for (size_t level = 0; level <= depth_; ++level) {
    store_->write_bucket(bucket_index(leaf, level),
                         path.data() + level * config_.bucket_capacity);
  }
  store_->end_walk();
}

void OramServer::load_slots(std::vector<SealedSlot> slots) {
  if (slots.size() != bucket_count() * config_.bucket_capacity) {
    throw UsageError("oram: bulk load shape mismatch");
  }
  store_->end_walk();
  for (size_t bucket = 0; bucket < bucket_count(); ++bucket) {
    store_->write_bucket(bucket, slots.data() + bucket * config_.bucket_capacity);
  }
}

std::optional<pagedstore::BufferPoolStats> OramServer::slot_pool_stats() const {
  return store_->pool_stats();
}

uint64_t OramServer::bytes_per_access() const {
  const uint64_t slot_bytes = 12 + 16 + 32 + config_.block_size;
  return 2 * (depth_ + 1) * config_.bucket_capacity * slot_bytes;
}

uint64_t OramServer::storage_bytes() const {
  return bucket_count() * config_.bucket_capacity * (12 + 16 + 32 + config_.block_size);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

OramClient::OramClient(OramServer& server, const crypto::AesKey128& oram_key,
                       uint64_t rng_seed)
    : server_(server), gcm_(oram_key), rng_(rng_seed) {}

void OramClient::seal_block(const BlockId& id, BytesView data, SealedSlot& slot) {
  if (data.size() > server_.config().block_size) throw UsageError("oram: block too large");
  plain_.resize(32 + server_.config().block_size);
  const auto id_bytes = id.to_be_bytes();
  const auto data_end = std::copy(data.begin(), data.end(),
                                  std::copy(id_bytes.begin(), id_bytes.end(), plain_.begin()));
  std::fill(data_end, plain_.end(), 0);
  seal_slot(gcm_, rng_, plain_, slot);
}

void OramClient::open_block(const SealedSlot& slot, size_t decrypt_len) {
  if (!open_slot(gcm_, slot, plain_, decrypt_len)) {
    throw IntegrityError("oram: slot authentication failed");
  }
}

BlockId OramClient::plain_id() const {
  return u256::from_be_bytes(BytesView{plain_.data(), 32});
}

std::optional<Bytes> OramClient::read(const BlockId& id) {
  return access(id, nullptr);
}

void OramClient::write(const BlockId& id, BytesView data) {
  if (data.size() > server_.config().block_size) {
    throw UsageError("oram: block too large");
  }
  Bytes padded(data.begin(), data.end());
  padded.resize(server_.config().block_size, 0);
  access(id, &padded);
}

AccessAttempt OramClient::try_read(const BlockId& id) {
  try {
    return AccessAttempt{Status::kOk, read(id), 0};
  } catch (const IntegrityError&) {
    return AccessAttempt{Status::kAuthFailed, std::nullopt, 0};
  }
}

AccessAttempt OramClient::try_write(const BlockId& id, BytesView data) {
  try {
    write(id, data);
    return AccessAttempt{};
  } catch (const IntegrityError&) {
    return AccessAttempt{Status::kAuthFailed, std::nullopt, 0};
  }
}

std::optional<Bytes> OramClient::access_remove(const BlockId& id) {
  return access(id, nullptr, nullptr, /*remove=*/true);
}

void OramClient::adopt(const BlockId& id, Bytes data) {
  const size_t block_size = server_.config().block_size;
  if (data.size() > block_size) throw UsageError("oram: block too large");
  data.resize(block_size, 0);
  const uint64_t leaf = rng_.uniform(server_.leaf_count());
  position_[id] = leaf;
  stash_[id] = StashEntry{std::move(data), leaf};
  stash_high_water_ = std::max(stash_high_water_, stash_.size());
  if (stash_.size() > server_.config().max_stash_blocks) stash_overflowed_ = true;
}

std::optional<Bytes> OramClient::read_modify_write(
    const BlockId& id, const std::function<Bytes(std::optional<Bytes>)>& mutate) {
  return access(id, nullptr, &mutate);
}

void OramClient::bulk_restore(const std::vector<std::pair<BlockId, Bytes>>& pages) {
  if (!position_.empty() || !stash_.empty()) {
    throw UsageError("oram: bulk_restore requires a fresh client");
  }
  const size_t z = server_.config().bucket_capacity;
  const size_t depth = server_.depth();
  const size_t block_size = server_.config().block_size;
  const uint64_t leaf_count = server_.leaf_count();
  const size_t buckets = 2 * leaf_count - 1;

  // Plan placement locally: deepest non-full bucket on the page's (fresh)
  // path, stash as the overflow of last resort.
  std::vector<std::vector<const std::pair<BlockId, Bytes>*>> bucket_blocks(buckets);
  for (const auto& page : pages) {
    if (page.second.size() > block_size) throw UsageError("oram: block too large");
    const uint64_t leaf = rng_.uniform(leaf_count);
    position_[page.first] = leaf;
    bool placed = false;
    for (size_t level_plus_1 = depth + 1; level_plus_1 > 0 && !placed; --level_plus_1) {
      const size_t bucket = ((leaf_count + leaf) >> (depth - (level_plus_1 - 1))) - 1;
      if (bucket_blocks[bucket].size() < z) {
        bucket_blocks[bucket].push_back(&page);
        placed = true;
      }
    }
    if (!placed) {
      Bytes padded = page.second;
      padded.resize(block_size, 0);
      stash_.emplace(page.first, StashEntry{std::move(padded), leaf});
    }
  }
  stash_high_water_ = std::max(stash_high_water_, stash_.size());
  if (stash_.size() > server_.config().max_stash_blocks) stash_overflowed_ = true;

  // Seal each real page exactly once and install the tree in one shot.
  // Unfilled slots stay empty-ciphertext — the same "never written" state a
  // fresh tree has, which every access already treats as a dummy.
  std::vector<SealedSlot> slots(buckets * z);
  for (size_t bucket = 0; bucket < buckets; ++bucket) {
    for (size_t slot = 0; slot < bucket_blocks[bucket].size(); ++slot) {
      const auto* page = bucket_blocks[bucket][slot];
      seal_block(page->first, page->second, slots[bucket * z + slot]);
    }
  }
  server_.load_slots(std::move(slots));
}

std::optional<Bytes> OramClient::access(
    const BlockId& id, const Bytes* new_data,
    const std::function<Bytes(std::optional<Bytes>)>* mutate, bool remove) {
  if (access_hook_) access_hook_();

  const auto pos_it = position_.find(id);
  const bool known = pos_it != position_.end();
  if (!known && new_data == nullptr && mutate == nullptr) {
    dummy_access();
    return std::nullopt;
  }

  const uint64_t leaf = known ? pos_it->second : rng_.uniform(server_.leaf_count());

  // 1. Read the path and pull every real block into the stash.
  read_path_into_stash(leaf);

  if (remove) {
    // Out-migration: forget the block after pulling it off the path. The
    // server-visible traffic (one path read + rewrite) is identical to any
    // other access — only the trusted-side maps change.
    auto removed = stash_.find(id);
    if (removed == stash_.end()) {
      throw IntegrityError("oram: mapped block missing");
    }
    std::optional<Bytes> result = std::move(removed->second.data);
    stash_.erase(removed);
    position_.erase(id);
    evict_along_path(leaf);
    return result;
  }

  // 2. Remap the requested block to a fresh uniformly random leaf.
  const uint64_t new_leaf = rng_.uniform(server_.leaf_count());
  position_[id] = new_leaf;
  if (new_data != nullptr && install_hook_) install_hook_(id, *new_data, new_leaf);

  std::optional<Bytes> result;
  auto stash_it = stash_.find(id);
  if (stash_it != stash_.end()) {
    result = stash_it->second.data;
    stash_it->second.leaf = new_leaf;
    if (new_data != nullptr) stash_it->second.data = *new_data;
    if (mutate != nullptr) {
      Bytes updated = (*mutate)(result);
      updated.resize(server_.config().block_size, 0);
      stash_it->second.data = std::move(updated);
    }
  } else if (new_data != nullptr) {
    stash_.emplace(id, StashEntry{*new_data, new_leaf});
  } else if (mutate != nullptr) {
    Bytes created = (*mutate)(std::nullopt);
    created.resize(server_.config().block_size, 0);
    stash_.emplace(id, StashEntry{std::move(created), new_leaf});
  } else {
    // Known position but block not found on path or stash: data loss.
    throw IntegrityError("oram: mapped block missing");
  }

  stash_high_water_ = std::max(stash_high_water_, stash_.size());
  if (stash_.size() > server_.config().max_stash_blocks) stash_overflowed_ = true;

  // 3. Evict: greedily push stash blocks as deep as possible along this path.
  evict_along_path(leaf);
  return result;
}

void OramClient::dummy_access() {
  // Reading an unknown id must still look like a normal access: fetch and
  // rewrite a random path, otherwise absent keys would be distinguishable by
  // the missing traffic. A dummy slot reseals as the canonical dummy, so only
  // its id is decrypted; a real block is opened in full and resealed as is.
  const uint64_t leaf = rng_.uniform(server_.leaf_count());
  server_.read_path(leaf, path_);
  for (SealedSlot& slot : path_) {
    if (!slot.ciphertext.empty()) {  // empty: a never-written slot
      open_block(slot, 32);
      if (plain_id() != kDummyId) {
        open_block(slot, crypto::kWholeMessage);
        seal_slot(gcm_, rng_, plain_, slot);
        continue;
      }
    }
    seal_block(kDummyId, BytesView{}, slot);
  }
  server_.write_path(leaf, path_);
}

void OramClient::read_path_into_stash(uint64_t leaf) {
  server_.read_path(leaf, path_);
  // First pass: verify every slot, decrypting only its id, and pick the
  // blocks the stash takes. A tampered slot anywhere on the path throws
  // here, before the stash has changed.
  stash_bound_.clear();
  for (size_t i = 0; i < path_.size(); ++i) {
    if (path_[i].ciphertext.empty()) continue;  // uninitialized slot
    open_block(path_[i], 32);
    const BlockId slot_id = plain_id();
    if (slot_id == kDummyId) continue;
    if (!position_.contains(slot_id)) continue;  // stale copy of an id that moved
    if (stash_.contains(slot_id)) continue;      // newer copy already stashed
    stash_bound_.push_back(i);
  }
  // Second pass: open those blocks in full.
  for (const size_t i : stash_bound_) {
    open_block(path_[i], crypto::kWholeMessage);
    const BlockId slot_id = plain_id();
    const auto [entry, inserted] = stash_.try_emplace(slot_id);
    if (!inserted) continue;  // an earlier copy on this path was stashed
    entry->second.data.assign(plain_.begin() + 32, plain_.end());
    entry->second.leaf = position_.at(slot_id);
  }
}

void OramClient::evict_along_path(uint64_t leaf) {
  const size_t depth = server_.depth();
  const size_t z = server_.config().bucket_capacity;

  // Deepest level first.
  for (size_t level_plus_1 = depth + 1; level_plus_1 > 0; --level_plus_1) {
    const size_t level = level_plus_1 - 1;
    size_t filled = 0;
    const uint64_t path_prefix = (server_.leaf_count() + leaf) >> (depth - level);
    for (auto it = stash_.begin(); it != stash_.end() && filled < z;) {
      const uint64_t block_prefix =
          (server_.leaf_count() + it->second.leaf) >> (depth - level);
      if (block_prefix == path_prefix) {
        seal_block(it->first, it->second.data, path_[level * z + filled]);
        ++filled;
        it = stash_.erase(it);
      } else {
        ++it;
      }
    }
    for (; filled < z; ++filled) seal_block(kDummyId, BytesView{}, path_[level * z + filled]);
  }
  server_.write_path(leaf, path_);
}

}  // namespace hardtape::oram
