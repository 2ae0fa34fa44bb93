#include "pagedstore/buffer_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace hardtape::pagedstore {

struct BufferPool::Instruments {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& dirty_writebacks;
  obs::Counter& exhausted;
  obs::Histogram& evict_scan;
  obs::Gauge& resident;
  obs::Gauge& pinned;
  obs::Gauge& peak_resident_bytes;

  Instruments(obs::Registry& r, const std::string& p)
      : hits(r.counter(p + "_pool_hits", "buffer pool hits")),
        misses(r.counter(p + "_pool_misses", "buffer pool misses")),
        evictions(r.counter(p + "_pool_evictions", "frames evicted")),
        dirty_writebacks(
            r.counter(p + "_pool_dirty_writebacks", "dirty frames flushed on eviction")),
        exhausted(r.counter(p + "_pool_exhausted", "fail-closed pool exhaustions")),
        evict_scan(r.histogram(p + "_pool_evict_scan",
                               "pinned frames skipped per eviction (stall signal)")),
        resident(r.gauge(p + "_pool_resident_pages", "frames resident")),
        pinned(r.gauge(p + "_pool_pinned_pages", "frames pinned")),
        peak_resident_bytes(
            r.gauge(p + "_pool_peak_resident_bytes", "payload-byte high water")) {}
};

BufferPool::BufferPool(size_t capacity_pages, WritebackFn writeback,
                       obs::Registry* registry, const std::string& prefix)
    : capacity_(capacity_pages), writeback_(std::move(writeback)) {
  if (capacity_ == 0) throw UsageError("pagedstore: zero buffer pool capacity");
  if (registry != nullptr) {
    instruments_ = std::make_unique<Instruments>(*registry, prefix);
  }
}

BufferPool::~BufferPool() = default;

// ---------------------------------------------------------------------------
// PageRef
// ---------------------------------------------------------------------------

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& o) noexcept {
  if (this != &o) {
    release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    o.pool_ = nullptr;
    o.frame_ = nullptr;
  }
  return *this;
}

const u256& BufferPool::PageRef::id() const {
  if (frame_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  return frame_->id;
}

Bytes& BufferPool::PageRef::data() {
  if (frame_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  return frame_->payload;
}

const Bytes& BufferPool::PageRef::data() const {
  if (frame_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  return frame_->payload;
}

void BufferPool::PageRef::mark_dirty() {
  if (frame_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  frame_->dirty = true;
}

bool BufferPool::PageRef::dirty() const {
  if (frame_ == nullptr) throw UsageError("pagedstore: empty PageRef");
  return frame_->dirty;
}

void BufferPool::PageRef::release() {
  if (frame_ != nullptr) pool_->unpin(frame_);
  pool_ = nullptr;
  frame_ = nullptr;
}

void BufferPool::unpin(Frame* frame) {
  std::lock_guard lock(mu_);
  --frame->pins;
  if (frame->pins == 0) --stats_.pinned;
  if (instruments_) instruments_->pinned.set(static_cast<double>(stats_.pinned));
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

void BufferPool::note_resident_locked() {
  stats_.resident = frames_.size();
  stats_.peak_resident_bytes = std::max(stats_.peak_resident_bytes, resident_bytes_);
  if (instruments_) {
    instruments_->resident.set(static_cast<double>(stats_.resident));
    instruments_->peak_resident_bytes.set(
        static_cast<double>(stats_.peak_resident_bytes));
  }
}

void BufferPool::evict_locked(const u256& id) {
  const auto it = frames_.find(id);
  Frame& frame = *it->second;
  if (frame.dirty) {
    writeback_(frame.id, frame.payload);
    ++stats_.dirty_writebacks;
    if (instruments_) instruments_->dirty_writebacks.add();
  }
  resident_bytes_ -= frame.payload.size();
  lru_.erase(frame.lru_pos);
  frames_.erase(it);
  ++stats_.evictions;
  if (instruments_) instruments_->evictions.add();
}

void BufferPool::make_room_locked() {
  if (frames_.size() < capacity_) return;
  // Walk from the cold end; every pinned frame skipped is an eviction stall.
  uint64_t skipped = 0;
  for (const u256& candidate : lru_) {
    const Frame& frame = *frames_.at(candidate);
    if (frame.pins > 0) {
      ++skipped;
      continue;
    }
    if (instruments_) instruments_->evict_scan.observe(skipped);
    evict_locked(candidate);
    note_resident_locked();
    return;
  }
  ++stats_.exhausted;
  if (instruments_) {
    instruments_->exhausted.add();
    instruments_->evict_scan.observe(skipped);
  }
  throw PoolExhaustedError(
      "pagedstore: buffer pool exhausted — all " + std::to_string(capacity_) +
      " frames pinned; refusing to overcommit past buffer_pool_pages");
}

BufferPool::PageRef BufferPool::fetch(const u256& id,
                                      const std::function<Bytes()>& load) {
  std::lock_guard lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    ++stats_.misses;
    if (instruments_) instruments_->misses.add();
    make_room_locked();
    Bytes payload = load();
    auto frame = std::make_unique<Frame>();
    frame->id = id;
    frame->payload = std::move(payload);
    frame->lru_pos = lru_.insert(lru_.end(), id);
    resident_bytes_ += frame->payload.size();
    it = frames_.emplace(id, std::move(frame)).first;
    note_resident_locked();
  } else {
    ++stats_.hits;
    if (instruments_) instruments_->hits.add();
    lru_.splice(lru_.end(), lru_, it->second->lru_pos);
  }
  Frame& frame = *it->second;
  if (frame.pins++ == 0) ++stats_.pinned;
  if (instruments_) instruments_->pinned.set(static_cast<double>(stats_.pinned));
  return PageRef{this, &frame};
}

BufferPool::PageRef BufferPool::insert(const u256& id, BytesView payload, bool dirty) {
  std::lock_guard lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    make_room_locked();
    auto frame = std::make_unique<Frame>();
    frame->id = id;
    frame->lru_pos = lru_.insert(lru_.end(), id);
    it = frames_.emplace(id, std::move(frame)).first;
  } else {
    resident_bytes_ -= it->second->payload.size();
    lru_.splice(lru_.end(), lru_, it->second->lru_pos);
  }
  Frame& frame = *it->second;
  frame.payload.assign(payload.begin(), payload.end());
  frame.dirty = dirty;
  resident_bytes_ += frame.payload.size();
  note_resident_locked();
  if (frame.pins++ == 0) ++stats_.pinned;
  if (instruments_) instruments_->pinned.set(static_cast<double>(stats_.pinned));
  return PageRef{this, &frame};
}

bool BufferPool::contains(const u256& id) const {
  std::lock_guard lock(mu_);
  return frames_.contains(id);
}

void BufferPool::discard(const u256& id) {
  std::lock_guard lock(mu_);
  const auto it = frames_.find(id);
  if (it == frames_.end()) return;
  if (it->second->pins > 0) {
    throw UsageError("pagedstore: discard of a pinned frame");
  }
  resident_bytes_ -= it->second->payload.size();
  lru_.erase(it->second->lru_pos);
  frames_.erase(it);
  note_resident_locked();
}

std::vector<u256> BufferPool::dirty_ids() const {
  std::lock_guard lock(mu_);
  std::vector<u256> out;
  for (const auto& [id, frame] : frames_) {
    if (frame->dirty) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BufferPool::writeback(const u256& id) {
  std::lock_guard lock(mu_);
  const auto it = frames_.find(id);
  if (it == frames_.end() || !it->second->dirty) return;
  writeback_(it->second->id, it->second->payload);
  it->second->dirty = false;
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace hardtape::pagedstore
