// Fixed-capacity LRU buffer pool with a pin/unpin discipline (DESIGN.md §16).
//
// The pool is the ONLY place page payloads are allowed to be RAM-resident:
// `capacity_pages` is a hard cap, which makes memory pressure a first-class
// fault domain instead of a silent overcommit. The rules, each enforced and
// property-tested (tests/pagedstore_test.cpp):
//
//  - a frame with live PageRef pins is NEVER evicted — in-flight ORAM walks
//    and trie proofs hold their pages while eviction proceeds around them;
//  - the victim is always the least-recently-used UNPINNED frame (pinned
//    frames skipped during the scan are recorded in the `evict_scan`
//    histogram — the eviction-stall signal);
//  - when every frame is pinned and one more page is needed, the pool FAILS
//    CLOSED with PoolExhaustedError rather than growing past the cap: a
//    working set of pins larger than the budget is a sizing bug the operator
//    must see, not paper over.
//
// A dirty frame is written back through the owner-supplied callback before
// its frame is reused, so eviction never loses data. Thread-safe: one mutex
// held for every operation including load/writeback callbacks (they touch
// SimFs, which has its own lock — no re-entry into the pool is allowed from
// either). Payload access through a PageRef is unlocked — the pin itself is
// what keeps the frame stable.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "common/u256.hpp"

namespace hardtape::obs {
class Registry;
}

namespace hardtape::pagedstore {

/// All frames pinned and another page needed: the hard `buffer_pool_pages`
/// cap refuses to stretch. Fail-closed by design.
class PoolExhaustedError : public HardtapeError {
 public:
  using HardtapeError::HardtapeError;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;     ///< evictions that flushed a dirty frame
  uint64_t exhausted = 0;            ///< PoolExhaustedError throws
  uint64_t peak_resident_bytes = 0;  ///< high-water of summed payload bytes
  size_t resident = 0;
  size_t pinned = 0;
};

class BufferPool {
 private:
  struct Frame;

 public:
  /// Writes a dirty frame's payload back to stable storage (called with the
  /// pool lock held; must not re-enter the pool).
  using WritebackFn = std::function<void(const u256& id, const Bytes& payload)>;

  /// `registry` (optional) exports pool counters plus the eviction-stall
  /// histogram under "<prefix>_pool_*".
  BufferPool(size_t capacity_pages, WritebackFn writeback,
             obs::Registry* registry = nullptr,
             const std::string& prefix = "pagedstore");
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin. While any PageRef to a frame is alive the frame cannot be
  /// evicted; destruction (or release()) unpins.
  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&& o) noexcept { *this = std::move(o); }
    PageRef& operator=(PageRef&& o) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef() { release(); }

    explicit operator bool() const { return frame_ != nullptr; }
    const u256& id() const;
    /// Mutable payload access; call mark_dirty() after modifying.
    Bytes& data();
    const Bytes& data() const;
    void mark_dirty();
    bool dirty() const;
    void release();

   private:
    friend class BufferPool;
    PageRef(BufferPool* pool, Frame* frame) : pool_(pool), frame_(frame) {}
    BufferPool* pool_ = nullptr;
    Frame* frame_ = nullptr;
  };

  /// Pins the page, loading it via `load` on a miss. Eviction may run first
  /// to make room; throws PoolExhaustedError when every frame is pinned.
  PageRef fetch(const u256& id, const std::function<Bytes()>& load);
  /// Inserts (or overwrites) a page and pins it. An overwrite copies into
  /// the frame's existing buffer.
  PageRef insert(const u256& id, BytesView payload, bool dirty);
  bool contains(const u256& id) const;
  /// Drops the frame, discarding dirty contents (the caller is rolling
  /// back). The frame must be unpinned; no-op when absent.
  void discard(const u256& id);

  /// Ids of all dirty frames, in id order (deterministic flush order).
  std::vector<u256> dirty_ids() const;
  /// Writes back one dirty frame and marks it clean; no-op if absent/clean.
  void writeback(const u256& id);

  size_t capacity() const { return capacity_; }
  BufferPoolStats stats() const;

 private:
  struct Frame {
    u256 id{};
    Bytes payload;
    bool dirty = false;
    uint32_t pins = 0;
    std::list<u256>::iterator lru_pos;
  };

  /// Frees one frame if at capacity. Throws PoolExhaustedError when every
  /// frame is pinned. Caller holds the lock.
  void make_room_locked();
  void evict_locked(const u256& id);
  void note_resident_locked();
  void unpin(Frame* frame);

  const size_t capacity_;
  WritebackFn writeback_;

  mutable std::mutex mu_;
  std::unordered_map<u256, std::unique_ptr<Frame>, U256Hasher> frames_;
  std::list<u256> lru_;  ///< front = coldest
  uint64_t resident_bytes_ = 0;
  BufferPoolStats stats_;

  // Optional exported instruments (stable Registry refs; null without one).
  struct Instruments;
  std::unique_ptr<Instruments> instruments_;
};

}  // namespace hardtape::pagedstore
