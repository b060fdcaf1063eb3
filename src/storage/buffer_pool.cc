#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "storage/storage_metrics.h"
#include "util/logging.h"

namespace ode {

const char* PageHandle::data() const {
  assert(valid());
  return frame_->data.get();
}

char* PageHandle::mutable_data() {
  assert(valid());
  return pool_->FrameMutableData(frame_);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    int prev = frame_->pin_count.fetch_sub(1, std::memory_order_release);
    assert(prev > 0);
    (void)prev;
    pool_ = nullptr;
    frame_ = nullptr;
    id_ = kInvalidPageId;
  }
}

namespace {

size_t PickShardCount(size_t capacity_pages, size_t requested) {
  // Explicit requests are rounded down to a power of two so shard selection
  // can mask instead of divide.
  if (requested != 0) {
    size_t p = 1;
    while (p * 2 <= requested) p *= 2;
    return p;
  }
  size_t shards = 1;
  while (shards < 16 && capacity_pages / (shards * 2) >= 64) shards *= 2;
  return shards;
}

}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t capacity_pages, size_t shards)
    : disk_(disk), capacity_(capacity_pages) {
  assert(capacity_ >= 1);
  const size_t n = PickShardCount(capacity_pages, shards);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    // Distribute the budget; every shard gets at least one frame.
    shard->capacity = (capacity_pages + n - 1) / n;
    if (shard->capacity == 0) shard->capacity = 1;
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() = default;

BufferPool::Shard& BufferPool::ShardFor(PageId id) {
  // Mask, not modulo: shard counts are powers of two, and consecutive page
  // ids spread round-robin so no shard is stranded.
  return *shards_[id & shard_mask_];
}

StatusOr<PageHandle> BufferPool::Fetch(PageId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    ++shard.stats.hits;
    Frame& frame = it->second;
    frame.pin_count.fetch_add(1, std::memory_order_relaxed);
    TouchLru(shard, &frame);
    return PageHandle(this, &frame, id);
  }
  ++shard.stats.misses;
  ODE_RETURN_IF_ERROR(EvictOneIfNeeded(shard));
  // The disk read happens under the shard lock: concurrent fetches of the
  // same page must not race, and fetches in other shards proceed unblocked.
  auto [ins_it, inserted] = shard.frames.try_emplace(id);
  assert(inserted);
  (void)inserted;
  Frame& frame = ins_it->second;
  frame.id = id;
  frame.data = std::make_unique<char[]>(kPageSize);
  {
    ScopedLatency timer(metrics_ != nullptr ? metrics_->page_read_ns
                                            : nullptr);
    if (Status s = disk_->ReadPage(id, frame.data.get()); !s.ok()) {
      shard.frames.erase(ins_it);
      return s;
    }
  }
  if (metrics_ != nullptr) metrics_->page_reads->Increment();
  frame.pin_count.store(1, std::memory_order_relaxed);
  TouchLru(shard, &frame);
  return PageHandle(this, &frame, id);
}

char* BufferPool::FrameMutableData(Frame* frame) {
  // Writer-side only, but the dirty flags are shared with reader-side
  // eviction, so flip them under the shard lock.
  Shard& shard = ShardFor(frame->id);
  MutexLock lock(shard.mu);
  if (!frame->epoch_dirty) {
    if (pre_dirty_hook_) {
      pre_dirty_hook_(frame->id, frame->data.get(), frame->dirty);
    }
    frame->epoch_dirty = true;
    epoch_dirty_list_.push_back(frame->id);
  }
  frame->dirty = true;
  // Stamped before the caller writes through the returned pointer, so a
  // checkpoint copy taken earlier can never be mistaken for current.
  frame->mod_stamp = ++shard.last_mod_stamp;
  return frame->data.get();
}

void BufferPool::BeginEpoch() {
  for (PageId id : epoch_dirty_list_) {
    Shard& shard = ShardFor(id);
    MutexLock lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) it->second.epoch_dirty = false;
  }
  epoch_dirty_list_.clear();
  in_epoch_ = true;
}

Status BufferPool::RestorePage(PageId id, const char* image, bool dirty) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) {
    return Status::Internal("RestorePage: page not resident");
  }
  std::memcpy(it->second.data.get(), image, kPageSize);
  it->second.dirty = dirty;
  it->second.epoch_dirty = false;
  it->second.mod_stamp = ++shard.last_mod_stamp;
  return Status::OK();
}

void BufferPool::CommitEpoch() {
  for (PageId id : epoch_dirty_list_) {
    Shard& shard = ShardFor(id);
    MutexLock lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) it->second.epoch_dirty = false;
  }
  epoch_dirty_list_.clear();
  in_epoch_ = false;
}

StatusOr<std::vector<PageCopy>> BufferPool::CopyDirtyPages() {
  if (in_epoch_ && !epoch_dirty_list_.empty()) {
    return Status::FailedPrecondition(
        "checkpoint copy during an open transaction");
  }
  std::vector<PageCopy> copies;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (const auto& [id, frame] : shard.frames) {
      if (frame.dirty) {
        copies.push_back(PageCopy{
            id, frame.mod_stamp, std::string(frame.data.get(), kPageSize)});
      }
    }
  }
  // Ascending page ids turn the checkpoint write into one forward sweep.
  std::sort(copies.begin(), copies.end(),
            [](const PageCopy& a, const PageCopy& b) { return a.id < b.id; });
  return copies;
}

Status BufferPool::WriteCopies(const std::vector<PageCopy>& copies) {
  if (copies.empty()) return Status::OK();
  for (const PageCopy& copy : copies) {
    {
      ScopedLatency timer(metrics_ != nullptr ? metrics_->page_write_ns
                                              : nullptr);
      ODE_RETURN_IF_ERROR(disk_->WritePage(copy.id, copy.image.data()));
    }
    if (metrics_ != nullptr) metrics_->page_writes->Increment();
  }
  ODE_RETURN_IF_ERROR(disk_->Sync());
  for (const PageCopy& copy : copies) {
    Shard& shard = ShardFor(copy.id);
    MutexLock lock(shard.mu);
    ++shard.stats.flushes;
    auto it = shard.frames.find(copy.id);
    if (it != shard.frames.end() && it->second.mod_stamp == copy.mod_stamp) {
      it->second.dirty = false;
    }
  }
  return Status::OK();
}

void BufferPool::DropAllUnpinned() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      if (it->second.pin_count.load(std::memory_order_acquire) == 0) {
        if (it->second.in_lru) shard.lru.erase(it->second.lru_pos);
        it = shard.frames.erase(it);
      } else {
        ++it;
      }
    }
  }
}

BufferPoolStats BufferPool::stats() const {
  // Counters live per shard (bumped under that shard's mutex, so Fetch pays
  // no atomic RMW for accounting); summing under each lock yields a snapshot
  // covering every operation that completed before this call.
  BufferPoolStats out;
  for (const auto& shard_ptr : shards_) {
    MutexLock lock(shard_ptr->mu);
    const BufferPoolStats& s = shard_ptr->stats;
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.flushes += s.flushes;
  }
  return out;
}

size_t BufferPool::resident_pages() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    MutexLock lock(shard_ptr->mu);
    total += shard_ptr->frames.size();
  }
  return total;
}

Status BufferPool::EvictOneIfNeeded(Shard& shard) {
  // Evicts until the shard is back under capacity.  Single-threaded the loop
  // runs at most once per fetch (the shard never overgrows), preserving the
  // classic LRU eviction counts; after a concurrent pin storm forced the
  // shard past capacity, the next fetch drains the whole overage here.
  while (shard.frames.size() >= shard.capacity) {
    // Scan from least recently used; skip pinned or dirty frames (dirty
    // pages are only written by the checkpoint, never by eviction).  The
    // acquire load of pin_count pairs with the release fetch_sub in
    // PageHandle::Release, so a frame observed unpinned is truly done being
    // read.
    bool evicted = false;
    for (auto rit = shard.lru.rbegin(); rit != shard.lru.rend(); ++rit) {
      auto it = shard.frames.find(*rit);
      assert(it != shard.frames.end());
      Frame& frame = it->second;
      if (frame.pin_count.load(std::memory_order_acquire) == 0 &&
          !frame.dirty) {
        shard.lru.erase(std::next(rit).base());
        shard.frames.erase(it);
        ++shard.stats.evictions;
        evicted = true;
        break;
      }
    }
    if (!evicted) {
      // Everything pinned or dirty: grow beyond nominal capacity.
      ODE_LOG_DEBUG << "buffer pool shard over capacity ("
                    << shard.frames.size() << " resident, shard capacity "
                    << shard.capacity << ")";
      break;
    }
  }
  return Status::OK();
}

void BufferPool::TouchLru(Shard& shard, Frame* frame) {
  if (frame->in_lru) shard.lru.erase(frame->lru_pos);
  shard.lru.push_front(frame->id);
  frame->lru_pos = shard.lru.begin();
  frame->in_lru = true;
}

}  // namespace ode
