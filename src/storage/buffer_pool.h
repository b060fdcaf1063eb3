#ifndef ODE_STORAGE_BUFFER_POOL_H_
#define ODE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace ode {

class BufferPool;
struct StorageMetrics;

/// RAII pin on a cached page frame.
///
/// While a PageHandle is alive the frame cannot be evicted.  `data()` gives
/// read access; `mutable_data()` additionally marks the page dirty, which (on
/// the first modification within the current epoch, i.e., transaction) fires
/// the pool's pre-dirty hook so the transaction layer can capture an undo
/// image.
///
/// The handle caches the frame pointer, so `data()` and `Release()` are
/// lock-free: unordered_map guarantees element address stability and a pinned
/// frame is never evicted, so the pointer stays valid for the handle's
/// lifetime.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& other) noexcept { MoveFrom(other); }
  PageHandle& operator=(PageHandle&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~PageHandle() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  const char* data() const;
  /// Returns writable page bytes, marking the page dirty.  Writer-side only.
  char* mutable_data();

  /// Drops the pin early.
  void Release();

 private:
  friend class BufferPool;
  struct Frame;
  PageHandle(BufferPool* pool, Frame* frame, PageId id)
      : pool_(pool), frame_(frame), id_(id) {}
  void MoveFrom(PageHandle& other) {
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
    other.id_ = kInvalidPageId;
  }

  BufferPool* pool_ = nullptr;
  Frame* frame_ = nullptr;
  PageId id_ = kInvalidPageId;
};

/// One cached page.  Frames live in a shard's unordered_map, whose elements
/// have stable addresses, so PageHandle can hold a raw Frame* across its
/// lifetime.  `pin_count` is atomic: handles release pins without taking the
/// shard lock, and eviction (which does hold the lock) acquire-loads it.
/// The dirty/LRU fields are only read or written under the owning shard's
/// mutex — a guard relationship that spans objects, which the static
/// analysis cannot express (ODE_GUARDED_BY can only name a field of the
/// same class), so it is enforced by review plus the TSan Concurrent suite.
struct PageHandle::Frame {
  PageId id = kInvalidPageId;
  std::unique_ptr<char[]> data;
  std::atomic<int> pin_count{0};
  bool dirty = false;        // Differs from the data file.
  bool epoch_dirty = false;  // Modified in the current epoch.
  /// Shard-wide stamp of the latest modification (or abort restore): a
  /// checkpoint marks the frame clean only if the stamp still equals the
  /// one its copy was taken at.
  uint64_t mod_stamp = 0;
  std::list<PageId>::iterator lru_pos;
  bool in_lru = false;
};

/// One dirty page's image, copied under the engine's exclusive apply latch so
/// a checkpoint can write it to the data file after releasing the latch.
struct PageCopy {
  PageId id = kInvalidPageId;
  uint64_t mod_stamp = 0;  ///< The frame's mod_stamp at copy time.
  std::string image;       ///< kPageSize bytes.
};

/// Cache statistics (cumulative since construction).  Returned by value as a
/// coherent snapshot of the pool's per-shard counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
};

/// Sharded LRU page cache over a DiskManager.
///
/// Policy choices, driven by the WAL design (redo logging of page
/// after-images, no-steal for uncommitted pages):
///  - Dirty frames are NEVER written back by eviction; only the checkpoint
///    writes pages, in two steps.  CopyDirtyPages() runs under the engine's
///    exclusive latch and copies every dirty frame, which stays dirty.
///    WriteCopies() runs outside the latch: it writes the copies, fsyncs the
///    data file, and only then marks a frame clean — and only if nothing
///    modified it since its copy.  A frame whose image is not yet durable in
///    the data file is therefore never evicted and re-read stale.  If every
///    frame is pinned or dirty the pool grows past its nominal capacity
///    rather than fail.
///  - An "epoch" corresponds to one transaction.  The first time a frame is
///    dirtied within an epoch the pre-dirty hook runs with the frame's
///    current contents, letting the transaction capture an undo image for
///    abort.
///
/// Concurrency contract (single-writer / multi-reader):
///  - Fetch(), data(), Release() and stats() may be called from any number
///    of reader threads concurrently.  The frame table and LRU are
///    partitioned into shards, each guarded by its own mutex (annotated
///    below, so `clang -Wthread-safety` proves every access), so concurrent
///    fetches of pages in different shards never contend.  Pin counts are
///    atomic, making handle release lock-free.
///  - Everything that mutates page contents or epoch state (mutable_data,
///    BeginEpoch/CommitEpoch, RestorePage, CopyDirtyPages, DropAllUnpinned,
///    set_pre_dirty_hook) is writer-side: the caller (StorageEngine) must
///    ensure no reader runs concurrently, which it does with an engine-level
///    shared mutex.  Shard locks are still taken where those paths touch
///    shard structures so reader-vs-writer metadata access stays ordered.
///  - WriteCopies() may run concurrently with readers and with a writer: it
///    reads only its own copies and touches frames' dirty flags under the
///    shard locks.  Callers serialize WriteCopies calls among themselves.
class BufferPool {
 public:
  /// Called with (page id, pre-modification bytes, was already dirty from an
  /// earlier epoch) on the first modification of a page in this epoch.
  using PreDirtyHook =
      std::function<void(PageId, const char* data, bool was_dirty)>;

  /// `shards` = 0 picks automatically: the largest power of two <= 16 that
  /// keeps at least 64 pages per shard.  Small pools therefore collapse to a
  /// single shard and behave exactly like the classic single-structure LRU
  /// (same eviction order and counts), which exact-count tests rely on.
  /// Explicit counts are rounded down to a power of two.
  BufferPool(DiskManager* disk, size_t capacity_pages, size_t shards = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on a miss.  Thread-safe.
  StatusOr<PageHandle> Fetch(PageId id);

  /// Begins a new dirty-tracking epoch (call at transaction start).
  void BeginEpoch();

  /// Pages first dirtied in the current epoch, in dirtying order.
  const std::vector<PageId>& EpochDirtyPages() const {
    return epoch_dirty_list_;
  }

  /// Overwrites the cached frame of `id` with `image` and sets its dirty flag
  /// to `dirty` (transaction abort path).  The page must be resident.
  Status RestorePage(PageId id, const char* image, bool dirty);

  /// Marks every epoch-dirty page as plain-dirty (commit path: the epoch's
  /// undo images are no longer needed, but pages still await a checkpoint
  /// flush).
  void CommitEpoch();

  /// Checkpoint step 1: copies every dirty frame's image, sorted by page id.
  /// The frames stay dirty.  Must not be called mid-transaction (checked).
  StatusOr<std::vector<PageCopy>> CopyDirtyPages();

  /// Checkpoint step 2: writes `copies` to the data file and fsyncs it, then
  /// marks each copied frame clean unless it was modified (or restored by
  /// an abort) since its copy.  On error no frame is marked clean.
  Status WriteCopies(const std::vector<PageCopy>& copies);

  /// Drops every unpinned frame (clean or dirty) without writing.  Used by
  /// recovery tests to force re-reads from disk.
  void DropAllUnpinned();

  void set_pre_dirty_hook(PreDirtyHook hook) { pre_dirty_hook_ = std::move(hook); }

  /// Attaches the owning engine's instrument bundle: disk reads on misses
  /// and checkpoint writes get counted and timed.  The hit/miss/eviction
  /// counters stay per-shard (see stats()) and are mirrored into the
  /// registry only at snapshot time, keeping Fetch free of extra atomics.
  void set_metrics(StorageMetrics* metrics) { metrics_ = metrics; }

  /// Coherent snapshot of the cumulative counters.  Thread-safe.
  BufferPoolStats stats() const;
  /// Total resident frames across all shards.  Thread-safe.
  size_t resident_pages() const;
  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }
  bool in_epoch() const { return in_epoch_; }

 private:
  friend class PageHandle;
  using Frame = PageHandle::Frame;

  /// One latch-partition of the pool: a slice of the frame table plus its
  /// own LRU list, guarded by a single mutex.
  struct Shard {
    Mutex mu;
    std::unordered_map<PageId, Frame> frames ODE_GUARDED_BY(mu);
    std::list<PageId> lru ODE_GUARDED_BY(mu);  // Front = most recently used.
    size_t capacity = 0;  // Nominal frame budget; immutable after init.
    BufferPoolStats stats ODE_GUARDED_BY(mu);
    uint64_t last_mod_stamp ODE_GUARDED_BY(mu) = 0;  // See Frame::mod_stamp.
  };

  Shard& ShardFor(PageId id);
  char* FrameMutableData(Frame* frame);
  Status EvictOneIfNeeded(Shard& shard) ODE_REQUIRES(shard.mu);
  void TouchLru(Shard& shard, Frame* frame) ODE_REQUIRES(shard.mu);

  DiskManager* disk_;
  size_t capacity_;
  size_t shard_mask_ = 0;  // shard count - 1 (count is a power of two).
  std::vector<std::unique_ptr<Shard>> shards_;
  // Writer-side epoch state: only touched between BeginEpoch/CommitEpoch
  // while the engine holds its exclusive lock.
  std::vector<PageId> epoch_dirty_list_;
  bool in_epoch_ = false;
  PreDirtyHook pre_dirty_hook_;
  StorageMetrics* metrics_ = nullptr;
};

}  // namespace ode

#endif  // ODE_STORAGE_BUFFER_POOL_H_
