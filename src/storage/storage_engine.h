#ifndef ODE_STORAGE_STORAGE_ENGINE_H_
#define ODE_STORAGE_STORAGE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/group_commit.h"
#include "storage/heap_file.h"
#include "storage/page_io.h"
#include "storage/payload_store.h"
#include "storage/storage_metrics.h"
#include "storage/wal.h"
#include "storage/write_latch.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace ode {

class StorageEngine;

/// The engine's durability frontier, for diagnostics dumps and invariant
/// checks.  Monotone under the group-commit contract:
/// durable_txn <= appended_txn <= enqueued_txn, and acked_txn (the highest
/// id whose Commit call may have returned OK) is durable_txn in kSync mode,
/// appended_txn in kAsync mode.
struct WalWatermarks {
  uint64_t enqueued_txn = 0;  ///< Handed to the group-commit queue.
  uint64_t appended_txn = 0;  ///< Written into the WAL file.
  uint64_t durable_txn = 0;   ///< Covered by an fsync.
  uint64_t acked_txn = 0;     ///< Acknowledged to callers (mode-dependent).
};

/// Summary verdict of StorageEngine::HealthCheck().  Ordered by badness so
/// callers (odedump health) can use the numeric value as an exit code.
enum class HealthState : int {
  kOk = 0,
  kDegraded = 1,
  kPoisoned = 2,
};

struct HealthReport {
  HealthState state = HealthState::kOk;
  /// Human-readable reason per degradation/poison (empty when ok).
  std::vector<std::string> reasons;
  uint64_t checkpointer_lag_us = 0;  ///< Now minus last checkpointer tick.
  uint64_t wal_backlog_bytes = 0;    ///< WAL bytes since last checkpoint.
  int64_t async_pending = 0;         ///< Acked-not-yet-durable commits.
};

const char* HealthStateName(HealthState s);

/// Tuning and environment knobs for a storage engine instance.
struct StorageOptions {
  /// Filesystem to use; nullptr means Env::Posix().
  Env* env = nullptr;
  /// Directory holding data file and WAL (created if missing).
  std::string path;
  /// Buffer pool capacity in pages (nominal; grows if all frames are
  /// pinned/dirty).
  size_t buffer_pool_pages = 1024;
  /// Buffer pool latch shards; 0 = auto (collapses to 1 for small pools).
  size_t buffer_pool_shards = 0;
  /// Background checkpoint once the WAL exceeds this many bytes.
  uint64_t checkpoint_wal_bytes = 8ull << 20;
  /// Stripes in the write-latch set exposed via write_latches() (must be a
  /// power of two >= 1).  The engine itself never takes these; the Database
  /// layer keys them by object id to order same-object writers ahead of the
  /// apply latch.
  size_t write_latch_stripes = 64;
  /// Most transactions one group-commit leader batches into a single
  /// append+fsync cycle (>= 1).
  size_t group_commit_max_batch = 64;
  /// Longest a leader lingers for more commits while another writer is
  /// mid-apply, in microseconds (0 disables lingering; a solo writer never
  /// lingers regardless).
  uint32_t group_commit_max_wait_us = 100;
  /// When Commit returns: after the fsync (kSync, full durability) or after
  /// the WAL append (kAsync, prefix durability — see CommitMode).
  CommitMode commit_mode = CommitMode::kSync;
  /// Registry the engine records its instruments into; nullptr means the
  /// engine owns a private registry (instruments always exist either way,
  /// so hot paths never null-check individual counters).
  MetricsRegistry* metrics = nullptr;
  /// Event tracer for storage spans (commit, fsync, checkpoint); nullptr
  /// disables span recording entirely.
  Tracer* tracer = nullptr;
  /// Structured event journal the engine records into (txn lifecycle,
  /// group-commit batches, checkpoints, poison, slow ops); nullptr disables
  /// journaling entirely.  Not owned.
  EventLog* event_log = nullptr;
  /// Slow-op thresholds in microseconds (0 = off).  A commit / checkpoint
  /// exceeding its threshold emits a kSlowOp journal record and an
  /// unconditional trace span (bypassing sampling), so the one operation
  /// that blew its deadline is always visible.
  uint32_t slow_commit_us = 0;
  uint32_t slow_checkpoint_us = 0;
  /// HealthCheck degrades when the WAL backlog exceeds this many bytes
  /// (the checkpointer is falling behind); 0 = auto, 4x
  /// checkpoint_wal_bytes.
  uint64_t health_max_wal_backlog_bytes = 0;
  /// HealthCheck degrades when the background checkpointer's heartbeat is
  /// older than this (it ticks every ~50ms when healthy).
  uint64_t health_max_checkpointer_lag_us = 10'000'000;
  /// Flight-recorder hook: fired at most once, from the background
  /// checkpointer thread, after the engine poisons itself (`trigger` is
  /// "poison").  The Database layer installs its diagnostics dump here.
  /// Must not call back into mutating engine APIs; the snapshot accessors
  /// (watermarks, stats, HealthCheck) are safe.
  std::function<void(const char* trigger)> on_diagnostics;
  /// Called under the exclusive apply latch as a write transaction opens /
  /// closes (`committed` tells which way).  The Database layer drives its
  /// cache epochs from these: within the latch, apply sections are strictly
  /// serialized even though durable-commit waits overlap.  Either may be
  /// null.  Must not call back into the engine.
  std::function<void()> on_apply_begin;
  std::function<void(bool committed)> on_apply_end;
};

/// One open write transaction.
///
/// Implements PageIO so data structures running inside the transaction
/// automatically get: undo capture on first modification of each page
/// (enabling abort), and redo logging at commit (enabling crash recovery):
/// the bytes that differ from the undo image, or the full page where the
/// WAL needs one.  Page allocation and freeing manipulate the superblock
/// through the same mechanism, so allocation state is transactional too.
class Txn : public PageIO {
 public:
  StatusOr<PageHandle> Fetch(PageId id) override;
  StatusOr<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  StatusOr<PageId> GetRoot(int slot) override;
  Status SetRoot(int slot, PageId id) override;
  StatusOr<uint64_t> GetCounter(int idx) override;
  Status SetCounter(int idx, uint64_t value) override;
  StatusOr<uint32_t> PageCount() override;
  StorageMetrics* metrics() override;

  uint64_t id() const { return id_; }

 private:
  friend class StorageEngine;
  Txn() = default;

  struct UndoImage {
    std::string image;  // kPageSize bytes captured before first modification.
    bool was_dirty;     // Dirty flag to restore on abort.
  };

  StorageEngine* engine_ = nullptr;
  uint64_t id_ = 0;
  bool active_ = false;
  std::map<PageId, UndoImage> undo_;
};

/// A lightweight read-only transaction: no undo map, no WAL interaction.
///
/// Implements PageIO so the same data structures (HeapFile reads, BTree
/// lookups) run unchanged on the read path; the mutating PageIO methods fail
/// with FailedPrecondition.  Superblock accessors use the const read view,
/// so a ReadTxn can never dirty a page.
///
/// ReadTxns are created by StorageEngine::WithReadTxn, which holds the
/// engine's shared lock for the duration: any number of ReadTxns run in
/// parallel, all excluded from the (single) apply section.
class ReadTxn : public PageIO {
 public:
  StatusOr<PageHandle> Fetch(PageId id) override;
  StatusOr<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  StatusOr<PageId> GetRoot(int slot) override;
  Status SetRoot(int slot, PageId id) override;
  StatusOr<uint64_t> GetCounter(int idx) override;
  Status SetCounter(int idx, uint64_t value) override;
  StatusOr<uint32_t> PageCount() override;
  StorageMetrics* metrics() override;

 private:
  friend class StorageEngine;
  explicit ReadTxn(StorageEngine* engine) : engine_(engine) {}

  StorageEngine* engine_;
};

/// The persistence substrate: a paged, WAL-protected, transactional store
/// offering a heap file for records and B+trees (via BTree::Open on a Txn)
/// for indexes — the role of the "persistence library for C++" [10] in the
/// paper's implementation section.
///
/// Concurrency: multi-writer through an exclusive APPLY latch plus a shared
/// GROUP-COMMIT queue; multi-reader through the shared side of the same
/// latch.  A write transaction holds the apply latch (rw_mutex_, exclusive)
/// only from Begin through the in-memory apply and the enqueue of its
/// serialized WAL records; Commit then RELEASES the latch and blocks in the
/// group-commit queue, where the first waiter elects itself leader and
/// batches every queued transaction into one WAL append sequence and a
/// single fsync.  Since the fsync dominates commit cost, independent writers
/// overlap where it matters: many transactions per fsync
/// (groupcommit.commits / groupcommit.fsyncs > 1 under concurrent load).
/// Enqueue order equals apply order, so any crash-surviving WAL prefix is a
/// prefix of the applied transactions — the classic early-lock-release
/// group-commit design.
///
/// Writers may call Begin from any number of threads: each blocks until the
/// apply latch frees (a second Begin on a thread that already holds an open
/// transaction fails instead of self-deadlocking).  A transaction must stay
/// on one thread from Begin to Commit/Abort.  Read-only work runs through
/// WithReadTxn under the shared side of the latch, so readers see only
/// fully applied states.  Because the pool is no-steal (dirty pages are
/// never flushed mid-transaction) and aborts restore undo images before the
/// latch releases, a shared-lock reader always observes a consistent state.
///
/// Dirty-page writing is the background checkpointer's job: a dedicated
/// thread checkpoints once the WAL passes checkpoint_wal_bytes (commits just
/// signal it) and, in kAsync mode, periodically fsyncs the un-synced WAL
/// tail so the async durability window stays bounded even when writers go
/// idle.  Checkpoints are fuzzy: the apply latch is held only to drain group
/// commit, copy the dirty pages and roll the WAL to its spare file; the page
/// writes, the data-file fsync and the old WAL file's truncate run with the
/// latch released (see Checkpoint).
class StorageEngine {
 public:
  static StatusOr<std::unique_ptr<StorageEngine>> Open(
      const StorageOptions& options);
  ~StorageEngine();

  /// Joins the background checkpointer and fires any still-pending
  /// diagnostics dump.  Idempotent; ~StorageEngine calls it, but an owner
  /// whose on_diagnostics hook walks the owner's own state must call it
  /// BEFORE tearing that state down — in particular, unique_ptr::reset
  /// nulls the owner's engine pointer before ~StorageEngine runs, so a
  /// dump fired from the destructor would re-enter the owner through a
  /// null pointer.
  void Shutdown();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Starts a write transaction, blocking until the exclusive apply latch is
  /// free.  Fails if this thread already has one open (cross-thread callers
  /// queue instead).
  StatusOr<Txn*> Begin();

  /// Commits: serializes a Begin record, one page record per dirtied page
  /// and a Commit record into one blob, enqueues it on the group-commit
  /// queue, releases the apply latch, then blocks until the records are
  /// fsynced (kSync) or appended (kAsync) — see CommitMode for the
  /// durability contract.
  Status Commit(Txn* txn);

  /// Rolls back: restores every dirtied page from its undo image, entirely
  /// under the apply latch (nothing was enqueued, so nothing can become
  /// durable).  Releases the latch.
  Status Abort(Txn* txn);

  /// Runs `body` inside a write transaction; commits on OK, aborts on error
  /// (and returns the body's error).
  Status WithTxn(const std::function<Status(Txn&)>& body);

  /// Runs `body` under the shared (reader) side of the engine lock.  Safe to
  /// call from any thread, including re-entrantly from inside another
  /// WithReadTxn on the same thread (the nested call reuses the outer shared
  /// lock instead of re-acquiring, which std::shared_mutex forbids).
  Status WithReadTxn(const std::function<Status(ReadTxn&)>& body);

  /// Writes every dirty page to the data file and retires the WAL records
  /// that covered them, in two phases:
  ///  - under the exclusive apply latch: drain group commit (so every
  ///    applied commit is fsync-durable), copy each dirty page, and roll WAL
  ///    appends to the spare file if it is empty;
  ///  - with the latch released: write the copies, fsync the data file, mark
  ///    unmodified frames clean, then truncate and fsync the old WAL file.
  /// Whole checkpoints are serialized by their own mutex.  If the second
  /// phase fails, the old WAL file keeps its records and the pages stay
  /// dirty; the next checkpoint rewrites them and retires that file without
  /// rolling.  Must not be called from a thread with an open transaction;
  /// blocks until concurrent writers leave the apply latch.
  Status Checkpoint();

  /// Blocks until every transaction with id <= txn_id whose commit was
  /// acknowledged is fsync-durable (the kAsync catch-up path; a no-op in
  /// kSync mode or for read-only transactions).  Pass UINT64_MAX to cover
  /// everything acknowledged so far.
  Status WaitForDurable(uint64_t txn_id);

  /// Record storage shared by all higher layers.
  HeapFile& heap() { return heap_; }

  /// Content-addressed blob index over heap(): identical payloads share one
  /// physical record, with refcounts (see payload_store.h).  Like heap(),
  /// stateless per-call — pass the current transaction's PageIO.
  PayloadStore& payload_store() { return payload_store_; }

  /// Object-keyed stripe latches for callers that must order logically
  /// conflicting writers BEFORE they queue for the apply latch (see
  /// WriteLatchSet; the engine itself never acquires these).
  WriteLatchSet& write_latches() { return *write_latches_; }

  CommitMode commit_mode() const { return options_.commit_mode; }

  /// Snapshot of the buffer pool counters.  Thread-safe.
  BufferPoolStats cache_stats() const { return pool_->stats(); }
  const RecoveryStats& last_recovery() const { return recovery_; }
  /// WAL bytes not yet retired by a checkpoint (both WAL files).
  uint64_t wal_bytes() const;
  /// Total WAL bytes ever appended this session (not reset by checkpoints).
  uint64_t wal_total_bytes() const;
  uint64_t commit_count() const {
    return commit_count_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoint_count() const {
    return checkpoint_count_.load(std::memory_order_relaxed);
  }
  /// Passes the background checkpointer has completed.  A pass consumes the
  /// pending signal and checkpoints if the WAL is over its threshold, so
  /// once this has advanced by two, a pass that began after the caller's
  /// last commit has finished.
  uint64_t checkpointer_passes() const {
    return checkpointer_passes_.load(std::memory_order_acquire);
  }
  BufferPool& buffer_pool() { return *pool_; }
  /// Pages the active WAL file holds a full image of (see full_logged_).
  /// For tests: call only while no transaction or checkpoint runs.
  size_t full_logged_pages() const { return full_logged_.size(); }

  /// The engine's resolved instrument bundle (always valid — backed by
  /// StorageOptions::metrics or an engine-private registry).
  StorageMetrics* metrics() { return &metrics_; }

  /// True once a durability failure has poisoned the engine (see
  /// poison_status()).  Reads stay allowed; Begin/Checkpoint refuse.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// The engine's durability frontier (see WalWatermarks).  Thread-safe;
  /// the fields are sampled individually, so a concurrent commit may advance
  /// one watermark between reads — the documented ordering still holds
  /// because each watermark only moves forward.
  WalWatermarks wal_watermarks() const;

  /// Point-in-time health verdict: poisoned beats degraded beats ok.
  /// Degradations: WAL backlog over health_max_wal_backlog_bytes, or the
  /// background checkpointer heartbeat older than
  /// health_max_checkpointer_lag_us.  Also refreshes the health.* gauges.
  /// Thread-safe, takes no engine locks.
  HealthReport HealthCheck() const;

  /// Why the engine is poisoned (OK when healthy).  The engine poisons
  /// itself when a group-commit append/fsync failure leaves unsynced
  /// transaction records in the WAL — a later successful Sync would make an
  /// unacknowledged transaction durable and resurrect it at recovery — or
  /// when an abort cannot restore all undo images.  The only safe
  /// continuation is to discard this engine and re-open (recovery ignores
  /// uncommitted tails).  Returned by value: the poison record is written
  /// once under its own mutex, so taking a reference would race the writer.
  Status poison_status() const;

 private:
  friend class Txn;
  friend class ReadTxn;

  StorageEngine() = default;

  Status InitSuperblockIfNeeded();
  /// Marks the engine permanently failed (first cause wins).
  void Poison(const Status& cause);
  /// Journals + force-traces an operation that exceeded its deadline
  /// (no-op when `threshold_us` is 0).
  void NoteSlowOp(const char* op, uint64_t start_ns, uint32_t threshold_us);
  /// Wakes the background checkpointer for a WAL-threshold check.
  void SignalCheckpointer();
  /// Body of the background checkpointer thread.
  void CheckpointerLoop();

  StorageOptions options_;
  /// Fallback registry when StorageOptions::metrics is null.
  std::unique_ptr<MetricsRegistry> owned_registry_;
  StorageMetrics metrics_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<GroupCommit> group_commit_;
  std::unique_ptr<WriteLatchSet> write_latches_;
  HeapFile heap_;
  PayloadStore payload_store_;
  // --- Apply-section state ------------------------------------------------
  // txn_, txn_open_ and next_txn_id_ are touched only between a successful
  // rw_mutex_.Lock() in Begin and the matching Unlock in Commit/Abort, so
  // the latch orders all access — but the lock lifetime spans three
  // functions, which ODE_GUARDED_BY cannot express (see the rw_mutex_
  // comment).  The TSan Concurrent suite covers the discipline at runtime.
  Txn txn_;
  bool txn_open_ = false;
  uint64_t next_txn_id_ = 1;
  /// Pages with a full image in the active WAL file, so their next commit
  /// may log a kPageDelta (see Wal).  A page joins once a commit's blob
  /// holding its image is serialized; the set empties when a checkpoint
  /// rolls the WAL.  Touched only under the apply latch, like txn_.
  std::unordered_set<PageId> full_logged_;
  RecoveryStats recovery_;
  /// Thread currently holding the apply latch for a write transaction
  /// (default-constructed id when none).  Lets Begin reject a same-thread
  /// double Begin without touching latch-protected state, and Checkpoint
  /// reject a self-deadlocking mid-transaction call.
  std::atomic<std::thread::id> applying_owner_{};
  /// Writers between Begin-intent and their group-commit enqueue: the
  /// lingering leader's "more commits are imminent" probe.
  std::atomic<uint64_t> writers_in_flight_{0};
  /// Highest transaction id ever handed to the group-commit queue
  /// (WaitForDurable clamps to it so read-only txn ids don't wait forever).
  std::atomic<uint64_t> last_enqueued_txn_{0};
  // --- Poison record ------------------------------------------------------
  mutable Mutex poison_mu_;
  Status poison_ ODE_GUARDED_BY(poison_mu_);
  std::atomic<bool> poisoned_{false};  ///< Fast-path mirror of !poison_.ok().
  /// Set by Poison, consumed by the checkpointer thread: fire the
  /// on_diagnostics flight-recorder hook outside every engine lock.
  std::atomic<bool> diagnostics_pending_{false};
  /// Last checkpointer-loop tick, steady-clock microseconds (heartbeat).
  std::atomic<uint64_t> ckpt_heartbeat_us_{0};
  // --- Background checkpointer --------------------------------------------
  Mutex ckpt_mu_;
  CondVar ckpt_cv_;
  bool ckpt_stop_ ODE_GUARDED_BY(ckpt_mu_) = false;
  bool ckpt_signal_ ODE_GUARDED_BY(ckpt_mu_) = false;
  std::thread checkpointer_;  // Started last in Open, joined first in dtor.
  std::atomic<uint64_t> checkpointer_passes_{0};
  /// Serializes whole checkpoints (background, Database::Checkpoint, close);
  /// taken before rw_mutex_.  The apply latch covers only the drain, copy
  /// and roll, so without this two checkpoints could interleave their
  /// out-of-latch writes and spare-file truncates.
  Mutex checkpoint_mu_;
  // --- Monitoring counters ------------------------------------------------
  // Written by committing writers (under the apply latch), but read by *any*
  // thread through the public accessors (stats paths run concurrently with a
  // committing writer), so they must be atomic.
  std::atomic<uint64_t> commit_count_{0};
  std::atomic<uint64_t> checkpoint_count_{0};
  /// The apply latch: writers exclusive, readers shared.  Held from Begin
  /// through Commit's enqueue (NOT through the fsync wait) or through the
  /// whole of Abort, and across the whole of WithReadTxn — a lock lifetime
  /// that spans function boundaries, which is why Begin/Commit/Abort opt
  /// out of the static analysis (see the .cc).  For the same reason no
  /// field can carry ODE_GUARDED_BY(rw_mutex_): the fields it protects
  /// (the entire on-disk/buffered state reachable through
  /// disk_/wal_/pool_/heap_) are touched by functions that receive the
  /// lock from their caller rather than taking it themselves.
  // ode_lint: allow(mutex-guard): lock lifetime spans Begin..Commit.
  SharedMutex rw_mutex_;
};

}  // namespace ode

#endif  // ODE_STORAGE_STORAGE_ENGINE_H_
