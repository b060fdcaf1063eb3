#include "storage/storage_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <vector>

#include "storage/superblock.h"
#include "util/coding.h"
#include "util/logging.h"

namespace ode {

namespace {

/// Engines this thread currently holds a shared (reader) lock on.  Nested
/// WithReadTxn calls on the same engine (e.g. ReadVersion while an
/// ObjectCursor scan is refilling) reuse the outer lock: recursively
/// acquiring a std::shared_mutex on one thread is undefined behavior.
thread_local std::vector<const StorageEngine*> tls_read_locked_engines;

bool ThisThreadHoldsReadLock(const StorageEngine* engine) {
  for (const StorageEngine* held : tls_read_locked_engines) {
    if (held == engine) return true;
  }
  return false;
}

size_t RoundUpToPowerOfTwo(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Background checkpointer heartbeat: threshold checks ride on commit
/// signals, so the timed tick only bounds the kAsync durability window.
constexpr std::chrono::milliseconds kCheckpointerTick{50};

}  // namespace

// ---------------------------------------------------------------------------
// Txn
// ---------------------------------------------------------------------------

StatusOr<PageHandle> Txn::Fetch(PageId id) {
  if (!active_) return Status::FailedPrecondition("transaction not active");
  return engine_->pool_->Fetch(id);
}

StatusOr<PageId> Txn::AllocatePage() {
  if (!active_) return Status::FailedPrecondition("transaction not active");
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  SuperblockView sb(super->mutable_data());
  PageId pid = sb.free_list_head();
  if (pid != kInvalidPageId) {
    // Pop the free list: the next pointer lives at bytes 4..7 of the free
    // page's header.
    auto page = Fetch(pid);
    if (!page.ok()) return page.status();
    const PageId next = DecodeFixed32(page->data() + 4);
    sb.set_free_list_head(next);
    std::memset(page->mutable_data(), 0, kPageSize);
    return pid;
  }
  pid = sb.page_count();
  sb.set_page_count(pid + 1);
  auto page = Fetch(pid);
  if (!page.ok()) return page.status();
  // Beyond-EOF reads are zeroed already; dirty the frame so the page gets
  // logged and eventually materialized even if the caller writes nothing.
  std::memset(page->mutable_data(), 0, kPageSize);
  return pid;
}

Status Txn::FreePage(PageId id) {
  if (!active_) return Status::FailedPrecondition("transaction not active");
  if (id == 0) return Status::InvalidArgument("cannot free the superblock");
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  SuperblockView sb(super->mutable_data());
  auto page = Fetch(id);
  if (!page.ok()) return page.status();
  char* data = page->mutable_data();
  std::memset(data, 0, kPageSize);
  data[0] = static_cast<char>(PageType::kFree);
  EncodeFixed32(data + 4, sb.free_list_head());
  sb.set_free_list_head(id);
  return Status::OK();
}

StatusOr<PageId> Txn::GetRoot(int slot) {
  if (slot < 0 || slot >= SuperblockView::kNumRoots) {
    return Status::InvalidArgument("root slot out of range");
  }
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  return ConstSuperblockView(super->data()).root(slot);
}

Status Txn::SetRoot(int slot, PageId id) {
  if (slot < 0 || slot >= SuperblockView::kNumRoots) {
    return Status::InvalidArgument("root slot out of range");
  }
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  SuperblockView(super->mutable_data()).set_root(slot, id);
  return Status::OK();
}

StatusOr<uint64_t> Txn::GetCounter(int idx) {
  if (idx < 0 || idx >= SuperblockView::kNumCounters) {
    return Status::InvalidArgument("counter index out of range");
  }
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  return ConstSuperblockView(super->data()).counter(idx);
}

Status Txn::SetCounter(int idx, uint64_t value) {
  if (idx < 0 || idx >= SuperblockView::kNumCounters) {
    return Status::InvalidArgument("counter index out of range");
  }
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  SuperblockView(super->mutable_data()).set_counter(idx, value);
  return Status::OK();
}

StatusOr<uint32_t> Txn::PageCount() {
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  return ConstSuperblockView(super->data()).page_count();
}

StorageMetrics* Txn::metrics() {
  // engine_ is null until the first Begin binds this Txn to its engine.
  return engine_ != nullptr ? &engine_->metrics_ : nullptr;
}

// ---------------------------------------------------------------------------
// ReadTxn
// ---------------------------------------------------------------------------

StatusOr<PageHandle> ReadTxn::Fetch(PageId id) {
  return engine_->pool_->Fetch(id);
}

StatusOr<PageId> ReadTxn::AllocatePage() {
  return Status::FailedPrecondition("read-only transaction");
}

Status ReadTxn::FreePage(PageId) {
  return Status::FailedPrecondition("read-only transaction");
}

StatusOr<PageId> ReadTxn::GetRoot(int slot) {
  if (slot < 0 || slot >= SuperblockView::kNumRoots) {
    return Status::InvalidArgument("root slot out of range");
  }
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  return ConstSuperblockView(super->data()).root(slot);
}

Status ReadTxn::SetRoot(int, PageId) {
  return Status::FailedPrecondition("read-only transaction");
}

StatusOr<uint64_t> ReadTxn::GetCounter(int idx) {
  if (idx < 0 || idx >= SuperblockView::kNumCounters) {
    return Status::InvalidArgument("counter index out of range");
  }
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  return ConstSuperblockView(super->data()).counter(idx);
}

Status ReadTxn::SetCounter(int, uint64_t) {
  return Status::FailedPrecondition("read-only transaction");
}

StatusOr<uint32_t> ReadTxn::PageCount() {
  auto super = Fetch(0);
  if (!super.ok()) return super.status();
  return ConstSuperblockView(super->data()).page_count();
}

StorageMetrics* ReadTxn::metrics() { return &engine_->metrics_; }

// ---------------------------------------------------------------------------
// StorageEngine
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const StorageOptions& options) {
  auto engine = std::unique_ptr<StorageEngine>(new StorageEngine());
  engine->options_ = options;
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  engine->options_.env = env;
  ODE_RETURN_IF_ERROR(env->CreateDir(options.path));

  // Resolve instruments first so everything below (including recovery and
  // the superblock bootstrap transaction) records into them.
  MetricsRegistry* registry = options.metrics;
  if (registry == nullptr) {
    engine->owned_registry_ = std::make_unique<MetricsRegistry>();
    registry = engine->owned_registry_.get();
  }
  engine->metrics_.Attach(registry, options.tracer);
  engine->metrics_.events = options.event_log;
  engine->payload_store_.AttachMetrics(registry);

  {
    auto disk = DiskManager::Open(env, options.path + "/data.odb");
    if (!disk.ok()) return disk.status();
    engine->disk_ = std::move(*disk);
  }
  {
    auto wal = Wal::Open(env, options.path + "/wal.log");
    if (!wal.ok()) return wal.status();
    engine->wal_ = std::move(*wal);
    engine->wal_->set_metrics(&engine->metrics_);
  }

  // Redo recovery, then drop the now-applied log.  Emptying both files
  // restarts the txn-id order Recover relies on: this lifetime's ids begin
  // at 1 again.
  {
    auto recovery = engine->wal_->Recover(engine->disk_.get());
    if (!recovery.ok()) return recovery.status();
    engine->recovery_ = *recovery;
    ODE_RETURN_IF_ERROR(engine->wal_->TruncateAll());
    engine->metrics_.RecordEvent(
        EventType::kRecovery, EventSeverity::kInfo,
        engine->recovery_.committed_txns, engine->recovery_.discarded_txns,
        engine->recovery_.images_replayed + engine->recovery_.deltas_replayed);
  }

  StorageEngine* raw = engine.get();
  engine->write_latches_ = std::make_unique<WriteLatchSet>(
      RoundUpToPowerOfTwo(std::max<size_t>(1, options.write_latch_stripes)),
      engine->metrics_.write_latch_wait_ns);
  engine->group_commit_ = std::make_unique<GroupCommit>(
      engine->wal_.get(), options.group_commit_max_batch,
      options.group_commit_max_wait_us, &engine->metrics_);
  engine->group_commit_->set_more_expected_probe([raw] {
    return raw->writers_in_flight_.load(std::memory_order_relaxed) > 0;
  });
  engine->group_commit_->set_on_failure([raw](const Status& cause) {
    // The WAL may hold an unsynced (possibly torn) batch whose commit
    // records a later successful fsync would make durable; recovery would
    // then resurrect transactions nobody acknowledged.  Refuse all further
    // writes: the caller must discard this engine and re-open (recovery
    // discards the unsynced tail).
    raw->Poison(Status::FailedPrecondition(
        "engine poisoned by failed group-commit append/fsync: " +
        cause.ToString()));
  });

  engine->pool_ = std::make_unique<BufferPool>(engine->disk_.get(),
                                               options.buffer_pool_pages,
                                               options.buffer_pool_shards);
  engine->pool_->set_metrics(&engine->metrics_);
  engine->pool_->set_pre_dirty_hook(
      [raw](PageId id, const char* data, bool was_dirty) {
        // Pages are only dirtied inside the apply latch, so txn_open_ and
        // the undo map are stable for the duration of this hook.
        if (!raw->txn_open_) return;
        auto& undo = raw->txn_.undo_;
        if (undo.find(id) == undo.end()) {
          undo.emplace(id,
                       Txn::UndoImage{std::string(data, kPageSize), was_dirty});
        }
      });

  ODE_RETURN_IF_ERROR(engine->InitSuperblockIfNeeded());

  // Started last so the loop never observes a half-built engine.
  engine->checkpointer_ = std::thread([raw] { raw->CheckpointerLoop(); });
  return engine;
}

Status StorageEngine::InitSuperblockIfNeeded() {
  return WithTxn([](Txn& txn) -> Status {
    auto super = txn.Fetch(0);
    if (!super.ok()) return super.status();
    if (!ConstSuperblockView(super->data()).IsValid()) {
      SuperblockView(super->mutable_data()).Init();
    }
    return Status::OK();
  });
}

void StorageEngine::Shutdown() {
  // Stop the checkpointer before touching any state it might read.
  if (checkpointer_.joinable()) {
    {
      MutexLock lock(ckpt_mu_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.NotifyAll();
    checkpointer_.join();
  }
  // A poison immediately before close can beat the checkpointer's next
  // tick; the flight recorder still owes a dump (no locks held here).
  if (diagnostics_pending_.exchange(false, std::memory_order_acq_rel)) {
    if (options_.on_diagnostics) options_.on_diagnostics("poison");
  }
}

StorageEngine::~StorageEngine() {
  Shutdown();
  // Destruction requires all user threads to be done with the engine, so an
  // open transaction can only belong to the destroying thread.
  if (txn_open_) {
    if (applying_owner_.load(std::memory_order_relaxed) ==
        std::this_thread::get_id()) {
      Status s = Abort(&txn_);
      if (!s.ok()) { ODE_LOG_WARN << "abort on close failed: " << s; }
    } else {
      ODE_LOG_WARN << "engine destroyed with a transaction open on another "
                      "thread; skipping abort";
    }
  }
  if (poisoned()) {
    // Flushing pages that may disagree with the durable WAL would persist a
    // rolled-back transaction; leave the files for recovery instead.
    ODE_LOG_WARN << "closing poisoned engine without checkpoint: "
                 << poison_status();
    return;
  }
  // A partially-constructed engine (Open returned an error before the
  // WAL / group commit / pool came up) has nothing to checkpoint.
  if (wal_ == nullptr || group_commit_ == nullptr || pool_ == nullptr) {
    return;
  }
  // Checkpoint drains the group-commit queue (fsyncing any async tail)
  // before writing pages, so nothing acknowledged is lost on a clean close.
  // A checkpoint that could not roll (its spare still held a failed
  // checkpoint's records) leaves the active file non-empty; the second one
  // rolls, so a clean close leaves both WAL files empty.
  Status s = Checkpoint();
  if (s.ok() && wal_bytes() > 0) s = Checkpoint();
  if (!s.ok()) { ODE_LOG_WARN << "checkpoint on close failed: " << s; }
}

void StorageEngine::Poison(const Status& cause) {
  {
    MutexLock lock(poison_mu_);
    if (!poison_.ok()) return;  // First cause wins; later ones are echoes.
    poison_ = cause;
    poisoned_.store(true, std::memory_order_release);
  }
  metrics_.RecordEvent(EventType::kPoison, EventSeverity::kError, 0, 0, 0,
                       cause.ToString());
  // Flight recorder: hand the dump to the checkpointer thread.  Poison can
  // fire under the group-commit mutex or the apply latch, and the dump
  // reads both subsystems' snapshot state — running it here would deadlock.
  if (options_.on_diagnostics) {
    diagnostics_pending_.store(true, std::memory_order_release);
    SignalCheckpointer();
  }
}

Status StorageEngine::poison_status() const {
  if (!poisoned_.load(std::memory_order_acquire)) return Status::OK();
  MutexLock lock(poison_mu_);
  return poison_;
}

// Begin acquires rw_mutex_ exclusively and *returns still holding it*; the
// matching release happens in Commit or Abort.  A lock lifetime spanning
// three functions is outside what the capability analysis can express
// (ODE_ACQUIRE would flag the early-return paths, ODE_RELEASE would flag
// every caller), so these three opt out; the crash matrix and TSan suites
// cover this protocol at runtime.
StatusOr<Txn*> StorageEngine::Begin() ODE_NO_THREAD_SAFETY_ANALYSIS {
  // A second Begin from the thread that already holds the apply latch would
  // self-deadlock on rw_mutex_; reject it up front.  Begins from *other*
  // threads queue on the latch below — that is the multi-writer path.
  if (applying_owner_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id()) {
    return Status::FailedPrecondition(
        "a transaction is already open on this thread");
  }
  if (poisoned()) return poison_status();
  // Count ourselves before queuing for the latch so a lingering group-commit
  // leader knows another commit is imminent (see the probe in Open).
  writers_in_flight_.fetch_add(1, std::memory_order_relaxed);
  rw_mutex_.Lock();  // Held until Commit's enqueue or the whole of Abort.
  if (poisoned()) {
    // Poisoned while we queued (a concurrent commit's fsync failed).
    writers_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    rw_mutex_.Unlock();
    return poison_status();
  }
  applying_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  txn_.engine_ = this;
  txn_.id_ = next_txn_id_++;
  txn_.active_ = true;
  txn_.undo_.clear();
  txn_open_ = true;
  pool_->BeginEpoch();
  if (options_.on_apply_begin) options_.on_apply_begin();
  metrics_.txn_begins->Increment();
  metrics_.RecordEvent(EventType::kTxnBegin, EventSeverity::kDebug, txn_.id_);
  return &txn_;
}

// Releases the exclusive latch Begin acquired — after the apply section but
// BEFORE the durability wait; see the note on Begin.
Status StorageEngine::Commit(Txn* txn) ODE_NO_THREAD_SAFETY_ANALYSIS {
  if (applying_owner_.load(std::memory_order_relaxed) !=
          std::this_thread::get_id() ||
      !txn_open_ || txn != &txn_ || !txn->active_) {
    return Status::FailedPrecondition("no such open transaction");
  }
  const bool sync_mode = options_.commit_mode == CommitMode::kSync;
  const uint64_t txn_id = txn->id_;
  const uint64_t commit_t0_ns = Histogram::NowNanos();
  size_t dirty_pages = 0;
  Status wait_status;
  {
    // The timing scope covers apply + enqueue + the durability wait (but not
    // checkpoint signaling), so txn.commit_ns measures what the caller
    // experiences for the chosen commit mode.
    TraceSpan span(metrics_.tracer, "txn.commit", "storage");
    ScopedLatency timer(metrics_.txn_commit_ns);
    uint64_t ticket = 0;
    bool enqueued = false;
    const auto& dirtied = pool_->EpochDirtyPages();
    dirty_pages = dirtied.size();
    if (!dirtied.empty()) {
      // Serialize the whole record sequence into one pre-framed blob while
      // still under the latch: enqueue order = apply order, which is what
      // makes a crash-surviving WAL prefix a prefix of applied transactions.
      std::string blob;
      std::vector<PageId> imaged;  // Pages first logged whole in this file.
      size_t deltas = 0;
      Status s = [&]() -> Status {
        Wal::EncodeBegin(txn->id_, &blob);
        for (PageId pid : dirtied) {
          auto handle = pool_->Fetch(pid);
          if (!handle.ok()) return handle.status();
          // A page's first record in each WAL file is its full image; after
          // that, the bytes that differ from its state before this txn.
          const auto undo = txn->undo_.find(pid);
          if (full_logged_.count(pid) == 0 || undo == txn->undo_.end()) {
            Wal::EncodePageImage(txn->id_, pid, handle->data(), &blob);
            imaged.push_back(pid);
          } else if (Wal::EncodePageChange(txn->id_, pid,
                                           undo->second.image.data(),
                                           handle->data(), &blob) ==
                     WalRecordType::kPageDelta) {
            ++deltas;
          }
        }
        Wal::EncodeCommit(txn->id_, &blob);
        return Status::OK();
      }();
      if (!s.ok()) {
        // Nothing reached the WAL yet, so a plain abort fully undoes the
        // transaction — no need to poison (unlike an append/fsync failure).
        Status abort_status = Abort(txn);
        if (!abort_status.ok()) {
          ODE_LOG_ERROR << "abort after failed commit serialization also "
                        << "failed: " << abort_status;
          return abort_status;
        }
        return s;
      }
      full_logged_.insert(imaged.begin(), imaged.end());
      metrics_.wal_page_images->Add(dirtied.size() - deltas);
      metrics_.wal_page_deltas->Add(deltas);
      ticket = group_commit_->Enqueue(std::move(blob), txn->id_,
                                      /*record_count=*/2 + dirtied.size(),
                                      /*needs_sync=*/sync_mode);
      last_enqueued_txn_.store(txn->id_, std::memory_order_release);
      enqueued = true;
    }
    pool_->CommitEpoch();
    txn->active_ = false;
    txn->undo_.clear();
    txn_open_ = false;
    if (options_.on_apply_end) options_.on_apply_end(/*committed=*/true);
    commit_count_.fetch_add(1, std::memory_order_relaxed);
    metrics_.txn_commits->Increment();
    applying_owner_.store(std::thread::id(), std::memory_order_relaxed);
    // Past the enqueue: stop telling the leader more work is imminent.
    writers_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    rw_mutex_.Unlock();

    // Early lock release: the latch is free for the next writer while we
    // wait (or lead a batch) here.  A read-only transaction skips the queue
    // entirely — it has nothing to make durable.
    if (enqueued) {
      wait_status = sync_mode ? group_commit_->WaitDurable(ticket)
                              : group_commit_->WaitAppended(ticket);
    }
  }
  metrics_.RecordEvent(EventType::kTxnCommit, EventSeverity::kDebug, txn_id,
                       dirty_pages,
                       (Histogram::NowNanos() - commit_t0_ns) / 1000);
  NoteSlowOp("slow.commit", commit_t0_ns, options_.slow_commit_us);
  if (wal_bytes() > options_.checkpoint_wal_bytes) SignalCheckpointer();
  return wait_status;
}

// Runs entirely under the latch Begin acquired, then releases it; nothing of
// an aborted transaction was ever enqueued, so nothing can become durable.
Status StorageEngine::Abort(Txn* txn) ODE_NO_THREAD_SAFETY_ANALYSIS {
  if (applying_owner_.load(std::memory_order_relaxed) !=
          std::this_thread::get_id() ||
      !txn_open_ || txn != &txn_ || !txn->active_) {
    return Status::FailedPrecondition("no such open transaction");
  }
  Status restore_status = Status::OK();
  for (const auto& [pid, undo] : txn->undo_) {
    Status s = pool_->RestorePage(pid, undo.image.data(), undo.was_dirty);
    if (!s.ok() && restore_status.ok()) restore_status = s;
  }
  metrics_.RecordEvent(EventType::kTxnAbort, EventSeverity::kDebug, txn->id_);
  pool_->CommitEpoch();  // Clears epoch bookkeeping; pages already restored.
  txn->active_ = false;
  txn->undo_.clear();
  txn_open_ = false;
  heap_.InvalidateCache();
  if (options_.on_apply_end) options_.on_apply_end(/*committed=*/false);
  metrics_.txn_aborts->Increment();
  if (!restore_status.ok()) {
    // Some pages still carry the aborted transaction's changes; writing on
    // top of them would corrupt committed state.
    Poison(Status::FailedPrecondition(
        "engine poisoned by failed abort restore: " +
        restore_status.ToString()));
  }
  applying_owner_.store(std::thread::id(), std::memory_order_relaxed);
  writers_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  rw_mutex_.Unlock();
  return restore_status;
}

Status StorageEngine::WithTxn(const std::function<Status(Txn&)>& body) {
  auto txn = Begin();
  if (!txn.ok()) return txn.status();
  Status s = body(**txn);
  if (!s.ok()) {
    Status abort_status = Abort(*txn);
    if (!abort_status.ok()) {
      ODE_LOG_ERROR << "abort failed after error: " << abort_status;
      return abort_status;
    }
    return s;
  }
  return Commit(*txn);
}

Status StorageEngine::WithReadTxn(const std::function<Status(ReadTxn&)>& body) {
  ReadTxn txn(this);
  if (ThisThreadHoldsReadLock(this)) {
    // Nested read on the same thread: the outer call's shared lock already
    // protects us.
    return body(txn);
  }
  // Only a *contended* acquisition pays for clock reads and a histogram
  // record; the uncontended fast path costs just the try-lock.  The
  // histogram's count is therefore "number of contended acquisitions".
  if (!rw_mutex_.TryLockShared()) {
    const uint64_t t0 = Histogram::NowNanos();
    rw_mutex_.LockShared();
    metrics_.read_lock_wait_ns->Record(Histogram::NowNanos() - t0);
  }
  tls_read_locked_engines.push_back(this);
  Status s = body(txn);
  tls_read_locked_engines.pop_back();
  rw_mutex_.UnlockShared();
  return s;
}

Status StorageEngine::Checkpoint() {
  // A checkpoint from the thread that holds the apply latch would
  // self-deadlock on WriterMutexLock below; other threads' transactions
  // just delay us until they release.
  if (applying_owner_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id()) {
    return Status::FailedPrecondition("cannot checkpoint mid-transaction");
  }
  if (poisoned()) return poison_status();
  MutexLock serialize(checkpoint_mu_);
  TraceSpan span(metrics_.tracer, "storage.checkpoint", "storage");
  ScopedLatency timer(metrics_.checkpoint_ns);
  const uint64_t ckpt_t0_ns = Histogram::NowNanos();
  std::vector<PageCopy> copies;
  uint64_t latched_us = 0;
  {
    WriterMutexLock lock(rw_mutex_);
    const uint64_t latched_ns = Histogram::NowNanos();
    // WAL-before-data: every queued/appended commit is fsynced before any
    // page image is copied, so only durable commits leave memory.  Holding
    // the latch guarantees no new enqueue races the drain, and the drained
    // queue has no append or fsync in flight for Roll to race.
    ODE_RETURN_IF_ERROR(group_commit_->Flush());
    auto copied = pool_->CopyDirtyPages();
    if (!copied.ok()) return copied.status();
    copies = std::move(*copied);
    // Roll only into an empty spare.  A non-empty spare is the old file of
    // a checkpoint whose write failed: its pages are still dirty, so this
    // checkpoint writes them and retires that file instead.
    if (wal_->spare_empty()) {
      wal_->Roll();
      full_logged_.clear();  // The new file must open each page in full.
    }
    latched_us = (Histogram::NowNanos() - latched_ns) / 1000;
  }
  // Outside the latch: readers and writers proceed while the copies reach
  // the data file.  The old WAL file is retired only after the data fsync.
  ODE_RETURN_IF_ERROR(pool_->WriteCopies(copies));
  auto retired = wal_->TruncateSpare();
  if (!retired.ok()) return retired.status();
  checkpoint_count_.fetch_add(1, std::memory_order_relaxed);
  metrics_.checkpoints->Increment();
  metrics_.RecordEvent(EventType::kCheckpoint, EventSeverity::kInfo,
                       copies.size(), *retired, latched_us);
  NoteSlowOp("slow.checkpoint", ckpt_t0_ns, options_.slow_checkpoint_us);
  return Status::OK();
}

void StorageEngine::NoteSlowOp(const char* op, uint64_t start_ns,
                               uint32_t threshold_us) {
  if (threshold_us == 0) return;
  const uint64_t end_ns = Histogram::NowNanos();
  const uint64_t duration_us = (end_ns - start_ns) / 1000;
  if (duration_us <= threshold_us) return;
  metrics_.RecordEvent(EventType::kSlowOp, EventSeverity::kWarn, duration_us,
                       threshold_us, 0, op);
  // Bypass sampling: the one operation that blew its deadline must appear
  // in the trace even when the tracer would have sampled it out.
  if (metrics_.tracer != nullptr) {
    metrics_.tracer->Record(op, "slow", start_ns, end_ns);
  }
}

Status StorageEngine::WaitForDurable(uint64_t txn_id) {
  // Clamp to the highest id that ever entered the queue: read-only
  // transactions consume ids without enqueuing, and UINT64_MAX means
  // "everything acknowledged so far".
  const uint64_t target =
      std::min(txn_id, last_enqueued_txn_.load(std::memory_order_acquire));
  if (target == 0) return Status::OK();
  return group_commit_->WaitDurableTxn(target);
}

void StorageEngine::SignalCheckpointer() {
  {
    MutexLock lock(ckpt_mu_);
    ckpt_signal_ = true;
  }
  ckpt_cv_.NotifyAll();
}

void StorageEngine::CheckpointerLoop() {
  ckpt_heartbeat_us_.store(Histogram::NowNanos() / 1000,
                           std::memory_order_relaxed);
  for (;;) {
    {
      MutexLock lock(ckpt_mu_);
      if (!ckpt_stop_ && !ckpt_signal_) {
        (void)ckpt_cv_.WaitFor(ckpt_mu_, kCheckpointerTick);
      }
      if (ckpt_stop_) return;
      ckpt_signal_ = false;
    }
    ckpt_heartbeat_us_.store(Histogram::NowNanos() / 1000,
                             std::memory_order_relaxed);
    // Flight recorder: fire the poison dump here, outside every engine
    // lock, so the hook can safely read watermarks/stats/health.
    if (diagnostics_pending_.exchange(false, std::memory_order_acq_rel)) {
      if (options_.on_diagnostics) options_.on_diagnostics("poison");
    }
    if (!poisoned()) {
      if (wal_bytes() > options_.checkpoint_wal_bytes) {
        // Failure must not kill the loop: the WAL keeps growing but stays
        // replayable, and the next signal retries.
        Status s = Checkpoint();
        if (!s.ok()) {
          ODE_LOG_WARN << "background checkpoint failed: " << s;
        }
      } else if (options_.commit_mode == CommitMode::kAsync) {
        // Bound the async durability window: fsync the appended-but-unsynced
        // tail even when writers have gone idle.
        const uint64_t tail =
            last_enqueued_txn_.load(std::memory_order_acquire);
        if (tail > group_commit_->durable_txn_id()) {
          Status s = group_commit_->WaitDurableTxn(tail);
          if (!s.ok()) { ODE_LOG_WARN << "async tail fsync failed: " << s; }
        }
      }
    }
    checkpointer_passes_.fetch_add(1, std::memory_order_release);
  }
}

const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kPoisoned:
      return "poisoned";
  }
  return "unknown";
}

WalWatermarks StorageEngine::wal_watermarks() const {
  WalWatermarks w;
  w.enqueued_txn = last_enqueued_txn_.load(std::memory_order_acquire);
  w.appended_txn = group_commit_->appended_txn_id();
  w.durable_txn = group_commit_->durable_txn_id();
  w.acked_txn = options_.commit_mode == CommitMode::kSync ? w.durable_txn
                                                          : w.appended_txn;
  return w;
}

HealthReport StorageEngine::HealthCheck() const {
  HealthReport report;
  const uint64_t now_us = Histogram::NowNanos() / 1000;
  const uint64_t heartbeat =
      ckpt_heartbeat_us_.load(std::memory_order_relaxed);
  report.checkpointer_lag_us =
      (heartbeat == 0 || heartbeat > now_us) ? 0 : now_us - heartbeat;
  report.wal_backlog_bytes = wal_bytes();
  report.async_pending = metrics_.gc_async_pending->value();
  if (poisoned()) {
    report.state = HealthState::kPoisoned;
    report.reasons.push_back("engine poisoned: " +
                             poison_status().ToString());
  } else {
    const uint64_t backlog_limit =
        options_.health_max_wal_backlog_bytes != 0
            ? options_.health_max_wal_backlog_bytes
            : 4 * options_.checkpoint_wal_bytes;
    if (report.wal_backlog_bytes > backlog_limit) {
      report.state = HealthState::kDegraded;
      report.reasons.push_back(
          "wal backlog " + std::to_string(report.wal_backlog_bytes) +
          " bytes exceeds " + std::to_string(backlog_limit) +
          " (checkpointer falling behind)");
    }
    if (heartbeat != 0 &&
        report.checkpointer_lag_us > options_.health_max_checkpointer_lag_us) {
      report.state = HealthState::kDegraded;
      report.reasons.push_back(
          "checkpointer heartbeat " +
          std::to_string(report.checkpointer_lag_us) +
          "us old (limit " +
          std::to_string(options_.health_max_checkpointer_lag_us) + "us)");
    }
  }
  // Refresh the health gauges so scrapes see what this verdict saw.
  metrics_.hb_checkpointer_us->Set(static_cast<int64_t>(heartbeat));
  metrics_.hb_gc_leader_us->Set(
      static_cast<int64_t>(group_commit_->leader_heartbeat_us()));
  metrics_.checkpointer_lag_us->Set(
      static_cast<int64_t>(report.checkpointer_lag_us));
  metrics_.health_state->Set(static_cast<int64_t>(report.state));
  return report;
}

uint64_t StorageEngine::wal_bytes() const { return wal_->live_bytes(); }

uint64_t StorageEngine::wal_total_bytes() const {
  return wal_->bytes_appended();
}

}  // namespace ode
