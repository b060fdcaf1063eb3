#ifndef ODE_STORAGE_STORAGE_METRICS_H_
#define ODE_STORAGE_STORAGE_METRICS_H_

#include "util/event_log.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ode {

/// Pre-resolved instrument handles for the storage layer, looked up once at
/// engine open so hot paths never touch the registry's name table.  One
/// instance per StorageEngine; shared (by pointer) with the WAL, the buffer
/// pool and — through PageIO::metrics() — the B+tree.
///
/// Naming convention: `<component>.<event>` counters, `<...>_ns` histograms
/// recording nanoseconds.
struct StorageMetrics {
  // Data-file page I/O (buffer-pool miss reads, checkpoint writes).
  Counter* page_reads = nullptr;
  Histogram* page_read_ns = nullptr;
  Counter* page_writes = nullptr;
  Histogram* page_write_ns = nullptr;

  // Write-ahead log.
  Counter* wal_appends = nullptr;
  Counter* wal_append_bytes = nullptr;
  Histogram* wal_append_ns = nullptr;
  Counter* wal_fsyncs = nullptr;
  Histogram* wal_fsync_ns = nullptr;
  Counter* wal_page_images = nullptr;  ///< Pages logged whole (kPageImage).
  Counter* wal_page_deltas = nullptr;  ///< Pages logged as byte ranges.

  // Transactions (engine level).
  Counter* txn_begins = nullptr;
  Counter* txn_commits = nullptr;
  Counter* txn_aborts = nullptr;
  Histogram* txn_commit_ns = nullptr;
  /// Shared-lock acquisition wait in WithReadTxn (lock contention signal).
  Histogram* read_lock_wait_ns = nullptr;
  /// Contended stripe-latch acquisition wait (WriteLatchSet; writer-vs-writer
  /// conflict signal, same convention as read_lock_wait_ns).
  Histogram* write_latch_wait_ns = nullptr;

  // Group commit (storage/group_commit.h).  commits/fsyncs > 1 is the whole
  // point: many transactions amortizing one fsync.
  Counter* gc_batches = nullptr;      ///< Leader batches written.
  Counter* gc_commits = nullptr;      ///< Transactions committed via batches.
  Counter* gc_fsyncs = nullptr;       ///< Fsyncs issued by group commit.
  Histogram* gc_batch_size = nullptr; ///< Commits per batch.
  /// Commits queued or appended but not yet fsync-covered (the async-mode
  /// durability lag; returns to zero when sync batches drain the queue).
  Gauge* gc_async_pending = nullptr;

  // Catalog B+tree.
  Counter* btree_descents = nullptr;
  Histogram* btree_descend_ns = nullptr;

  // Checkpoints.
  Counter* checkpoints = nullptr;
  Histogram* checkpoint_ns = nullptr;

  // Buffer-pool mirrors, refreshed at snapshot time from the pool's
  // per-shard counters (nothing extra on the Fetch hot path).
  Counter* pool_hits = nullptr;
  Counter* pool_misses = nullptr;
  Counter* pool_evictions = nullptr;
  Counter* pool_flushes = nullptr;
  Gauge* pool_resident_pages = nullptr;

  // Background-task health heartbeats (steady-clock microseconds, written
  // by the task itself via Gauge::Set — lock-free) and the lag gauges
  // HealthCheck() derives from them.  A heartbeat of 0 means the task has
  // not run yet this session.
  Gauge* hb_checkpointer_us = nullptr;
  Gauge* hb_gc_leader_us = nullptr;
  Gauge* hb_vacuum_us = nullptr;
  Gauge* checkpointer_lag_us = nullptr;
  Gauge* health_state = nullptr;  ///< 0 ok / 1 degraded / 2 poisoned.

  /// Event tracer for this engine's spans; may be null (tracing not set up).
  Tracer* tracer = nullptr;

  /// Structured event journal (util/event_log.h); may be null (journaling
  /// not set up).  Set by the engine from StorageOptions::event_log, not by
  /// Attach — the journal is owned above the registry.
  EventLog* events = nullptr;

  /// Null-safe journal append, so instrumented components need no checks.
  void RecordEvent(EventType type, EventSeverity severity, uint64_t a = 0,
                   uint64_t b = 0, uint64_t c = 0,
                   std::string_view detail = {}) const {
    if (events != nullptr) events->Record(type, severity, a, b, c, detail);
  }

  void Attach(MetricsRegistry* registry, Tracer* trace) {
    page_reads = registry->GetCounter("storage.page_reads");
    page_read_ns = registry->GetHistogram("storage.page_read_ns");
    page_writes = registry->GetCounter("storage.page_writes");
    page_write_ns = registry->GetHistogram("storage.page_write_ns");
    wal_appends = registry->GetCounter("wal.appends");
    wal_append_bytes = registry->GetCounter("wal.append_bytes");
    wal_append_ns = registry->GetHistogram("wal.append_ns");
    wal_fsyncs = registry->GetCounter("wal.fsyncs");
    wal_fsync_ns = registry->GetHistogram("wal.fsync_ns");
    wal_page_images = registry->GetCounter("wal.page_images");
    wal_page_deltas = registry->GetCounter("wal.page_deltas");
    txn_begins = registry->GetCounter("txn.begins");
    txn_commits = registry->GetCounter("txn.commits");
    txn_aborts = registry->GetCounter("txn.aborts");
    txn_commit_ns = registry->GetHistogram("txn.commit_ns");
    read_lock_wait_ns = registry->GetHistogram("txn.read_lock_wait_ns");
    write_latch_wait_ns = registry->GetHistogram("txn.write_latch_wait_ns");
    gc_batches = registry->GetCounter("groupcommit.batches");
    gc_commits = registry->GetCounter("groupcommit.commits");
    gc_fsyncs = registry->GetCounter("groupcommit.fsyncs");
    gc_batch_size = registry->GetHistogram("groupcommit.batch_size");
    gc_async_pending = registry->GetGauge("groupcommit.async_pending");
    btree_descents = registry->GetCounter("btree.descents");
    btree_descend_ns = registry->GetHistogram("btree.descend_ns");
    checkpoints = registry->GetCounter("storage.checkpoints");
    checkpoint_ns = registry->GetHistogram("storage.checkpoint_ns");
    pool_hits = registry->GetCounter("bufferpool.hits");
    pool_misses = registry->GetCounter("bufferpool.misses");
    pool_evictions = registry->GetCounter("bufferpool.evictions");
    pool_flushes = registry->GetCounter("bufferpool.flushes");
    pool_resident_pages = registry->GetGauge("bufferpool.resident_pages");
    hb_checkpointer_us = registry->GetGauge("health.checkpointer_heartbeat_us");
    hb_gc_leader_us = registry->GetGauge("health.gc_leader_heartbeat_us");
    hb_vacuum_us = registry->GetGauge("health.vacuum_heartbeat_us");
    checkpointer_lag_us = registry->GetGauge("health.checkpointer_lag_us");
    health_state = registry->GetGauge("health.state");
    tracer = trace;
  }
};

}  // namespace ode

#endif  // ODE_STORAGE_STORAGE_METRICS_H_
