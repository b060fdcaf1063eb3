#ifndef ODE_STORAGE_GROUP_COMMIT_H_
#define ODE_STORAGE_GROUP_COMMIT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "storage/wal.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ode {

struct StorageMetrics;

/// When a commit call returns to the caller.
enum class CommitMode : uint8_t {
  /// Return once the transaction's WAL records are fsynced (classic
  /// durability: an acknowledged commit survives any crash).
  kSync = 0,
  /// Return once the records are appended to the WAL file, BEFORE the fsync.
  /// An acknowledged commit can still be lost to a crash until a later group
  /// fsync (or StorageEngine::WaitForDurable) covers it; ordering is
  /// preserved — a lost commit implies every later commit is lost too, so
  /// recovery always yields a prefix of the acknowledged sequence.
  kAsync = 1,
};

/// The group-commit queue: the single funnel through which transaction
/// records reach the WAL.
///
/// Writers serialize their records into one pre-framed blob under the
/// engine's exclusive apply latch and Enqueue it there — so queue order is
/// exactly apply order, and any crash-surviving WAL prefix corresponds to a
/// prefix of the applied transactions.  They then RELEASE the apply latch and
/// block in WaitAppended/WaitDurable.  The first blocked waiter elects itself
/// leader: it optionally lingers for `max_wait_us` while another writer is
/// mid-apply (so a burst coalesces), pops up to `max_batch` blobs, writes
/// them with one WAL append each, and issues ONE fsync for the whole batch —
/// then wakes everyone whose sequence number is covered.  A solo writer pays
/// no linger (the probe reports no writer in flight) and degenerates to
/// append+fsync, the pre-group-commit behavior.
///
/// Failure contract: an append or fsync error is sticky.  The WAL may hold a
/// partially appended batch (possibly including commit records) that a later
/// successful fsync would resurrect, so every current and future waiter gets
/// the error and `on_failure` (the engine's poison hook) fires once.
///
/// Thread safety: fully thread-safe; Enqueue additionally requires the
/// engine's exclusive latch (for the ordering guarantee above).  Several
/// methods manage lock lifetimes that span the leader's unlocked I/O region
/// and therefore opt out of the capability analysis (see the .cc).
class GroupCommit {
 public:
  /// `max_batch` >= 1; `max_wait_us` bounds the leader's gather linger
  /// (0 disables lingering).  `metrics` may be null.
  GroupCommit(Wal* wal, size_t max_batch, uint32_t max_wait_us,
              StorageMetrics* metrics);
  ~GroupCommit();

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  /// Probe consulted by a lingering leader: returns true while more commits
  /// are expected imminently (the engine reports a writer applying or queued
  /// for the apply latch).  Must be lock-free; called under the queue mutex.
  void set_more_expected_probe(std::function<bool()> probe) {
    more_expected_ = std::move(probe);
  }

  /// Fires once, on the first append/fsync failure, with the failing status.
  /// Must not call back into this GroupCommit.
  void set_on_failure(std::function<void(const Status&)> on_failure) {
    on_failure_ = std::move(on_failure);
  }

  /// Queues one transaction's pre-framed records.  Caller must hold the
  /// engine's exclusive apply latch.  `needs_sync` marks a kSync-mode commit
  /// (its batch must fsync before its waiter is released).  Returns the
  /// ticket to pass to WaitAppended/WaitDurable.
  uint64_t Enqueue(std::string framed, uint64_t txn_id, uint64_t record_count,
                   bool needs_sync);

  /// Blocks until the ticket's records are appended (kAsync ack point).
  Status WaitAppended(uint64_t seq);

  /// Blocks until the ticket's records are fsynced (kSync ack point).
  Status WaitDurable(uint64_t seq);

  /// Blocks until every transaction with id <= txn_id that was ever enqueued
  /// is durable.  Leads a sync-only batch if needed (the async catch-up
  /// path).  Requires txn ids to be enqueued in increasing order, which the
  /// apply latch guarantees.
  Status WaitDurableTxn(uint64_t txn_id);

  /// Drains the queue and fsyncs everything appended; on OK no leader is
  /// mid-batch, so no WAL append or fsync is in flight.  Caller must hold the
  /// engine's exclusive apply latch (so no new Enqueue can race the drain).
  /// Returns the sticky error if the queue has failed.
  Status Flush();

  /// Highest txn id made durable so far.  Thread-safe.
  uint64_t durable_txn_id() const;

  /// Highest txn id appended to the WAL file so far.  Thread-safe.
  uint64_t appended_txn_id() const;

  /// Steady-clock microseconds of the last completed leader batch (0 before
  /// the first batch).  Thread-safe; the liveness signal for HealthCheck and
  /// diagnostics dumps.
  uint64_t leader_heartbeat_us() const {
    return leader_heartbeat_us_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    uint64_t seq = 0;
    uint64_t txn_id = 0;
    uint64_t record_count = 0;
    bool needs_sync = false;
    std::string framed;
  };

  /// Leader duty cycle: gather (optional), pop a batch, append+fsync with
  /// mu_ RELEASED, publish results, wake waiters.  Called with mu_ held;
  /// returns with mu_ held.
  void LeadBatch(bool want_sync, bool allow_gather);
  /// Common wait loop for WaitAppended/WaitDurable.
  Status WaitReached(uint64_t seq, bool durable);
  /// Publishes a failure: sets the sticky error and fires on_failure once.
  void FailLocked(const Status& error) ODE_REQUIRES(mu_);
  void UpdatePendingGauge() ODE_REQUIRES(mu_);

  Wal* const wal_;
  const size_t max_batch_;
  const uint32_t max_wait_us_;
  StorageMetrics* const metrics_;
  std::function<bool()> more_expected_;           // Set once at engine open.
  std::function<void(const Status&)> on_failure_;  // Set once at engine open.

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Pending> queue_ ODE_GUARDED_BY(mu_);
  uint64_t next_seq_ ODE_GUARDED_BY(mu_) = 1;
  uint64_t appended_seq_ ODE_GUARDED_BY(mu_) = 0;
  uint64_t durable_seq_ ODE_GUARDED_BY(mu_) = 0;
  /// Txn-id mirrors of the seq watermarks (txn ids are enqueued in
  /// increasing order, so these are monotone too).
  uint64_t appended_txn_ ODE_GUARDED_BY(mu_) = 0;
  uint64_t durable_txn_ ODE_GUARDED_BY(mu_) = 0;
  bool leader_active_ ODE_GUARDED_BY(mu_) = false;
  /// Commits appended to the WAL file but not yet covered by an fsync.
  uint64_t appended_not_durable_ ODE_GUARDED_BY(mu_) = 0;
  Status error_ ODE_GUARDED_BY(mu_);  // Sticky; OK while healthy.
  std::atomic<uint64_t> leader_heartbeat_us_{0};
};

}  // namespace ode

#endif  // ODE_STORAGE_GROUP_COMMIT_H_
