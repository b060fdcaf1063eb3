#ifndef ODE_STORAGE_FAULT_ENV_H_
#define ODE_STORAGE_FAULT_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ode {

class EventLog;

/// Classes of I/O operation the fault injector can count and target.
enum class FaultOp : uint8_t {
  kRead = 0,
  kWrite = 1,
  kAppend = 2,
  kSync = 3,
  kTruncate = 4,
  kOpen = 5,
  kDelete = 6,
  kRename = 7,
};
inline constexpr int kNumFaultOps = 8;

/// Cumulative I/O accounting for a FaultInjectionEnv (attempted operations,
/// whether or not the injector failed them).  Returned by value.
struct IoCounts {
  uint64_t ops[kNumFaultOps] = {};
  uint64_t bytes_written = 0;  ///< Write + Append payload bytes.
  uint64_t bytes_read = 0;     ///< Bytes actually returned by Read.

  uint64_t of(FaultOp op) const { return ops[static_cast<int>(op)]; }
  /// Operations that mutate durable state (everything except Read/Open).
  uint64_t mutating() const {
    return of(FaultOp::kWrite) + of(FaultOp::kAppend) + of(FaultOp::kSync) +
           of(FaultOp::kTruncate) + of(FaultOp::kDelete) + of(FaultOp::kRename);
  }
};

/// How much un-synced data survives a simulated crash.  The "unsynced
/// region" of a file is the byte range where its current contents differ
/// from its contents at the last successful Sync() (for the append-only WAL
/// this is exactly the unsynced tail).
enum class CrashTear : uint8_t {
  /// Nothing after the last Sync() survives (classic lost page cache).
  kLoseAll = 0,
  /// Everything survives even though it was never fsynced (the OS happened
  /// to flush on its own; legal, and the adversarial case for "commit
  /// returned an error but became durable anyway").
  kKeepAll = 1,
  /// The first half of the unsynced region survives (torn multi-record
  /// append).
  kTearHalf = 2,
  /// All but the final unsynced byte survives (a write torn mid-sector).
  kTornByte = 3,
  /// Everything survives but the last unsynced byte is bit-flipped
  /// (corruption inside a torn sector).
  kCorruptLast = 4,
};
inline constexpr int kNumCrashTears = 5;

/// Env wrapper that simulates crashes and I/O failures.
///
/// Three facilities, composable and all deterministic:
///  1. Crash simulation: `Crash(tear)` reverts every file to its state at
///     that file's last Sync(), optionally keeping a configurable partial /
///     corrupted tail of the unsynced region (see CrashTear).  Open handles
///     become invalid (further use returns kIOError) until reopened.
///     `ScheduleCrash(n, tear)` arms the same crash to fire *instead of* the
///     Nth subsequent mutating operation, so a test can sweep a crash point
///     across every WAL append/fsync of a workload.
///  2. Error injection: `FailNth(op, n, error)` makes the Nth subsequent
///     operation of one kind fail with a configurable Status; sticky mode
///     models a dying disk (every later mutating op fails too).
///     `FailAfterSyncs(n)` is the legacy dying-disk form.
///  3. Accounting: `counts()` reports every operation and byte moved, for
///     asserting WAL discipline (e.g. exactly one fsync per commit).
///
/// Files live in an internal in-memory store (the `base` Env is not
/// consulted); semantics match MemEnv plus the per-file synced shadow state.
/// Thread-safe: one mutex serializes every file operation, Env operation
/// and control call, so the engine's concurrent I/O (checkpoint page writes
/// outside the apply latch, buffer-pool misses, group-commit appends) is
/// counted and crash-injected in one total order.
class FaultInjectionEnv : public Env {
 public:
  /// `base` is unused beyond construction (kept for signature compatibility);
  /// pass nullptr.
  explicit FaultInjectionEnv(Env* base);
  ~FaultInjectionEnv() override;

  StatusOr<std::unique_ptr<File>> OpenFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status CreateDir(const std::string& path) override;
  StatusOr<std::vector<std::string>> ListDir(const std::string& path) override;

  // -- Crash simulation ------------------------------------------------------

  /// Crashes now with CrashTear::kLoseAll (the legacy form): reverts every
  /// file to its last-synced state and invalidates open handles.  Also
  /// disarms any scheduled crash or failure injection (the "machine" reboots
  /// with a healthy disk).
  void CrashAndLoseUnsynced();

  /// Crashes now with the given tear mode (see CrashTear).
  void Crash(CrashTear tear);

  /// Arms a crash to fire when the Nth (0-based, counted from this call)
  /// subsequent *mutating* operation (Write/Append/Sync/Truncate/Delete/
  /// Rename) is attempted: that operation does not execute — the crash
  /// happens first and the operation returns kIOError.  Sweep `nth` from 0
  /// upward to place a crash at every durability point of a workload; once
  /// `crash_fired()` stays false the workload has no more crash points.
  void ScheduleCrash(uint64_t nth_mutating_op, CrashTear tear);

  /// True once a crash (immediate or scheduled) has fired and the env has
  /// not been rearmed.  Cleared by Crash*/ScheduleCrash/ClearFaults.
  bool crash_fired() const;

  // -- Error injection -------------------------------------------------------

  /// The Nth (0-based, counted from this call) subsequent operation of kind
  /// `op` fails with `error`.  With `sticky` (default), every *mutating*
  /// operation after the failure also fails with `error` — a dying disk.
  /// One plan at a time; a new call replaces the previous plan.
  void FailNth(FaultOp op, uint64_t nth, Status error, bool sticky = true);

  /// Legacy dying-disk knob: after `n` more successful Sync() calls, every
  /// subsequent mutating operation fails with kIOError.  n < 0 disables.
  void FailAfterSyncs(int n);

  /// Disarms every failure plan and scheduled crash and clears the sticky
  /// failing state (file contents are untouched; crash_fired() resets).
  void ClearFaults();

  /// Journals every fired injection (scheduled crash, FailNth trigger) as a
  /// kFaultInjection record, so diagnostics dumps show *which* simulated
  /// fault preceded a poison.  Null disables (the default).  The log must
  /// outlive this env or be cleared with set_event_log(nullptr).
  void set_event_log(EventLog* log);

  // -- Accounting ------------------------------------------------------------

  /// Snapshot of the cumulative operation counters.
  IoCounts counts() const;

  /// Mutating operations attempted since construction or ResetCounts()
  /// (the clock ScheduleCrash counts against is separate and restarts at
  /// each ScheduleCrash call).
  uint64_t mutating_op_count() const;

  /// Successful Sync() calls observed (legacy accessor; injected failures
  /// are not counted — use counts().of(FaultOp::kSync) for attempts).
  int sync_count() const;

  /// Zeroes the cumulative counters (does not affect armed plans).
  void ResetCounts();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ode

#endif  // ODE_STORAGE_FAULT_ENV_H_
