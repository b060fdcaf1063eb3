#ifndef ODE_UTIL_EVENT_LOG_H_
#define ODE_UTIL_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ode {

class JsonWriter;

// ---------------------------------------------------------------------------
// Structured event journal (the flight recorder's memory)
// ---------------------------------------------------------------------------
//
// An EventLog is an always-on, bounded journal of typed engine events: every
// record says *what happened* (txn commit, group-commit batch, checkpoint,
// vacuum step, poison, injected fault, slow op, ...) with a global sequence
// number, a timestamp, and up to three numeric arguments whose meaning is
// fixed per type (see the EventType docs).  When the engine poisons itself
// or a crash-matrix run fails, the journal is what the diagnostics dump
// snapshots — the last few thousand engine decisions, in order.
//
// The recording path follows the Tracer's design (util/trace.h): each
// thread owns a ring buffer guarded by its own mutex, contended only by a
// concurrent snapshot/drain, so recording never takes a shared lock.  The
// only cross-thread state touched on record is one relaxed fetch_add for
// the global sequence number.  When a ring wraps before a drain the oldest
// records are overwritten and counted in dropped_events() — journaling
// never blocks the journaled operation.
//
// Timestamps come from an internal lock-free monotone wall-micros source by
// default.  Tests inject a Clock (util/clock.h) for determinism; injected
// clocks are not required to be thread-safe, so that path serializes on a
// mutex (test-only, cost irrelevant there).

/// Event taxonomy.  The trailing comment gives the meaning of the numeric
/// args (a, b, c); unused args are 0.
enum class EventType : uint8_t {
  kTxnBegin = 0,        ///< a=txn_id
  kTxnCommit = 1,       ///< a=txn_id, b=dirty_pages, c=duration_us
  kTxnAbort = 2,        ///< a=txn_id
  kGroupCommitBatch = 3,///< a=batch_txns, b=bytes, c=durable_txn
  kCheckpoint = 4,      ///< a=pages_written, b=wal_bytes_retired,
                        ///< c=latch_held_us (apply latch held: drain, page
                        ///< copy and WAL roll; the rest runs unlatched)
  kVacuumStep = 5,      ///< a=tree_index, b=entries_copied, c=steps_done
  kPoison = 6,          ///< a=0; detail = cause status
  kFaultInjection = 7,  ///< a=op (FaultOp), b=countdown/crash flag
  kSlowOp = 8,          ///< a=duration_us, b=threshold_us; detail = op name
  kRecovery = 9,        ///< a=committed_txns, b=discarded_txns, c=page records
  kHealth = 10,         ///< a=state (0 ok / 1 degraded / 2 poisoned)
};

enum class EventSeverity : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

/// One journal record.  Fixed size — recording never allocates.
struct EventRecord {
  static constexpr size_t kDetailBytes = 48;

  uint64_t seq = 0;        ///< Global total order across all threads.
  uint64_t ts_micros = 0;  ///< From the log's clock source.
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  EventType type = EventType::kTxnBegin;
  EventSeverity severity = EventSeverity::kDebug;
  uint32_t tid = 0;        ///< Log-assigned dense thread index.
  char detail[kDetailBytes] = {};  ///< NUL-terminated, truncated to fit.
};

class EventLog {
 public:
  /// `buffer_events` is the per-thread ring capacity (min 8);
  /// `ring_events` bounds the merged journal a snapshot/drain returns
  /// (oldest beyond the bound are discarded — the "global ring").
  explicit EventLog(size_t buffer_events = 1024, size_t ring_events = 8192,
                    Clock* clock = nullptr);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Records below this severity are dropped at the call site (one relaxed
  /// load + compare).  Default kDebug: everything is journaled.
  void set_min_severity(EventSeverity s) {
    min_severity_.store(static_cast<uint8_t>(s), std::memory_order_relaxed);
  }
  EventSeverity min_severity() const {
    return static_cast<EventSeverity>(
        min_severity_.load(std::memory_order_relaxed));
  }

  /// Master switch (A/B benches, paranoid deployments).  Disabled recording
  /// is one relaxed load and a branch.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one record to the calling thread's ring.  `detail` is copied
  /// (truncated to EventRecord::kDetailBytes - 1); pass only when the event
  /// carries text (poison cause, slow-op name).
  void Record(EventType type, EventSeverity severity, uint64_t a = 0,
              uint64_t b = 0, uint64_t c = 0, std::string_view detail = {});

  /// Copies the journal (merged across threads, ascending seq, capped to
  /// the newest `ring_events`) without consuming it — the flight recorder
  /// uses this so a dump does not erase evidence a later dump still wants.
  void Snapshot(std::vector<EventRecord>* out) const;

  /// Like Snapshot but consumes: drained records are not returned again.
  void Drain(std::vector<EventRecord>* out);

  /// Records overwritten because a ring wrapped before a drain.
  uint64_t dropped_events() const;
  /// Buffered (not yet drained) records across all threads.
  size_t pending_events() const;
  /// Total records ever accepted (= the next record's seq).
  uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  // --- Rendering / wire formats ---

  /// JSON array of record objects (stable schema: seq, ts_micros, type,
  /// severity, tid, a, b, c, detail).
  static std::string ToJson(const std::vector<EventRecord>& events);
  /// Appends one record as a JSON object to `w` (diagnostics dumps embed
  /// the journal inside a larger document).
  static void AppendJson(JsonWriter* w, const EventRecord& e);

  /// Compact binary frame: "ODEJ" magic, format version, record count,
  /// fixed-width little-endian records.  Round-trips through DecodeBinary.
  static void EncodeBinary(const std::vector<EventRecord>& events,
                           std::string* out);
  /// Returns false on a malformed frame (bad magic/version/truncation).
  static bool DecodeBinary(std::string_view in,
                           std::vector<EventRecord>* out);

  static const char* TypeName(EventType t);
  static const char* SeverityName(EventSeverity s);

  /// The timestamp source records are stamped with (injected Clock, else the
  /// internal monotone wall-micros source).  Public so the diagnostics
  /// exporter stamps its documents with the same clock the journal uses.
  uint64_t NowMicros();

 private:
  struct ThreadBuffer {
    Mutex mu;
    std::vector<EventRecord> ring ODE_GUARDED_BY(mu);  // Fixed cap, wraps.
    uint64_t next ODE_GUARDED_BY(mu) = 0;      // Total records ever written.
    uint64_t drained_mark ODE_GUARDED_BY(mu) = 0;  // `next` at last drain.
    uint64_t dropped ODE_GUARDED_BY(mu) = 0;
    uint32_t tid = 0;  // Immutable once the buffer is published.
  };

  ThreadBuffer* BufferForThisThread();
  /// Shared walk for Snapshot/Drain; advances drained_mark when consuming.
  void Collect(std::vector<EventRecord>* out, bool consume) const;

  const size_t buffer_events_;
  const size_t ring_events_;
  const uint64_t id_;  // Distinguishes logs across create/destroy cycles.
  Clock* const clock_;            // Nullable; serialized by clock_mu_.
  mutable Mutex clock_mu_;        // Only used when clock_ != nullptr.
  std::atomic<uint64_t> wall_last_{0};  // Monotone floor for NowMicros().
  std::atomic<bool> enabled_{true};
  std::atomic<uint8_t> min_severity_{0};
  std::atomic<uint64_t> next_seq_{0};
  mutable Mutex mu_;  // Guards buffers_ (registration + drain).
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ ODE_GUARDED_BY(mu_);
  uint32_t next_tid_ ODE_GUARDED_BY(mu_) = 0;
};

}  // namespace ode

#endif  // ODE_UTIL_EVENT_LOG_H_
