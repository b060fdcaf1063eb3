#ifndef ODE_STORAGE_WAL_H_
#define ODE_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/page.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ode {

struct StorageMetrics;

/// Kinds of write-ahead-log records.
enum class WalRecordType : uint8_t {
  kBegin = 1,      ///< Transaction started.
  kPageImage = 2,  ///< Full after-image of one page.
  kCommit = 3,     ///< Transaction committed (durable once this is synced).
  kPageDelta = 4,  ///< Changed byte ranges of one page, as after-images.
};

/// One changed byte range of a kPageDelta: the page's bytes at `offset`
/// after the transaction.
struct WalRange {
  uint16_t offset = 0;
  std::string bytes;
};

/// One decoded WAL record (page records carry the page id and bytes).
struct WalRecord {
  WalRecordType type;
  uint64_t txn_id;
  PageId page_id = kInvalidPageId;  // kPageImage and kPageDelta.
  std::string image;                // kPageImage only, kPageSize bytes.
  std::vector<WalRange> ranges;     // kPageDelta only.
};

/// Statistics about a completed recovery pass.
struct RecoveryStats {
  uint64_t committed_txns = 0;
  uint64_t discarded_txns = 0;  ///< Begun but never committed (crash victims).
  uint64_t images_replayed = 0;  ///< Committed kPageImage records applied.
  uint64_t deltas_replayed = 0;  ///< Committed kPageDelta records applied.
  uint64_t records_scanned = 0;
  bool tail_truncated = false;  ///< A torn/corrupt tail record was dropped.
};

/// Append-only redo log of page after-images, kept in two fixed files:
/// `path` and the spare `path + ".1"`.  Both are created at Open; appends go
/// to one of them (the active file) at a time.
///
/// A page is logged either as a kPageImage (the whole page; trailing zeros
/// are suppressed on disk and re-padded during recovery) or as a kPageDelta
/// (the absolute after-image of each byte range the transaction changed).
/// Absolute ranges keep redo idempotent, but a delta means nothing without
/// the page it patches, so the log carries its own base: a page's first
/// record in each file is a kPageImage.  Every file therefore replays alone,
/// and recovery never reads the data file — which also repairs a data page
/// torn by a checkpoint write, as PostgreSQL's full_page_writes does.
///
/// Protocol (enforced by StorageEngine): every page a transaction modifies is
/// logged as a kPageImage or kPageDelta record, followed by kCommit, followed
/// by Sync().  Dirty pages reach the data file only at checkpoints, strictly
/// after their commit record is durable — so recovery is pure redo: rebuild
/// the pages of committed transactions from the log, in log order, and
/// ignore everything else.
///
/// A fuzzy checkpoint retires the log in two steps.  Under the engine's
/// exclusive apply latch, after group commit has drained, Roll() switches
/// appends to the spare file — only when the spare is empty.  Outside the
/// latch, once the copied dirty pages are written and the data file is
/// fsynced, TruncateSpare() empties the now-inactive file durably.  No file
/// is created, renamed or deleted per checkpoint.
///
/// Log order across the two files: transaction ids only grow within one
/// engine lifetime, and the engine empties both files after recovery, so
/// the file whose first record has the smaller transaction id is the older
/// one.  Recovery replays the older file, then the newer one; since each
/// file opens every page with a full image, replaying pages the data file
/// already holds is harmless.
///
/// Record wire format:
///   u32 payload length | u32 masked CRC32C of payload | payload
/// A record whose length or CRC does not check out is treated as the torn
/// tail of an interrupted append: it and everything after it — including the
/// whole newer file — are discarded.
class Wal {
 public:
  /// Opens (creating if absent) `path` and its spare; appends go to `path`.
  static StatusOr<std::unique_ptr<Wal>> Open(Env* env, const std::string& path);

  Status AppendBegin(uint64_t txn_id);
  Status AppendPageImage(uint64_t txn_id, PageId page_id, const char* image);
  /// Logs the page change from `before` to `after` (see EncodePageChange).
  Status AppendPageChange(uint64_t txn_id, PageId page_id, const char* before,
                          const char* after);
  Status AppendCommit(uint64_t txn_id);

  // -- Group-commit support --------------------------------------------------
  //
  // A committing transaction serializes its whole record sequence (Begin,
  // one page record per dirtied page, Commit) into one pre-framed blob
  // under the engine's apply latch, then hands the blob to the group-commit
  // queue; the leader writes many blobs with one Append each and a single
  // fsync.  Each Encode* call appends one fully framed record (identical
  // wire format to the Append* methods above) to `*out`, so a recovered log
  // cannot tell batched and unbatched commits apart.

  static void EncodeBegin(uint64_t txn_id, std::string* out);
  static void EncodePageImage(uint64_t txn_id, PageId page_id,
                              const char* image, std::string* out);
  /// Appends the record that takes page `page_id` from `before` to `after`:
  /// a kPageDelta of the changed byte ranges (ranges at most kMaxRangeGap
  /// bytes apart are merged), or a kPageImage of `after` when the delta
  /// would not be smaller.  Returns the type appended.
  static WalRecordType EncodePageChange(uint64_t txn_id, PageId page_id,
                                        const char* before, const char* after,
                                        std::string* out);
  /// Unchanged bytes a delta range absorbs rather than start a new range.
  static constexpr size_t kMaxRangeGap = 8;
  static void EncodeCommit(uint64_t txn_id, std::string* out);

  /// Appends a pre-framed blob of `record_count` records in one file write
  /// to the active file.
  Status AppendBlob(const std::string& framed, uint64_t record_count);

  /// Durably flushes the active file.
  Status Sync();

  // -- Checkpoint support ----------------------------------------------------

  /// True when the spare file holds no records, so Roll() may switch to it.
  bool spare_empty() const;

  /// Switches appends to the (empty) spare file.  The caller guarantees no
  /// Append or Sync is in flight: the engine rolls under its exclusive apply
  /// latch right after draining group commit.
  void Roll();

  /// Empties the inactive file durably (truncate, then fsync) and returns
  /// the bytes it held.  Safe to run while appends go to the active file.
  /// On failure the file counts as non-empty, so the next checkpoint retries
  /// instead of rolling into it.
  StatusOr<uint64_t> TruncateSpare();

  /// Empties both files durably (after Recover has applied them).  The
  /// file whose records are replayed first — or, when a torn older file
  /// dropped the newer one, the dropped file — is emptied first, so a crash
  /// between the two truncates leaves a log whose replay repeats a suffix
  /// of what recovery already applied: never an older image over a newer.
  Status TruncateAll();

  /// Rebuilds the pages of committed transactions from both files, older
  /// file first, writes them into `disk`, then syncs it.  Never reads
  /// `disk`: a kPageDelta whose page has no earlier committed kPageImage in
  /// the same file is Corruption.
  StatusOr<RecoveryStats> Recover(DiskManager* disk);

  /// Decodes every well-formed record of both files in replay order (stops
  /// at a torn tail).  For tests and fuzzing.
  StatusOr<std::vector<WalRecord>> ReadAll();

  /// Total bytes ever appended through this handle.
  uint64_t bytes_appended() const {
    return bytes_appended_.load(std::memory_order_relaxed);
  }
  /// Bytes the two files hold now: records no checkpoint has retired yet.
  uint64_t live_bytes() const {
    return files_[0].bytes.load(std::memory_order_relaxed) +
           files_[1].bytes.load(std::memory_order_relaxed);
  }
  uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }

  /// Attaches the owning engine's instrument bundle (appends, bytes, fsyncs
  /// and their latencies record into it).  Null = no metrics.
  void set_metrics(StorageMetrics* metrics) { metrics_ = metrics; }

 private:
  struct LogFile {
    std::unique_ptr<File> file;
    /// Bytes appended since the file was last emptied durably.  Written by
    /// the group-commit leader (active file) or the checkpoint (inactive
    /// file), read by monitoring threads.
    std::atomic<uint64_t> bytes{0};
  };

  Wal() = default;

  LogFile& active() { return files_[active_.load(std::memory_order_acquire)]; }
  LogFile& spare() {
    return files_[1 - active_.load(std::memory_order_acquire)];
  }

  /// Scans one file; fills `records`.  Sets `tail_truncated` if a torn tail
  /// was found.
  static Status Scan(File* file, std::vector<WalRecord>* records,
                     bool* tail_truncated);
  /// Scans both files and concatenates them in log order (see class
  /// comment); a torn tail in the older file drops the newer one.  Sets
  /// `*newer_begin` to the index of the newer file's first record and
  /// `*retire_first` to the index of the file TruncateAll must empty first.
  Status ScanInLogOrder(std::vector<WalRecord>* records, bool* tail_truncated,
                        size_t* newer_begin, int* retire_first);

  LogFile files_[2];
  /// Index of the file appends go to.  Changed only by Roll, which the
  /// engine serializes against every append and sync.
  std::atomic<int> active_{0};
  /// Index of the file TruncateAll empties first; set by Recover.
  int retire_first_ = 0;
  // Written only by the group-commit leader, but read by any thread via
  // the monitoring accessors above (Database::stats() runs concurrently
  // with a committing writer), so both must be atomic.
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> sync_count_{0};
  StorageMetrics* metrics_ = nullptr;
};

}  // namespace ode

#endif  // ODE_STORAGE_WAL_H_
