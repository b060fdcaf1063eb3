#include "storage/wal.h"

#include <cassert>
#include <cstring>
#include <iterator>
#include <set>

#include "storage/storage_metrics.h"
#include "util/byte_buffer.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace ode {

StatusOr<std::unique_ptr<Wal>> Wal::Open(Env* env, const std::string& path) {
  auto wal = std::unique_ptr<Wal>(new Wal());
  const std::string paths[2] = {path, path + ".1"};
  for (int i = 0; i < 2; ++i) {
    auto file = env->OpenFile(paths[i]);
    if (!file.ok()) return file.status();
    auto size = (*file)->Size();
    if (!size.ok()) return size.status();
    wal->files_[i].file = std::move(*file);
    wal->files_[i].bytes.store(*size, std::memory_order_relaxed);
  }
  return wal;
}

namespace {

/// Wraps `payload` in the on-disk frame (u32 length | u32 masked CRC32C)
/// and appends the framed bytes to `*out`.
void Frame(const std::string& payload, std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  PutFixed32(out,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  out->append(payload);
}

}  // namespace

void Wal::EncodeBegin(uint64_t txn_id, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kBegin));
  PutVarint64(&payload, txn_id);
  Frame(payload, out);
}

void Wal::EncodePageImage(uint64_t txn_id, PageId page_id, const char* image,
                          std::string* out) {
  // Trailing zeros are suppressed: pages are often half-empty (fresh
  // slotted pages, short B+tree nodes), and recovery pads them back.
  size_t effective = kPageSize;
  while (effective > 0 && image[effective - 1] == '\0') --effective;

  std::string payload;
  payload.reserve(1 + 10 + 4 + 5 + effective);
  payload.push_back(static_cast<char>(WalRecordType::kPageImage));
  PutVarint64(&payload, txn_id);
  PutFixed32(&payload, page_id);
  PutVarint64(&payload, effective);
  payload.append(image, effective);
  Frame(payload, out);
}

void Wal::EncodeCommit(uint64_t txn_id, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kCommit));
  PutVarint64(&payload, txn_id);
  Frame(payload, out);
}

Status Wal::AppendBlob(const std::string& framed, uint64_t record_count) {
  LogFile& log = active();
  {
    ScopedLatency timer(metrics_ != nullptr ? metrics_->wal_append_ns
                                            : nullptr);
    ODE_RETURN_IF_ERROR(log.file->Append(Slice(framed)));
  }
  log.bytes.fetch_add(framed.size(), std::memory_order_relaxed);
  bytes_appended_.fetch_add(framed.size(), std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->wal_appends->Add(record_count);
    metrics_->wal_append_bytes->Add(framed.size());
  }
  return Status::OK();
}

Status Wal::AppendBegin(uint64_t txn_id) {
  std::string framed;
  EncodeBegin(txn_id, &framed);
  return AppendBlob(framed, 1);
}

Status Wal::AppendPageImage(uint64_t txn_id, PageId page_id,
                            const char* image) {
  std::string framed;
  EncodePageImage(txn_id, page_id, image, &framed);
  return AppendBlob(framed, 1);
}

Status Wal::AppendCommit(uint64_t txn_id) {
  std::string framed;
  EncodeCommit(txn_id, &framed);
  return AppendBlob(framed, 1);
}

Status Wal::Sync() {
  TraceSpan span(metrics_ != nullptr ? metrics_->tracer : nullptr, "wal.fsync",
                 "storage");
  ScopedLatency timer(metrics_ != nullptr ? metrics_->wal_fsync_ns : nullptr);
  ODE_RETURN_IF_ERROR(active().file->Sync());
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->wal_fsyncs->Increment();
  return Status::OK();
}

bool Wal::spare_empty() const {
  return files_[1 - active_.load(std::memory_order_acquire)].bytes.load(
             std::memory_order_relaxed) == 0;
}

void Wal::Roll() {
  assert(spare_empty());
  active_.store(1 - active_.load(std::memory_order_relaxed),
                std::memory_order_release);
}

StatusOr<uint64_t> Wal::TruncateSpare() {
  LogFile& log = spare();
  const uint64_t held = log.bytes.load(std::memory_order_relaxed);
  // Zero bytes since the last durable truncate: nothing to retire, and the
  // empty state is already on disk.
  if (held == 0) return uint64_t{0};
  ODE_RETURN_IF_ERROR(log.file->Truncate(0));
  ODE_RETURN_IF_ERROR(log.file->Sync());
  log.bytes.store(0, std::memory_order_relaxed);
  return held;
}

Status Wal::TruncateAll() {
  for (int i : {retire_first_, 1 - retire_first_}) {
    LogFile& log = files_[i];
    ODE_RETURN_IF_ERROR(log.file->Truncate(0));
    ODE_RETURN_IF_ERROR(log.file->Sync());
    log.bytes.store(0, std::memory_order_relaxed);
  }
  active_.store(0, std::memory_order_release);
  return Status::OK();
}

Status Wal::Scan(File* file, std::vector<WalRecord>* records,
                 bool* tail_truncated) {
  *tail_truncated = false;
  auto size_or = file->Size();
  if (!size_or.ok()) return size_or.status();
  const uint64_t file_size = *size_or;

  uint64_t offset = 0;
  std::string scratch;
  while (offset + 8 <= file_size) {
    Slice header;
    ODE_RETURN_IF_ERROR(file->Read(offset, 8, &scratch, &header));
    if (header.size() < 8) {
      *tail_truncated = true;
      break;
    }
    const uint32_t length = DecodeFixed32(header.data());
    const uint32_t masked_crc = DecodeFixed32(header.data() + 4);
    if (offset + 8 + length > file_size || length > (64u << 20)) {
      *tail_truncated = true;  // Torn append or garbage length.
      break;
    }
    std::string payload_scratch;
    Slice payload;
    ODE_RETURN_IF_ERROR(
        file->Read(offset + 8, length, &payload_scratch, &payload));
    if (payload.size() < length ||
        crc32c::Unmask(masked_crc) !=
            crc32c::Value(payload.data(), payload.size())) {
      *tail_truncated = true;
      break;
    }

    BufferReader reader(payload);
    uint8_t type_byte = 0;
    uint64_t txn_id = 0;
    Status s = reader.ReadU8(&type_byte);
    if (s.ok()) s = reader.ReadVarint64(&txn_id);
    if (!s.ok()) {
      *tail_truncated = true;
      break;
    }
    WalRecord record;
    record.txn_id = txn_id;
    switch (static_cast<WalRecordType>(type_byte)) {
      case WalRecordType::kBegin:
        record.type = WalRecordType::kBegin;
        break;
      case WalRecordType::kCommit:
        record.type = WalRecordType::kCommit;
        break;
      case WalRecordType::kPageImage: {
        record.type = WalRecordType::kPageImage;
        uint32_t pid = 0;
        uint64_t effective = 0;
        s = reader.ReadU32(&pid);
        if (s.ok()) s = reader.ReadVarint64(&effective);
        if (!s.ok() || effective > kPageSize ||
            reader.remaining() != effective) {
          *tail_truncated = true;
          return Status::OK();
        }
        record.page_id = pid;
        // Re-pad the suppressed trailing zeros.
        record.image.assign(reader.rest().data(), effective);
        record.image.resize(kPageSize, '\0');
        break;
      }
      default:
        *tail_truncated = true;
        return Status::OK();
    }
    records->push_back(std::move(record));
    offset += 8 + length;
  }
  if (offset < file_size && !*tail_truncated) *tail_truncated = true;
  return Status::OK();
}

Status Wal::ScanInLogOrder(std::vector<WalRecord>* records,
                           bool* tail_truncated, int* retire_first) {
  std::vector<WalRecord> scanned[2];
  bool torn[2] = {false, false};
  for (int i = 0; i < 2; ++i) {
    ODE_RETURN_IF_ERROR(Scan(files_[i].file.get(), &scanned[i], &torn[i]));
  }
  // The file whose first record has the smaller txn id is the older one; a
  // file without records takes no position, so it may go either way.
  const int older =
      !scanned[1].empty() &&
              (scanned[0].empty() ||
               scanned[1].front().txn_id < scanned[0].front().txn_id)
          ? 1
          : 0;
  const int newer = 1 - older;
  *records = std::move(scanned[older]);
  *tail_truncated = torn[older];
  // The older file is retired first: should the newer one outlive it, its
  // replay repeats the images recovery applied last.  A torn older file
  // ends the log (records after the tear would replay over a gap), so then
  // the dropped newer file goes first and can never replay alone.
  *retire_first = torn[older] ? newer : older;
  if (!torn[older]) {
    records->insert(records->end(),
                    std::make_move_iterator(scanned[newer].begin()),
                    std::make_move_iterator(scanned[newer].end()));
    *tail_truncated = torn[newer];
  }
  return Status::OK();
}

StatusOr<std::vector<WalRecord>> Wal::ReadAll() {
  std::vector<WalRecord> records;
  bool tail_truncated = false;
  int retire_first = 0;
  ODE_RETURN_IF_ERROR(ScanInLogOrder(&records, &tail_truncated, &retire_first));
  return records;
}

StatusOr<RecoveryStats> Wal::Recover(DiskManager* disk) {
  std::vector<WalRecord> records;
  RecoveryStats stats;
  ODE_RETURN_IF_ERROR(
      ScanInLogOrder(&records, &stats.tail_truncated, &retire_first_));
  stats.records_scanned = records.size();

  std::set<uint64_t> committed;
  std::set<uint64_t> begun;
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kBegin) begun.insert(r.txn_id);
    if (r.type == WalRecordType::kCommit) committed.insert(r.txn_id);
  }
  stats.committed_txns = committed.size();
  for (uint64_t t : begun) {
    if (committed.count(t) == 0) ++stats.discarded_txns;
  }

  // Redo in log order: later images of the same page overwrite earlier ones,
  // which is exactly the desired last-committed-writer-wins semantics.
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kPageImage && committed.count(r.txn_id) > 0) {
      ODE_RETURN_IF_ERROR(disk->WritePage(r.page_id, r.image.data()));
      ++stats.pages_replayed;
    }
  }
  if (stats.pages_replayed > 0) {
    ODE_RETURN_IF_ERROR(disk->Sync());
  }
  ODE_LOG_INFO << "WAL recovery: " << stats.committed_txns
               << " committed txns, " << stats.pages_replayed
               << " pages replayed, " << stats.discarded_txns << " discarded";
  return stats;
}

}  // namespace ode
