#include "storage/wal.h"

#include <cassert>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <utility>

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

/// Bytes of `image` up to its last non-zero byte: what a kPageImage stores.
size_t EffectiveLength(const char* image) {
  size_t effective = kPageSize;
  while (effective > 0 && image[effective - 1] == '\0') --effective;
  return effective;
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
  const size_t effective = EffectiveLength(image);

  std::string payload;
  payload.reserve(1 + 10 + 4 + 5 + effective);
  payload.push_back(static_cast<char>(WalRecordType::kPageImage));
  PutVarint64(&payload, txn_id);
  PutFixed32(&payload, page_id);
  PutVarint64(&payload, effective);
  payload.append(image, effective);
  Frame(payload, out);
}

WalRecordType Wal::EncodePageChange(uint64_t txn_id, PageId page_id,
                                    const char* before, const char* after,
                                    std::string* out) {
  static_assert(kPageSize <= UINT16_MAX, "delta offsets and lengths are u16");
  // Changed bytes as [begin, end) ranges.  A gap of at most kMaxRangeGap
  // unchanged bytes joins the range before it: that costs at most a few
  // bytes over a second 4-byte range header and keeps the list short.
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t i = 0; i < kPageSize;) {
    if (i + 8 <= kPageSize && std::memcmp(before + i, after + i, 8) == 0) {
      i += 8;
      continue;
    }
    if (before[i] == after[i]) {
      ++i;
      continue;
    }
    size_t end = i + 1;
    while (end < kPageSize && before[end] != after[end]) ++end;
    if (!ranges.empty() && i - ranges.back().second <= kMaxRangeGap) {
      ranges.back().second = end;
    } else {
      ranges.emplace_back(i, end);
    }
    i = end;
  }

  // Both record kinds share the type, txn id and page id; compare the rest.
  size_t delta_size = VarintLength(ranges.size());
  for (const auto& [begin, end] : ranges) delta_size += 4 + (end - begin);
  const size_t effective = EffectiveLength(after);
  if (delta_size >= VarintLength(effective) + effective) {
    EncodePageImage(txn_id, page_id, after, out);
    return WalRecordType::kPageImage;
  }

  std::string payload;
  payload.reserve(1 + 10 + 4 + delta_size);
  payload.push_back(static_cast<char>(WalRecordType::kPageDelta));
  PutVarint64(&payload, txn_id);
  PutFixed32(&payload, page_id);
  PutVarint64(&payload, ranges.size());
  for (const auto& [begin, end] : ranges) {
    PutFixed16(&payload, static_cast<uint16_t>(begin));
    PutFixed16(&payload, static_cast<uint16_t>(end - begin));
    payload.append(after + begin, end - begin);
  }
  Frame(payload, out);
  return WalRecordType::kPageDelta;
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

Status Wal::AppendPageChange(uint64_t txn_id, PageId page_id,
                             const char* before, const char* after) {
  std::string framed;
  EncodePageChange(txn_id, page_id, before, after, &framed);
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
      case WalRecordType::kPageDelta: {
        record.type = WalRecordType::kPageDelta;
        uint32_t pid = 0;
        uint64_t count = 0;
        s = reader.ReadU32(&pid);
        if (s.ok()) s = reader.ReadVarint64(&count);
        // Every range takes at least its 4-byte header, which bounds
        // `count` by the payload before anything is allocated.
        if (s.ok() && count > reader.remaining() / 4) {
          s = Status::Corruption("delta range count");
        }
        record.page_id = pid;
        for (uint64_t i = 0; s.ok() && i < count; ++i) {
          uint16_t range_offset = 0;
          uint16_t range_len = 0;
          Slice bytes;
          s = reader.ReadU16(&range_offset);
          if (s.ok()) s = reader.ReadU16(&range_len);
          if (s.ok() && size_t{range_offset} + range_len > kPageSize) {
            s = Status::Corruption("delta range past the page end");
          }
          if (s.ok()) s = reader.ReadRaw(range_len, &bytes);
          if (s.ok()) record.ranges.push_back({range_offset, bytes.ToString()});
        }
        if (!s.ok() || reader.remaining() != 0) {
          *tail_truncated = true;
          return Status::OK();
        }
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
                           bool* tail_truncated, size_t* newer_begin,
                           int* retire_first) {
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
  *newer_begin = records->size();
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
  size_t newer_begin = 0;
  int retire_first = 0;
  ODE_RETURN_IF_ERROR(ScanInLogOrder(&records, &tail_truncated, &newer_begin,
                                     &retire_first));
  return records;
}

StatusOr<RecoveryStats> Wal::Recover(DiskManager* disk) {
  std::vector<WalRecord> records;
  RecoveryStats stats;
  size_t newer_begin = 0;
  ODE_RETURN_IF_ERROR(ScanInLogOrder(&records, &stats.tail_truncated,
                                     &newer_begin, &retire_first_));
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

  // Redo in log order, in memory: a page is its latest full image patched
  // by every later delta, which is last-committed-writer-wins.  `based`
  // holds the pages the file being replayed has opened with a full image;
  // a delta may only patch one of those, so no page depends on the data
  // file or on a file that a checkpoint has retired.
  std::map<PageId, std::string> pages;
  std::set<PageId> based;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == newer_begin) based.clear();
    WalRecord& r = records[i];
    if (committed.count(r.txn_id) == 0) continue;
    if (r.type == WalRecordType::kPageImage) {
      pages[r.page_id] = std::move(r.image);
      based.insert(r.page_id);
      ++stats.images_replayed;
    } else if (r.type == WalRecordType::kPageDelta) {
      if (based.count(r.page_id) == 0) {
        return Status::Corruption(
            "WAL delta for page " + std::to_string(r.page_id) +
            " has no full image earlier in its file");
      }
      std::string& page = pages[r.page_id];
      for (const WalRange& range : r.ranges) {
        page.replace(range.offset, range.bytes.size(), range.bytes);
      }
      ++stats.deltas_replayed;
    }
  }
  for (const auto& [pid, image] : pages) {
    ODE_RETURN_IF_ERROR(disk->WritePage(pid, image.data()));
  }
  if (!pages.empty()) {
    ODE_RETURN_IF_ERROR(disk->Sync());
  }
  ODE_LOG_INFO << "WAL recovery: " << stats.committed_txns
               << " committed txns, " << stats.images_replayed
               << " page images and " << stats.deltas_replayed
               << " page deltas replayed, " << pages.size()
               << " pages written, " << stats.discarded_txns << " discarded";
  return stats;
}

}  // namespace ode
