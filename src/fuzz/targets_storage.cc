#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/fuzz.h"
#include "storage/btree.h"
#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/payload_store.h"
#include "storage/slotted_page.h"
#include "storage/storage_engine.h"
#include "storage/superblock.h"
#include "storage/wal.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/slice.h"

// Harnesses for the disk trust boundary: every byte of the database file
// and the WAL is untrusted until a decoder validates it.  PageHandle can
// only be minted by a BufferPool, so the page-level targets drive the REAL
// stack — build a pristine database with the engine, corrupt its bytes the
// way bit rot would, reopen, and read — rather than a mocked PageIO.

namespace ode {
namespace fuzz {
namespace {

Status WriteWholeFile(Env* env, const std::string& path, const Slice& bytes) {
  auto f = env->OpenFile(path);
  if (!f.ok()) return f.status();
  ODE_RETURN_IF_ERROR((*f)->Truncate(0));
  return (*f)->Append(bytes);
}

std::string ReadWholeFile(Env* env, const std::string& path) {
  auto f = env->OpenFile(path);
  if (!f.ok()) return {};
  auto size = (*f)->Size();
  if (!size.ok()) return {};
  std::string scratch;
  Slice out;
  if (!(*f)->Read(0, *size, &scratch, &out).ok()) return {};
  return out.ToString();
}

struct BaselineDb {
  std::string image;              ///< data.odb bytes after a checkpoint.
  std::vector<RecordId> records;  ///< Live heap records (incl. spanning).
};

/// Builds one pristine database through the real engine: a populated
/// catalog B+tree in root slot 0 plus inline and overflow-spanning heap
/// records.  Built once per process; every fuzz iteration corrupts a copy.
const BaselineDb& Baseline() {
  static const BaselineDb db = [] {
    BaselineDb out;
    MemEnv env;
    StorageOptions opts;
    opts.env = &env;
    opts.path = "/db";
    opts.buffer_pool_pages = 128;
    auto engine = StorageEngine::Open(opts);
    if (!engine.ok()) return out;
    const Status s = (*engine)->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 0);
      if (!tree.ok()) return tree.status();
      for (int i = 0; i < 64; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "key%03d", i);
        const std::string value(static_cast<size_t>(i) * 7 + 1,
                                static_cast<char>('a' + i % 26));
        ODE_RETURN_IF_ERROR(tree->Put(Slice(key), Slice(value)));
      }
      HeapFile& heap = (*engine)->heap();
      for (int i = 0; i < 8; ++i) {
        const std::string payload(static_cast<size_t>(i) * 97 + 5, 'h');
        auto rid = heap.Insert(&txn, Slice(payload));
        if (!rid.ok()) return rid.status();
        out.records.push_back(*rid);
      }
      // Large enough for a multi-page overflow chain.
      auto rid = heap.Insert(&txn, Slice(std::string(3 * kPageSize, 'O')));
      if (!rid.ok()) return rid.status();
      out.records.push_back(*rid);
      return Status::OK();
    });
    if (!s.ok()) return out;
    if (!(*engine)->Checkpoint().ok()) return out;
    (*engine)->Shutdown();
    engine->reset();
    out.image = ReadWholeFile(&env, "/db/data.odb");
    return out;
  }();
  return db;
}

/// Applies input-directed corruption to `image`, never touching page 0:
/// the superblock has its own target, and keeping it intact here means
/// every iteration reaches the page decoders instead of dying at the magic
/// check.  Front of the input = scattered byte pokes ([3-byte offset][new
/// byte] each); the rest = one contiguous splice.
void CorruptImage(std::string* image, const uint8_t* data, size_t size) {
  if (image->size() <= kPageSize) return;
  const size_t span = image->size() - kPageSize;
  const size_t pokes = std::min<size_t>(size / 4, 32);
  size_t i = 0;
  for (size_t p = 0; p < pokes; ++p, i += 4) {
    const uint32_t raw = static_cast<uint32_t>(data[i]) |
                         (static_cast<uint32_t>(data[i + 1]) << 8) |
                         (static_cast<uint32_t>(data[i + 2]) << 16);
    (*image)[kPageSize + raw % span] = static_cast<char>(data[i + 3]);
  }
  if (i + 4 <= size) {
    const uint32_t raw = static_cast<uint32_t>(data[i]) |
                         (static_cast<uint32_t>(data[i + 1]) << 8) |
                         (static_cast<uint32_t>(data[i + 2]) << 16);
    const size_t off = kPageSize + raw % span;
    const size_t n = std::min(size - (i + 3), image->size() - off);
    std::memcpy(&(*image)[off], data + i + 3, n);
  }
}

StatusOr<std::unique_ptr<StorageEngine>> OpenOver(MemEnv* env,
                                                  const Slice& image) {
  (void)env->CreateDir("/db");
  ODE_RETURN_IF_ERROR(WriteWholeFile(env, "/db/data.odb", image));
  StorageOptions opts;
  opts.env = env;
  opts.path = "/db";
  opts.buffer_pool_pages = 64;
  return StorageEngine::Open(opts);
}

/// Runs the engine's own two-file ordering and replay (Wal::Open over
/// `wal.log` and its spare, then Recover) on hostile file contents.
void ReplayWalFiles(const Slice& file0, const Slice& file1) {
  MemEnv env;
  (void)env.CreateDir("/fz");
  (void)WriteWholeFile(&env, "/fz/wal.log", file0);
  (void)WriteWholeFile(&env, "/fz/wal.log.1", file1);
  auto wal = Wal::Open(&env, "/fz/wal.log");
  if (!wal.ok()) return;
  auto records = (*wal)->ReadAll();
  if (!records.ok()) return;
  // Replay only when every page record targets a small page id: CRC-valid
  // records are trusted by design (the corruption model is bit rot and torn
  // appends, which the CRC catches), so a huge page id here would just ask
  // MemEnv for a terabyte file — harness OOM, not a decoder defect.
  for (const WalRecord& r : *records) {
    if ((r.type == WalRecordType::kPageImage ||
         r.type == WalRecordType::kPageDelta) &&
        r.page_id > 64) {
      return;
    }
  }
  auto disk = DiskManager::Open(&env, "/fz/data.odb");
  if (!disk.ok()) return;
  auto stats = (*wal)->Recover(disk->get());
  if (stats.ok()) {
    // Recovery and ReadAll must agree on the log they saw.
    ODE_FUZZ_REQUIRE(stats->records_scanned == records->size());
  }
}

/// WAL framing + record decode + two-file ordering + recovery replay over
/// hostile log bytes.  Input layout: u32 n | n bytes of `wal.log` | the
/// rest is the spare file `wal.log.1` (n is clamped to what is there).
int WalReplay(const uint8_t* data, size_t size) {
  const char* bytes = reinterpret_cast<const char*>(data);
  size_t split = 0;
  size_t body = 0;
  if (size >= 4) {
    body = 4;
    split = std::min<size_t>(DecodeFixed32(bytes), size - body);
  }
  // Phase 1: the raw bytes are the log files — exercises the frame scan
  // (lengths, CRCs, torn-tail discipline) and the choice of older file.
  ReplayWalFiles(Slice(bytes + body, split),
                 Slice(bytes + body + split, size - body - split));
  // Phase 2: chunk the input and reframe each chunk with a CORRECT CRC so
  // the scan gets past the checksum gate and the record-level decode
  // (type, txn id, page id, image length, delta ranges) sees hostile
  // bytes it would otherwise never reach.  Each chunk's first byte picks
  // its file, so both files carry hostile txn ids into the ordering.
  std::string framed[2];
  size_t pos = 0;
  int chunks = 0;
  while (pos < size && chunks < 16) {
    const size_t n = std::min<size_t>(size - pos, 1 + data[pos] % 96);
    std::string& out = framed[data[pos] >> 7];
    PutFixed32(&out, static_cast<uint32_t>(n));
    PutFixed32(&out, crc32c::Mask(crc32c::Value(bytes + pos, n)));
    out.append(bytes + pos, n);
    pos += n;
    ++chunks;
  }
  ReplayWalFiles(Slice(framed[0]), Slice(framed[1]));
  return 0;
}

/// Slotted-page decode over a raw hostile page image (the one page-level
/// structure that needs no engine: SlottedPage wraps any 4 KiB buffer).
int PageSlotted(const uint8_t* data, size_t size) {
  char page[kPageSize];
  std::memset(page, 0, sizeof(page));
  std::memcpy(page, data, std::min<size_t>(size, kPageSize));
  SlottedPage view(page);
  (void)view.IsHeapPage();
  const uint16_t n = view.SlotCount();
  (void)view.LiveSlots();
  (void)view.FreeSpace();
  for (uint16_t i = 0; i < n; ++i) {
    auto cell = view.Get(i);
    if (cell.ok()) {
      ODE_FUZZ_REQUIRE(cell->data() >= page &&
                       cell->data() + cell->size() <= page + kPageSize);
    }
  }
  (void)view.Get(n);       // One past the directory.
  (void)view.Get(0xffff);  // Far out of range.
  (void)view.Insert(Slice("fuzz-insert"));
  if (n > 0) {
    (void)view.Update(0, Slice("upd"));
    (void)view.Delete(static_cast<uint16_t>(n / 2));
  }
  view.Compact();
  for (uint16_t i = 0; i < view.SlotCount(); ++i) {
    auto cell = view.Get(i);
    if (cell.ok()) {
      ODE_FUZZ_REQUIRE(cell->data() >= page &&
                       cell->data() + cell->size() <= page + kPageSize);
    }
  }
  (void)view.Insert(Slice(std::string(SlottedPage::kMaxCellSize, 'x')));
  return 0;
}

/// B+tree node decode: corrupt a real database's pages, reopen through the
/// real engine, and run every read path (point get, both scan directions,
/// seeks).  Typed Corruption or missing data — never a crash.
int PageBtree(const uint8_t* data, size_t size) {
  const BaselineDb& base = Baseline();
  if (base.image.empty()) return 0;
  std::string image = base.image;
  CorruptImage(&image, data, size);
  MemEnv env;
  auto engine = OpenOver(&env, Slice(image));
  if (!engine.ok()) return 0;
  (void)(*engine)->WithReadTxn([](ReadTxn& txn) -> Status {
    auto tree = BTree::Open(&txn, 0);
    if (!tree.ok()) return Status::OK();
    (void)tree->Get(Slice("key010"));
    (void)tree->Get(Slice("key063"));
    (void)tree->Get(Slice("absent"));
    (void)tree->Count();
    (void)tree->Height();
    auto it = tree->NewIterator();
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
    }
    for (it.SeekToLast(); it.Valid(); it.Prev()) {
    }
    it.Seek(Slice("key02"));
    it.SeekForPrev(Slice("key05"));
    return Status::OK();
  });
  (*engine)->Shutdown();
  return 0;
}

/// Heap record decode: cell tags, spanning heads, overflow chains
/// (including cycles and wrong chunk lengths) over a corrupted real
/// database.
int HeapRecord(const uint8_t* data, size_t size) {
  const BaselineDb& base = Baseline();
  if (base.image.empty()) return 0;
  std::string image = base.image;
  CorruptImage(&image, data, size);
  MemEnv env;
  auto engine = OpenOver(&env, Slice(image));
  if (!engine.ok()) return 0;
  (void)(*engine)->WithReadTxn([&](ReadTxn& txn) -> Status {
    HeapFile heap;
    for (const RecordId& rid : base.records) {
      (void)heap.Read(&txn, rid);
    }
    if (size >= 4) {
      // One fuzz-chosen record address (bounded page id so the fetch hits
      // real or near-EOF pages instead of always reading zeroes).
      RecordId rid;
      rid.page = static_cast<PageId>(1 + (data[0] | (data[1] << 8)) % 64);
      rid.slot = static_cast<uint16_t>(data[2] | (data[3] << 8));
      (void)heap.Read(&txn, rid);
    }
    (void)heap.ForEach(&txn, [](RecordId, const Slice&) { return true; });
    (void)heap.Stats(&txn);
    return Status::OK();
  });
  (*engine)->Shutdown();
  return 0;
}

/// Superblock decode: the input IS page 0 (and anything after it).  Also
/// drives a whole-engine open, whose bootstrap path must either accept,
/// typed-reject, or re-initialize — never crash.
int SuperblockTarget(const uint8_t* data, size_t size) {
  {
    char page[kPageSize];
    std::memset(page, 0, sizeof(page));
    std::memcpy(page, data, std::min<size_t>(size, kPageSize));
    ConstSuperblockView view(page);
    (void)view.IsValid();
    (void)view.page_count();
    (void)view.free_list_head();
    for (int s = 0; s < ConstSuperblockView::kNumRoots; ++s) {
      (void)view.root(s);
    }
    for (int c = 0; c < ConstSuperblockView::kNumCounters; ++c) {
      (void)view.counter(c);
    }
  }
  MemEnv env;
  auto engine =
      OpenOver(&env, Slice(reinterpret_cast<const char*>(data), size));
  if (!engine.ok()) return 0;
  (void)(*engine)->WithReadTxn([](ReadTxn& txn) -> Status {
    for (int s = 0; s < ConstSuperblockView::kNumRoots; ++s) {
      (void)txn.GetRoot(s);
    }
    for (int c = 0; c < ConstSuperblockView::kNumCounters; ++c) {
      (void)txn.GetCounter(c);
    }
    (void)txn.PageCount();
    auto tree = BTree::Open(&txn, 0);
    if (tree.ok()) {
      (void)tree->Get(Slice("k"));
      auto it = tree->NewIterator();
      it.SeekToFirst();
      for (int i = 0; i < 32 && it.Valid(); ++i) it.Next();
    }
    return Status::OK();
  });
  (*engine)->Shutdown();
  return 0;
}

/// Payload-store index entry decode (+ canonical round trip on accept).
int PayloadEntry(const uint8_t* data, size_t size) {
  PayloadStoreEntry entry;
  const Status s = DecodePayloadStoreEntry(
      Slice(reinterpret_cast<const char*>(data), size), &entry);
  if (!s.ok()) return 0;
  const std::string encoded = EncodePayloadStoreEntry(entry);
  PayloadStoreEntry again;
  ODE_FUZZ_REQUIRE(DecodePayloadStoreEntry(Slice(encoded), &again).ok());
  ODE_FUZZ_REQUIRE(again.refcount == entry.refcount);
  ODE_FUZZ_REQUIRE(again.size == entry.size);
  ODE_FUZZ_REQUIRE(again.rid == entry.rid);
  return 0;
}

}  // namespace

void RegisterStorageTargets() {
  RegisterFuzzTarget("wal_replay",
                     "WAL frame scan, record decode, recovery replay",
                     WalReplay);
  RegisterFuzzTarget("page_slotted", "slotted heap page decode + mutation",
                     PageSlotted);
  RegisterFuzzTarget("page_btree",
                     "B+tree node decode via corrupted real database",
                     PageBtree);
  RegisterFuzzTarget("heap_record",
                     "heap cell tags + overflow chains via corrupted real "
                     "database",
                     HeapRecord);
  RegisterFuzzTarget("superblock", "superblock decode + engine bootstrap",
                     SuperblockTarget);
  RegisterFuzzTarget("payload_entry",
                     "content-addressed payload index entry codec",
                     PayloadEntry);
}

}  // namespace fuzz
}  // namespace ode
