// Seed-corpus generator: writes the checked-in corpus under
// tests/fuzz/corpus/<target>/.  Valid inputs come from the REAL encoders
// (wire frames, WAL records, engine-built database pages), adversarial
// inputs are hand-crafted regressions for decoder bugs fixed in this tree
// — so the replay leg re-proves every fix forever.
//
// Usage: make_seed_corpus <corpus-root-dir>
//
// Regeneration is deterministic; corpus files are committed, so this only
// needs re-running when a target's input format changes.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/meta.h"
#include "net/wire.h"
#include "storage/btree.h"
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
#include "util/event_log.h"
#include "util/slice.h"

namespace {

std::filesystem::path g_root;

void WriteSeed(const std::string& target, const std::string& name,
               const std::string& bytes) {
  const std::filesystem::path dir = g_root / target;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s/%s\n", target.c_str(),
                 name.c_str());
    std::exit(1);
  }
}

// -- Wire protocol ----------------------------------------------------------

std::string RequestFrame(const ode::net::Request& req) {
  std::string frame;
  ode::net::EncodeRequestFrame(req, &frame);
  return frame;
}

/// Frame payload only (what DecodeRequest sees: length prefix stripped).
std::string RequestPayload(const ode::net::Request& req) {
  return RequestFrame(req).substr(ode::net::kFrameLenBytes);
}

std::string ResponsePayload(const ode::net::Response& resp) {
  std::string frame;
  ode::net::EncodeResponseFrame(resp, &frame);
  return frame.substr(ode::net::kFrameLenBytes);
}

void WireSeeds() {
  ode::net::Request ping;
  ping.op = ode::net::OpCode::kPing;
  ping.request_id = 1;

  ode::net::Request pnew;
  pnew.op = ode::net::OpCode::kPnew;
  pnew.request_id = 2;
  pnew.type_id = 7;
  pnew.payload = "hello version";

  ode::net::Request batch;
  batch.op = ode::net::OpCode::kDerefBatch;
  batch.request_id = 3;
  batch.batch = {{1, 2}, {3, 0}, {5, 6}};

  ode::net::Request cursor;
  cursor.op = ode::net::OpCode::kCursorOpen;
  cursor.request_id = 4;
  cursor.cursor_kind = 1;
  cursor.cursor_arg = 42;

  // Stream target: whole frames (several in a row, then a torn one).
  std::string stream = RequestFrame(ping) + RequestFrame(pnew);
  WriteSeed("wire_extract_frame", "two-frames", stream);
  WriteSeed("wire_extract_frame", "torn-frame",
            RequestFrame(batch).substr(0, 9));
  {
    // Hostile length prefix: 0xffffffff.
    std::string hostile;
    ode::PutFixed32(&hostile, 0xffffffffu);
    hostile += "junk";
    WriteSeed("wire_extract_frame", "hostile-length", hostile);
  }
  {
    // Undersized length (below kFrameMinPayload).
    std::string runt;
    ode::PutFixed32(&runt, 3);
    runt += "abc";
    WriteSeed("wire_extract_frame", "runt-length", runt);
  }

  WriteSeed("wire_decode_request", "ping", RequestPayload(ping));
  WriteSeed("wire_decode_request", "pnew", RequestPayload(pnew));
  WriteSeed("wire_decode_request", "deref-batch", RequestPayload(batch));
  WriteSeed("wire_decode_request", "cursor-open", RequestPayload(cursor));
  {
    // Hostile batch count: claims kMaxBatchItems+1 items, carries none.
    std::string p = RequestPayload(batch);
    // payload = ver, op, req-id(8), varint count, items...
    std::string hostile(p.substr(0, 10));
    ode::PutVarint64(&hostile, ode::net::kMaxBatchItems + 1);
    WriteSeed("wire_decode_request", "oversized-batch-count", hostile);
  }

  ode::net::Response ok = ode::net::ResponseFor(pnew);
  ok.oid = 99;
  ok.vnum = 1;
  WriteSeed("wire_decode_response", "pnew-ok", ResponsePayload(ok));
  ode::net::Response err = ode::net::ErrorResponseFor(
      batch, ode::net::WireStatus::kProtocolError, "bad frame");
  WriteSeed("wire_decode_response", "protocol-error", ResponsePayload(err));
  ode::net::Response deref = ode::net::ResponseFor(batch);
  deref.batch.resize(2);
  deref.batch[0].status = ode::net::WireStatus::kOk;
  deref.batch[0].oid = 1;
  deref.batch[0].vnum = 2;
  deref.batch[0].payload = "payload-bytes";
  deref.batch[1].status = ode::net::WireStatus::kNotFound;
  WriteSeed("wire_decode_response", "deref-batch", ResponsePayload(deref));
}

// -- WAL --------------------------------------------------------------------

/// wal_replay input layout: u32 n | n bytes of wal.log | wal.log.1.
std::string WalFiles(const std::string& file0, const std::string& file1) {
  std::string out;
  ode::PutFixed32(&out, static_cast<uint32_t>(file0.size()));
  return out + file0 + file1;
}

void WalSeeds() {
  std::string image(ode::kPageSize, '\0');
  image[0] = static_cast<char>(ode::PageType::kHeap);
  image[100] = 'x';
  const auto committed = [&](uint64_t txn, ode::PageId page) {
    std::string log;
    ode::Wal::EncodeBegin(txn, &log);
    ode::Wal::EncodePageImage(txn, page, image.data(), &log);
    ode::Wal::EncodeCommit(txn, &log);
    return log;
  };
  const std::string log = committed(1, 2);
  WriteSeed("wal_replay", "one-committed-txn", WalFiles(log, ""));
  WriteSeed("wal_replay", "torn-tail",
            WalFiles(log.substr(0, log.size() - 5), ""));
  {
    // Begun but never committed (crash victim).
    std::string crash;
    ode::Wal::EncodeBegin(7, &crash);
    ode::Wal::EncodePageImage(7, 3, image.data(), &crash);
    WriteSeed("wal_replay", "uncommitted-txn", WalFiles(crash, ""));
  }
  // Both files live, as a crash inside a fuzzy checkpoint leaves them: the
  // older file (smaller first txn id) replays first, whichever file it is.
  const std::string older = committed(1, 2) + committed(2, 3);
  const std::string newer = committed(3, 2) + committed(4, 4);
  WriteSeed("wal_replay", "two-files-older-first", WalFiles(older, newer));
  WriteSeed("wal_replay", "two-files-newer-first", WalFiles(newer, older));
  // A torn newer file (crash mid-append after the roll).
  WriteSeed("wal_replay", "two-files-torn-newer",
            WalFiles(newer.substr(0, newer.size() - 7), older));

  // Byte-range deltas.  A page's first record in each file is its full
  // image; later commits log only the changed bytes.
  std::string edited = image;
  edited.replace(200, 8, "8 bytes!");
  const auto delta = [&](uint64_t txn, ode::PageId page) {
    std::string log;
    ode::Wal::EncodeBegin(txn, &log);
    ode::Wal::EncodePageChange(txn, page, image.data(), edited.data(), &log);
    ode::Wal::EncodeCommit(txn, &log);
    return log;
  };
  WriteSeed("wal_replay", "image-then-delta",
            WalFiles(committed(1, 2) + delta(2, 2), ""));
  WriteSeed("wal_replay", "two-files-each-own-image",
            WalFiles(committed(1, 2) + delta(2, 2),
                     committed(3, 2) + delta(4, 2)));
  // Corrupt by the file rule: no image of the page earlier in its file.
  WriteSeed("wal_replay", "delta-without-image", WalFiles(delta(1, 2), ""));
  {
    // One range runs past the page end: decodes as a torn tail.
    std::string payload;
    payload.push_back(static_cast<char>(ode::WalRecordType::kPageDelta));
    ode::PutVarint64(&payload, 2);
    ode::PutFixed32(&payload, 2);
    ode::PutVarint64(&payload, 1);
    ode::PutFixed16(&payload, ode::kPageSize - 4);
    ode::PutFixed16(&payload, 8);
    payload.append("past end");
    std::string log = committed(1, 2);
    ode::Wal::EncodeBegin(2, &log);
    ode::PutFixed32(&log, static_cast<uint32_t>(payload.size()));
    ode::PutFixed32(&log, ode::crc32c::Mask(ode::crc32c::Value(
                              payload.data(), payload.size())));
    log += payload;
    ode::Wal::EncodeCommit(2, &log);
    WriteSeed("wal_replay", "delta-range-past-page-end", WalFiles(log, ""));
  }
}

// -- Pages ------------------------------------------------------------------

void SlottedSeeds() {
  char page[ode::kPageSize];
  ode::SlottedPage view(page);
  view.Init();
  (void)view.Insert(ode::Slice("alpha"));
  (void)view.Insert(ode::Slice("beta-record"));
  (void)view.Insert(ode::Slice(std::string(100, 'c')));
  (void)view.Delete(1);
  WriteSeed("page_slotted", "valid-page", std::string(page, sizeof(page)));

  // Regression: slot count far past the directory's physical capacity.
  std::string hostile(page, sizeof(page));
  hostile[8] = static_cast<char>(0xff);
  hostile[9] = static_cast<char>(0xff);
  WriteSeed("page_slotted", "slot-count-overflow", hostile);

  // Regression: directory entry pointing outside the page.
  std::string oob(page, sizeof(page));
  oob[14] = static_cast<char>(0xf0);  // slot 0 cell offset = 0xfff0
  oob[15] = static_cast<char>(0xff);
  oob[16] = static_cast<char>(0x80);  // slot 0 length = 0x80
  WriteSeed("page_slotted", "cell-offset-oob", oob);

  // Regression: offset+length sum wrapping past the page end.
  std::string wrap(page, sizeof(page));
  wrap[14] = static_cast<char>(0x00);  // offset 0x0f00 (in page)
  wrap[15] = static_cast<char>(0x0f);
  wrap[16] = static_cast<char>(0xff);  // length 0xffff
  wrap[17] = static_cast<char>(0xff);
  WriteSeed("page_slotted", "cell-length-wrap", wrap);
}

void SuperblockSeeds() {
  char page[ode::kPageSize];
  ode::SuperblockView view(page);
  view.Init();
  view.set_page_count(4);
  view.set_root(0, 2);
  view.set_counter(0, 17);
  WriteSeed("superblock", "valid", std::string(page, sizeof(page)));

  view.set_page_count(0xffffffffu);
  view.set_free_list_head(0xfffffff0u);
  WriteSeed("superblock", "hostile-counts", std::string(page, sizeof(page)));

  std::string garbage(ode::kPageSize, '\x5a');
  WriteSeed("superblock", "garbage-page", garbage);
}

// -- Engine-built database + corruption directives --------------------------

/// One CorruptImage directive (see src/fuzz/targets_storage.cc): 3-byte LE
/// offset relative to the end of page 0, then the byte to write there.
void AppendPoke(std::string* out, uint32_t file_offset, uint8_t value) {
  const uint32_t raw = file_offset - ode::kPageSize;
  out->push_back(static_cast<char>(raw & 0xff));
  out->push_back(static_cast<char>((raw >> 8) & 0xff));
  out->push_back(static_cast<char>((raw >> 16) & 0xff));
  out->push_back(static_cast<char>(value));
}

/// Rebuilds the same baseline database the harness builds (see
/// targets_storage.cc) so directive seeds can aim at real page structures.
std::string BuildBaselineImage() {
  ode::MemEnv env;
  ode::StorageOptions opts;
  opts.env = &env;
  opts.path = "/db";
  opts.buffer_pool_pages = 128;
  auto engine = ode::StorageEngine::Open(opts);
  if (!engine.ok()) return {};
  const ode::Status s = (*engine)->WithTxn([&](ode::Txn& txn) -> ode::Status {
    auto tree = ode::BTree::Open(&txn, 0);
    if (!tree.ok()) return tree.status();
    for (int i = 0; i < 64; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%03d", i);
      const std::string value(static_cast<size_t>(i) * 7 + 1,
                              static_cast<char>('a' + i % 26));
      ODE_RETURN_IF_ERROR(tree->Put(ode::Slice(key), ode::Slice(value)));
    }
    ode::HeapFile& heap = (*engine)->heap();
    for (int i = 0; i < 8; ++i) {
      const std::string payload(static_cast<size_t>(i) * 97 + 5, 'h');
      auto rid = heap.Insert(&txn, ode::Slice(payload));
      if (!rid.ok()) return rid.status();
    }
    auto rid =
        heap.Insert(&txn, ode::Slice(std::string(3 * ode::kPageSize, 'O')));
    if (!rid.ok()) return rid.status();
    return ode::Status::OK();
  });
  if (!s.ok()) return {};
  if (!(*engine)->Checkpoint().ok()) return {};
  (*engine)->Shutdown();
  engine->reset();
  auto file = env.OpenFile("/db/data.odb");
  if (!file.ok()) return {};
  auto size = (*file)->Size();
  if (!size.ok()) return {};
  std::string scratch;
  ode::Slice out;
  if (!(*file)->Read(0, *size, &scratch, &out).ok()) return {};
  return out.ToString();
}

ode::PageType PageTypeAt(const std::string& image, uint32_t page) {
  return static_cast<ode::PageType>(
      static_cast<uint8_t>(image[page * ode::kPageSize]));
}

void DirectiveSeeds() {
  const std::string image = BuildBaselineImage();
  if (image.empty()) {
    std::fprintf(stderr, "baseline build failed\n");
    std::exit(1);
  }
  const uint32_t pages =
      static_cast<uint32_t>(image.size() / ode::kPageSize);

  uint32_t leaf = 0;
  uint32_t internal = 0;
  uint32_t heap_page = 0;
  uint32_t overflow = 0;
  for (uint32_t p = 1; p < pages; ++p) {
    switch (PageTypeAt(image, p)) {
      case ode::PageType::kBTreeLeaf:
        if (leaf == 0) leaf = p;
        break;
      case ode::PageType::kBTreeInternal:
        if (internal == 0) internal = p;
        break;
      case ode::PageType::kHeap:
        if (heap_page == 0) heap_page = p;
        break;
      case ode::PageType::kOverflow:
        if (overflow == 0) overflow = p;
        break;
      default:
        break;
    }
  }

  // page_btree: no corruption (sanity replay of the pristine database).
  WriteSeed("page_btree", "pristine", "");
  if (leaf != 0) {
    const uint32_t base = leaf * ode::kPageSize;
    // Regression: entry count past the directory capacity (CheckedCell).
    std::string count_overflow;
    AppendPoke(&count_overflow, base + 8, 0xff);
    AppendPoke(&count_overflow, base + 9, 0x7f);
    WriteSeed("page_btree", "leaf-count-overflow", count_overflow);
    // Regression: directory offset/length escaping the page.
    std::string dir_oob;
    AppendPoke(&dir_oob, base + 18, 0xf0);
    AppendPoke(&dir_oob, base + 19, 0xff);
    AppendPoke(&dir_oob, base + 20, 0xff);
    AppendPoke(&dir_oob, base + 21, 0x7f);
    WriteSeed("page_btree", "leaf-dir-oob", dir_oob);
    // Sibling link pointing at itself (iterator cycle guard).
    std::string self_link;
    AppendPoke(&self_link, base + 4, static_cast<uint8_t>(leaf & 0xff));
    AppendPoke(&self_link, base + 5, static_cast<uint8_t>((leaf >> 8) & 0xff));
    AppendPoke(&self_link, base + 6, 0x00);
    AppendPoke(&self_link, base + 7, 0x00);
    WriteSeed("page_btree", "leaf-self-link", self_link);
    // Page type flip: leaf masquerading as an internal node.
    std::string type_flip;
    AppendPoke(&type_flip, base + 0,
               static_cast<uint8_t>(ode::PageType::kBTreeInternal));
    WriteSeed("page_btree", "leaf-type-flip", type_flip);
  }
  if (internal != 0) {
    // Null leftmost-child pointer in an internal node (bytes 4..7).
    std::string null_child;
    const uint32_t base = internal * ode::kPageSize;
    AppendPoke(&null_child, base + 4, 0x00);
    AppendPoke(&null_child, base + 5, 0x00);
    AppendPoke(&null_child, base + 6, 0x00);
    AppendPoke(&null_child, base + 7, 0x00);
    WriteSeed("page_btree", "internal-null-child", null_child);
  }

  // heap_record directives.
  WriteSeed("heap_record", "pristine", "");
  if (heap_page != 0) {
    const uint32_t base = heap_page * ode::kPageSize;
    // Slot directory pointing outside the page.
    std::string slot_oob;
    AppendPoke(&slot_oob, base + 14, 0xf0);
    AppendPoke(&slot_oob, base + 15, 0xff);
    WriteSeed("heap_record", "slot-offset-oob", slot_oob);
    // Cell tag corrupted to an unknown value.
    std::string bad_tag;
    AppendPoke(&bad_tag, base + ode::kPageSize - 1, 0x77);
    WriteSeed("heap_record", "bad-cell-tag", bad_tag);
  }
  if (overflow != 0) {
    const uint32_t base = overflow * ode::kPageSize;
    // Regression: overflow chain cycling back to itself — before the chain
    // bound in HeapFile::Read this looped forever / allocated unboundedly.
    std::string cycle;
    AppendPoke(&cycle, base + 4, static_cast<uint8_t>(overflow & 0xff));
    AppendPoke(&cycle, base + 5,
               static_cast<uint8_t>((overflow >> 8) & 0xff));
    AppendPoke(&cycle, base + 6, 0x00);
    AppendPoke(&cycle, base + 7, 0x00);
    WriteSeed("heap_record", "overflow-cycle", cycle);
    // Chunk length beyond the page's capacity.
    std::string fat_chunk;
    AppendPoke(&fat_chunk, base + 8, 0xff);
    AppendPoke(&fat_chunk, base + 9, 0xff);
    AppendPoke(&fat_chunk, base + 10, 0x00);
    AppendPoke(&fat_chunk, base + 11, 0x00);
    WriteSeed("heap_record", "overflow-fat-chunk", fat_chunk);
    // Overflow page re-typed mid-chain.
    std::string retyped;
    AppendPoke(&retyped, base + 0, static_cast<uint8_t>(ode::PageType::kFree));
    WriteSeed("heap_record", "overflow-retyped", retyped);
  }
}

// -- Catalog codecs ---------------------------------------------------------

void MetaSeeds() {
  ode::ObjectHeader header;
  header.type_id = 3;
  header.latest = 5;
  header.next_vnum = 6;
  header.version_count = 4;
  header.created_ts = 1111;
  WriteSeed("version_meta", "object-header", header.Encode());

  ode::VersionMeta meta;
  meta.vnum = 5;
  meta.derived_from = 4;
  meta.created_ts = 2222;
  meta.payload = ode::RecordId{2, 1};
  meta.kind = ode::PayloadKind::kDelta;
  meta.delta_base = 4;
  meta.delta_chain_len = 1;
  meta.logical_size = 512;
  meta.delta_pos = 1;
  WriteSeed("version_meta", "version-meta-delta", meta.Encode());
  WriteSeed("version_meta", "version-meta-truncated",
            meta.Encode().substr(0, 7));
  {
    // Regression: hostile payload kind byte (rejected as Corruption).
    std::string bad = meta.Encode();
    // kind is the byte after vnum/derived_from/created_ts/payload — flip
    // every byte position to cover it regardless of layout drift.
    for (size_t i = 0; i < bad.size(); ++i) bad[i] ^= 0x40;
    WriteSeed("version_meta", "version-meta-mangled", bad);
  }
  WriteSeed("version_meta", "version-key",
            ode::VersionKey(ode::VersionId{ode::ObjectId{42}, 7}));
  WriteSeed("version_meta", "cluster-key",
            ode::ClusterKey(9, ode::ObjectId{1000}));
  WriteSeed("version_meta", "type-id", ode::EncodeTypeId(12));
}

// -- Delta ------------------------------------------------------------------

/// Fuzz-input layout for delta_apply: [split byte][base...][delta...].
/// Brute-forces the split byte the target's arithmetic needs.
std::string DeltaInput(const std::string& base, const std::string& delta) {
  const size_t size = 1 + base.size() + delta.size();
  for (int b = 0; b < 256; ++b) {
    const size_t split = 1 + (static_cast<size_t>(b) * (size - 1)) / 256;
    if (split == 1 + base.size()) {
      std::string input;
      input.push_back(static_cast<char>(b));
      input += base;
      input += delta;
      return input;
    }
  }
  std::fprintf(stderr, "no split byte for base=%zu delta=%zu\n", base.size(),
               delta.size());
  std::exit(1);
}

void DeltaSeeds() {
  const std::string base =
      "the quick brown fox jumps over the lazy dog 0123456789 the quick "
      "brown fox jumps over the lazy dog";
  const std::string target =
      "the quick brown cat jumps over the lazy dog 0123456789 extra tail";
  WriteSeed("delta_apply", "valid-roundtrip",
            DeltaInput(base, ode::delta::Encode(ode::Slice(base),
                                                ode::Slice(target))));

  // Adversarial deltas (also pinned by delta_adversarial_test.cc).
  {
    // COPY reaching past the base.
    std::string d;
    ode::PutVarint64(&d, 10);  // target length
    d.push_back(0);            // COPY
    ode::PutVarint64(&d, 1000);  // offset out of range
    ode::PutVarint64(&d, 10);
    WriteSeed("delta_apply", "copy-out-of-range", DeltaInput(base, d));
  }
  {
    // ADD claiming far more bytes than the delta carries.
    std::string d;
    ode::PutVarint64(&d, 100);
    d.push_back(1);  // ADD
    ode::PutVarint64(&d, 0xffffffffu);
    d += "short";
    WriteSeed("delta_apply", "oversized-add-claim", DeltaInput(base, d));
  }
  {
    // Declared length exceeded by the ops.
    std::string d;
    ode::PutVarint64(&d, 3);
    d.push_back(1);  // ADD
    ode::PutVarint64(&d, 8);
    d += "toolong!";
    WriteSeed("delta_apply", "output-exceeds-declared", DeltaInput(base, d));
  }
  {
    // Zero-length ops forever would stall: zero COPY then truncation.
    std::string d;
    ode::PutVarint64(&d, 5);
    d.push_back(0);  // COPY len 0
    ode::PutVarint64(&d, 0);
    ode::PutVarint64(&d, 0);
    d.push_back(0);  // truncated COPY
    WriteSeed("delta_apply", "zero-length-ops", DeltaInput(base, d));
  }
  {
    // Unknown op tag.
    std::string d;
    ode::PutVarint64(&d, 4);
    d.push_back(9);
    WriteSeed("delta_apply", "unknown-op-tag", DeltaInput(base, d));
  }
  {
    // Ops end before the declared length is produced.
    std::string d;
    ode::PutVarint64(&d, 64);
    d.push_back(1);  // ADD 4
    ode::PutVarint64(&d, 4);
    d += "four";
    WriteSeed("delta_apply", "short-output", DeltaInput(base, d));
  }
}

// -- Payload-store entries --------------------------------------------------

void PayloadEntrySeeds() {
  ode::PayloadStoreEntry entry;
  entry.refcount = 3;
  entry.size = 4096;
  entry.rid = ode::RecordId{7, 2};
  const std::string valid = ode::EncodePayloadStoreEntry(entry);
  WriteSeed("payload_entry", "valid", valid);
  WriteSeed("payload_entry", "truncated", valid.substr(0, valid.size() - 3));
  WriteSeed("payload_entry", "trailing-garbage", valid + "x");
  {
    // Unterminated varint.
    std::string v(10, '\xff');
    WriteSeed("payload_entry", "varint-overrun", v);
  }
}

// -- Event journal ----------------------------------------------------------

void EventCodecSeeds() {
  std::vector<ode::EventRecord> events(3);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].seq = i + 1;
    events[i].ts_micros = 1000 * (i + 1);
    events[i].type = ode::EventType::kTxnCommit;
    events[i].severity = ode::EventSeverity::kInfo;
    events[i].tid = static_cast<uint32_t>(i);
    std::snprintf(events[i].detail, sizeof(events[i].detail), "event-%zu", i);
  }
  std::string valid;
  ode::EventLog::EncodeBinary(events, &valid);
  WriteSeed("event_codec", "valid-three-records", valid);
  WriteSeed("event_codec", "truncated-record",
            valid.substr(0, valid.size() - 10));
  {
    // Regression: count * record-size wraps uint64_t; before the
    // divide-first check this drove a giant reserve() and reads past the
    // buffer.
    std::string overflow("ODEJ");
    ode::PutFixed32(&overflow, 1);
    ode::PutFixed64(&overflow, 0x2000000000000000ull);
    overflow.append(16, '\x00');
    WriteSeed("event_codec", "count-overflow", overflow);
  }
}

// -- JSON -------------------------------------------------------------------

void JsonSeeds() {
  WriteSeed("json", "object",
            R"({"a":1,"b":"two","c":[1,2,3],"d":{"e":null,"f":true}})");
  WriteSeed("json", "number-forms", R"([0,-1,1.5,1e9,-2.5e-3,true,false])");
  WriteSeed("json", "escapes", R"({"a":"A\n\t\\\"","b":"😀"})");
  WriteSeed("json", "truncated-literal", "tru");
  WriteSeed("json", "trailing-bytes", "{} extra");
  {
    // Deep nesting past the checker's depth cap.
    std::string deep(80, '[');
    deep += std::string(80, ']');
    WriteSeed("json", "deep-nesting", deep);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root-dir>\n", argv[0]);
    return 2;
  }
  g_root = argv[1];
  WireSeeds();
  WalSeeds();
  SlottedSeeds();
  SuperblockSeeds();
  DirectiveSeeds();
  MetaSeeds();
  DeltaSeeds();
  PayloadEntrySeeds();
  EventCodecSeeds();
  JsonSeeds();
  std::printf("seed corpus written under %s\n", argv[1]);
  return 0;
}
