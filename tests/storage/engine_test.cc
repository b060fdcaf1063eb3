#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/btree.h"
#include "storage/fault_env.h"
#include "storage/wal.h"
#include "util/event_log.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(); }

  void Open() {
    StorageOptions options;
    options.env = &env_;
    options.path = "/db";
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(*engine);
  }

  void Reopen() {
    engine_.reset();
    Open();
  }

  MemEnv env_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(EngineTest, SingleTransactionAtATime) {
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  EXPECT_TRUE(engine_->Begin().status().IsFailedPrecondition());
  ASSERT_OK(engine_->Commit(txn));
  ASSERT_OK_AND_ASSIGN(Txn * txn2, engine_->Begin());
  ASSERT_OK(engine_->Abort(txn2));
}

TEST_F(EngineTest, CommitWithoutOpenTxnRejected) {
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  ASSERT_OK(engine_->Commit(txn));
  EXPECT_TRUE(engine_->Commit(txn).IsFailedPrecondition());
  EXPECT_TRUE(engine_->Abort(txn).IsFailedPrecondition());
}

TEST_F(EngineTest, AllocateAndFreePagesRoundTrip) {
  PageId allocated = kInvalidPageId;
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto pid = txn.AllocatePage();
    if (!pid.ok()) return pid.status();
    allocated = *pid;
    EXPECT_NE(allocated, kInvalidPageId);
    return Status::OK();
  }));
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) { return txn.FreePage(allocated); }));
  // Next allocation reuses the freed page.
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto pid = txn.AllocatePage();
    if (!pid.ok()) return pid.status();
    EXPECT_EQ(*pid, allocated);
    return Status::OK();
  }));
}

TEST_F(EngineTest, FreeingSuperblockRejected) {
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    EXPECT_TRUE(txn.FreePage(0).IsInvalidArgument());
    return Status::OK();
  }));
}

TEST_F(EngineTest, CountersPersistAcrossReopen) {
  ASSERT_OK(engine_->WithTxn(
      [](Txn& txn) { return txn.SetCounter(5, 0xdeadbeefull); }));
  Reopen();
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    auto v = txn.GetCounter(5);
    if (!v.ok()) return v.status();
    EXPECT_EQ(*v, 0xdeadbeefull);
    return Status::OK();
  }));
}

TEST_F(EngineTest, RootSlotsPersistAcrossReopen) {
  ASSERT_OK(engine_->WithTxn([](Txn& txn) { return txn.SetRoot(6, 42); }));
  Reopen();
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    auto v = txn.GetRoot(6);
    if (!v.ok()) return v.status();
    EXPECT_EQ(*v, 42u);
    return Status::OK();
  }));
}

TEST_F(EngineTest, OutOfRangeSlotsRejected) {
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    EXPECT_TRUE(txn.GetRoot(-1).status().IsInvalidArgument());
    EXPECT_TRUE(txn.GetRoot(8).status().IsInvalidArgument());
    EXPECT_TRUE(txn.GetCounter(8).status().IsInvalidArgument());
    EXPECT_TRUE(txn.SetCounter(-1, 0).IsInvalidArgument());
    return Status::OK();
  }));
}

TEST_F(EngineTest, AbortRollsBackHeapInsert) {
  RecordId rid;
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  {
    auto r = engine_->heap().Insert(txn, Slice("rolled back"));
    ASSERT_TRUE(r.ok());
    rid = *r;
  }
  ASSERT_OK(engine_->Abort(txn));
  ASSERT_OK(engine_->WithTxn([&](Txn& t) -> Status {
    EXPECT_TRUE(engine_->heap().Read(&t, rid).status().IsNotFound());
    return Status::OK();
  }));
}

TEST_F(EngineTest, AbortRollsBackPageAllocation) {
  uint32_t pages_before = 0;
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto pc = txn.PageCount();
    if (!pc.ok()) return pc.status();
    pages_before = *pc;
    return Status::OK();
  }));
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(txn->AllocatePage().ok());
  }
  ASSERT_OK(engine_->Abort(txn));
  ASSERT_OK(engine_->WithTxn([&](Txn& t) -> Status {
    auto pc = t.PageCount();
    if (!pc.ok()) return pc.status();
    EXPECT_EQ(*pc, pages_before);
    return Status::OK();
  }));
}

TEST_F(EngineTest, AbortPreservesEarlierCommittedData) {
  // T1 commits data; T2 touches the same pages and aborts; T1's data must
  // survive even though it was never flushed to the data file.
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    return tree->Put(Slice("committed"), Slice("v1"));
  }));
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  {
    auto tree = BTree::Open(txn, 4);
    ASSERT_TRUE(tree.ok());
    ASSERT_OK(tree->Put(Slice("committed"), Slice("overwritten")));
    ASSERT_OK(tree->Put(Slice("extra"), Slice("x")));
  }
  ASSERT_OK(engine_->Abort(txn));
  ASSERT_OK(engine_->WithTxn([&](Txn& t) -> Status {
    auto tree = BTree::Open(&t, 4);
    if (!tree.ok()) return tree.status();
    EXPECT_EQ(*tree->Get(Slice("committed")), "v1");
    EXPECT_TRUE(tree->Get(Slice("extra")).status().IsNotFound());
    return Status::OK();
  }));
}

TEST_F(EngineTest, WithTxnAbortsOnError) {
  Status s = engine_->WithTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice("doomed"));
    (void)r;
    return Status::Aborted("body failed");
  });
  EXPECT_TRUE(s.IsAborted());
  // Engine usable afterwards.
  ASSERT_OK(engine_->WithTxn([](Txn&) { return Status::OK(); }));
}

TEST_F(EngineTest, ReadOnlyTxnWritesNothingToWal) {
  // First use of the tree slot allocates the root page; get that out of the
  // way so the measured transaction is purely a read.
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    return tree.ok() ? Status::OK() : tree.status();
  }));
  const uint64_t wal_before = engine_->wal_bytes();
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    auto v = tree->Get(Slice("anything"));
    EXPECT_TRUE(v.status().IsNotFound());
    return Status::OK();
  }));
  EXPECT_EQ(engine_->wal_bytes(), wal_before);
}

TEST_F(EngineTest, DataSurvivesReopenViaCheckpoint) {
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    return tree->Put(Slice("persist"), Slice("me"));
  }));
  Reopen();  // Destructor checkpoints.
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    EXPECT_EQ(*tree->Get(Slice("persist")), "me");
    return Status::OK();
  }));
}

TEST_F(EngineTest, ManualCheckpointTruncatesWal) {
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice("data"));
    return r.ok() ? Status::OK() : r.status();
  }));
  EXPECT_GT(engine_->wal_bytes(), 0u);
  ASSERT_OK(engine_->Checkpoint());
  EXPECT_EQ(engine_->wal_bytes(), 0u);
}

// A page's first record in each WAL file is its full image, so every file
// replays alone; after that a commit logs only the bytes it changed.
TEST_F(EngineTest, FirstTouchAfterRollLogsFullImageThenDelta) {
  const auto put = [&](const std::string& key) {
    return engine_->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      return tree->Put(Slice(key), Slice(std::string(300, key[0])));
    });
  };
  ASSERT_OK(put("a"));
  EXPECT_GT(engine_->full_logged_pages(), 0u);
  ASSERT_OK(engine_->Checkpoint());  // Rolls to the other, empty file.
  EXPECT_EQ(engine_->full_logged_pages(), 0u);
  const uint64_t deltas_before = engine_->metrics()->wal_page_deltas->value();
  ASSERT_OK(put("b"));
  ASSERT_OK(put("c"));

  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(&env_, "/db/wal.log"));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  std::map<uint64_t, std::vector<const WalRecord*>> pages_by_txn;
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kPageImage ||
        r.type == WalRecordType::kPageDelta) {
      pages_by_txn[r.txn_id].push_back(&r);
    }
  }
  ASSERT_EQ(pages_by_txn.size(), 2u);
  const auto& first = pages_by_txn.begin()->second;
  const auto& second = pages_by_txn.rbegin()->second;
  ASSERT_FALSE(second.empty());
  for (const WalRecord* r : first) {
    EXPECT_EQ(r->type, WalRecordType::kPageImage) << "page " << r->page_id;
  }
  for (const WalRecord* r : second) {
    EXPECT_EQ(r->type, WalRecordType::kPageDelta) << "page " << r->page_id;
  }
  EXPECT_EQ(engine_->metrics()->wal_page_deltas->value() - deltas_before,
            second.size());
}

// A commit whose serialization fails aborts, so the page images its blob
// already held never reach the WAL: none of its pages may count as logged
// in full, or their next commit would log a delta with no base.
TEST(EngineWalRuleTest, FailedSerializationMarksNoPageFullLogged) {
  FaultInjectionEnv env(nullptr);
  StorageOptions options;
  options.env = &env;
  options.path = "/db";
  options.checkpoint_wal_bytes = 1ull << 40;  // Manual checkpoints only.
  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(options));
  ASSERT_OK(engine->Checkpoint());  // Rolls past the superblock bootstrap.
  ASSERT_EQ(engine->full_logged_pages(), 0u);

  ASSERT_OK_AND_ASSIGN(Txn * txn, engine->Begin());
  ASSERT_OK(txn->AllocatePage().status());  // Dirties the superblock + 1.
  // Serialization re-reads each dirtied frame: drop the frames so it reads
  // the data file, and fail the second read, after the superblock's image
  // is already in the blob.
  engine->buffer_pool().DropAllUnpinned();
  env.FailNth(FaultOp::kRead, 1, Status::IOError("injected read"),
              /*sticky=*/false);
  EXPECT_FALSE(engine->Commit(txn).ok());
  EXPECT_EQ(engine->full_logged_pages(), 0u);
  EXPECT_EQ(engine->metrics()->wal_page_images->value(), 1u);  // Bootstrap.
}

TEST_F(EngineTest, CheckpointMidTxnRejected) {
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  EXPECT_TRUE(engine_->Checkpoint().IsFailedPrecondition());
  ASSERT_OK(engine_->Abort(txn));
}

TEST_F(EngineTest, AutoCheckpointAfterWalThreshold) {
  engine_.reset();
  StorageOptions options;
  options.env = &env_;
  options.path = "/db2";
  options.checkpoint_wal_bytes = 64 * 1024;  // Tiny threshold.
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  auto& e = *engine;
  const uint64_t checkpoints_before = e->checkpoint_count();
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(e->WithTxn([&](Txn& txn) -> Status {
      auto r = e->heap().Insert(&txn, Slice(std::string(1000, 'x')));
      return r.ok() ? Status::OK() : r.status();
    }));
  }
  // Checkpointing moved off the commit path into the background
  // checkpointer, which Commit nudges when wal_bytes crosses the threshold.
  // The writer can outrun it, so wait until it has acted on the LAST
  // signal: a pass that began after the loop has seen the final WAL size
  // and checkpointed if it was over the threshold.  Two completed passes
  // past this point include one that began after it.
  const uint64_t passes = e->checkpointer_passes();
  for (int spins = 0; spins < 5000; ++spins) {
    if (e->checkpointer_passes() >= passes + 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(e->checkpointer_passes(), passes + 2);
  EXPECT_GT(e->checkpoint_count(), checkpoints_before);
  EXPECT_LT(e->wal_bytes(), 2 * options.checkpoint_wal_bytes);
}

// The kCheckpoint journal record carries the pages written (a), the WAL
// bytes retired (b) and the microseconds the apply latch was held (c).
TEST_F(EngineTest, CheckpointEventCountsPagesWritten) {
  engine_.reset();
  EventLog log;
  StorageOptions options;
  options.env = &env_;
  options.path = "/db_events";
  options.checkpoint_wal_bytes = 1ull << 40;  // Manual checkpoints only.
  options.event_log = &log;
  ASSERT_OK_AND_ASSIGN(auto e, StorageEngine::Open(options));
  ASSERT_OK(e->Checkpoint());  // Start from a clean pool.
  ASSERT_OK(e->WithTxn([](Txn& txn) -> Status {
    for (int i = 0; i < 3; ++i) {
      auto pid = txn.AllocatePage();
      if (!pid.ok()) return pid.status();
    }
    return Status::OK();
  }));
  // Three fresh pages plus the superblock that counts them.
  const uint64_t backlog = e->wal_bytes();
  ASSERT_GT(backlog, 0u);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_OK(e->Checkpoint());
  const auto elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_EQ(e->wal_bytes(), 0u);

  std::vector<EventRecord> events;
  log.Snapshot(&events);
  const EventRecord* last = nullptr;
  for (const EventRecord& r : events) {
    if (r.type == EventType::kCheckpoint) last = &r;
  }
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->a, 4u);
  EXPECT_EQ(last->b, backlog);
  EXPECT_LE(last->c, static_cast<uint64_t>(elapsed_us));
}

/// MemEnv whose data-file page writes are slow, so a checkpoint's unlatched
/// write phase stays open long enough for readers to fault pages in while
/// it runs.
class SlowDataWritesEnv : public MemEnv {
 public:
  StatusOr<std::unique_ptr<File>> OpenFile(const std::string& path) override {
    auto file = MemEnv::OpenFile(path);
    const std::string suffix = "/data.odb";
    if (!file.ok() || path.size() < suffix.size() ||
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
      return file;
    }
    return std::unique_ptr<File>(new SlowWriteFile(std::move(*file)));
  }

 private:
  class SlowWriteFile : public File {
   public:
    explicit SlowWriteFile(std::unique_ptr<File> base)
        : base_(std::move(base)) {}
    Status Read(uint64_t offset, size_t n, std::string* scratch,
                Slice* result) override {
      return base_->Read(offset, n, scratch, result);
    }
    Status Write(uint64_t offset, const Slice& data) override {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      return base_->Write(offset, data);
    }
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Sync() override { return base_->Sync(); }
    Status Truncate(uint64_t size) override { return base_->Truncate(size); }
    StatusOr<uint64_t> Size() override { return base_->Size(); }

   private:
    std::unique_ptr<File> base_;
  };
};

// Fuzzy checkpoints write page copies while readers fault pages in and a
// writer keeps committing.  A frame marked clean before its image reached
// the data file would be evicted and re-read stale; the tiny pool forces
// evictions, so such a read shows up as a value older than one already
// committed.  Runs under TSan via the Concurrent filter.
TEST_F(EngineTest, ConcurrentFuzzyCheckpointsKeepReadsCurrent) {
  engine_.reset();
  SlowDataWritesEnv env;
  StorageOptions options;
  options.env = &env;
  options.path = "/db_fuzzy";
  options.buffer_pool_pages = 8;
  options.checkpoint_wal_bytes = 1ull << 40;  // Only the explicit calls.
  ASSERT_OK_AND_ASSIGN(auto e, StorageEngine::Open(options));

  constexpr int kPages = 48;      // Written by the writer.
  constexpr int kColdPages = 64;  // Only read: their misses force evictions.
  constexpr uint64_t kWrites = 1000;
  constexpr int kReaders = 3;
  // Page i holds value v (stamped at both ends of the page); the writer
  // only ever writes values with v % kPages == i, and cold pages stay 0.
  const auto stamp = [](char* page, uint64_t v) {
    std::memcpy(page, &v, sizeof(v));
    std::memcpy(page + kPageSize - sizeof(v), &v, sizeof(v));
  };
  std::vector<PageId> pages(kPages + kColdPages);
  ASSERT_OK(e->WithTxn([&](Txn& txn) -> Status {
    for (int i = 0; i < kPages + kColdPages; ++i) {
      auto pid = txn.AllocatePage();
      if (!pid.ok()) return pid.status();
      pages[i] = *pid;
      auto page = txn.Fetch(*pid);
      if (!page.ok()) return page.status();
      stamp(page->mutable_data(), 0);
    }
    return Status::OK();
  }));
  // Start cold: every reader fetch of a page misses, and past eight
  // resident frames each miss must evict.
  ASSERT_OK(e->Checkpoint());
  e->buffer_pool().DropAllUnpinned();

  std::vector<std::atomic<uint64_t>> committed(kPages);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> stale_reads{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> checkpoints{0};
  std::atomic<uint64_t> errors{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t x = 0x9e3779b97f4a7c15ull * (r + 1);
      while (!done.load(std::memory_order_acquire)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const int i = static_cast<int>(x % (kPages + kColdPages));
        const uint64_t floor =
            i < kPages ? committed[i].load(std::memory_order_acquire) : 0;
        Status s = e->WithReadTxn([&](ReadTxn& txn) -> Status {
          auto page = txn.Fetch(pages[i]);
          if (!page.ok()) return page.status();
          uint64_t head = 0;
          uint64_t tail = 0;
          std::memcpy(&head, page->data(), sizeof(head));
          std::memcpy(&tail, page->data() + kPageSize - sizeof(tail),
                      sizeof(tail));
          const bool foreign =
              head != 0 &&
              (i >= kPages || head % kPages != static_cast<uint64_t>(i));
          if (head != tail || head < floor || foreign) {
            stale_reads.fetch_add(1, std::memory_order_relaxed);
          }
          return Status::OK();
        });
        if (!s.ok()) errors.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
        // The engine lock prefers readers: pause so the writer and the
        // checkpoints are not starved of the exclusive side.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (e->Checkpoint().ok()) {
        checkpoints.fetch_add(1, std::memory_order_relaxed);
      } else {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Keep writing until enough checkpoints have overlapped the writes.
  for (uint64_t v = 1;
       v <= kWrites || checkpoints.load(std::memory_order_relaxed) < 20; ++v) {
    const int i = static_cast<int>(v % kPages);
    Status s = e->WithTxn([&](Txn& txn) -> Status {
      auto page = txn.Fetch(pages[i]);
      if (!page.ok()) return page.status();
      stamp(page->mutable_data(), v);
      return Status::OK();
    });
    ASSERT_OK(s);
    committed[i].store(v, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(stale_reads.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(checkpoints.load(), 0u);
  EXPECT_GT(e->cache_stats().evictions, 0u);
  // Cold check: after a final checkpoint every page reads back from the
  // data file with its last committed value.
  ASSERT_OK(e->Checkpoint());
  e->buffer_pool().DropAllUnpinned();
  ASSERT_OK(e->WithReadTxn([&](ReadTxn& txn) -> Status {
    for (int i = 0; i < kPages; ++i) {
      auto page = txn.Fetch(pages[i]);
      if (!page.ok()) return page.status();
      uint64_t head = 0;
      std::memcpy(&head, page->data(), sizeof(head));
      EXPECT_EQ(head, committed[i].load()) << "page " << i;
    }
    return Status::OK();
  }));
}

// Regression test for the monitoring-counter data race the thread-safety
// annotation pass surfaced: commit_count()/checkpoint_count()/wal_bytes()/
// wal_total_bytes() are read from arbitrary threads while the writer thread
// is mid-commit.  Before the counters became atomics these were plain
// uint64_t torn between threads; the name carries "Concurrent" so the TSan
// CI job (ctest -R Concurrent) replays it under the race detector.
TEST_F(EngineTest, ConcurrentStatsReadersDuringCommits) {
  constexpr int kReaders = 4;
  constexpr int kCommits = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        sink += engine_->commit_count();
        sink += engine_->checkpoint_count();
        sink += engine_->wal_bytes();
        sink += engine_->wal_total_bytes();
        sink += engine_->cache_stats().hits;
      }
      static_cast<void>(sink);
      // Monotonic counters: stop is only set after the last commit, so the
      // final read must see every one of them.
      EXPECT_GE(engine_->commit_count(), static_cast<uint64_t>(kCommits));
    });
  }
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
      auto r = engine_->heap().Insert(&txn, Slice("concurrent-stats"));
      return r.ok() ? Status::OK() : r.status();
    }));
  }
  ASSERT_OK(engine_->Checkpoint());
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(engine_->commit_count(), static_cast<uint64_t>(kCommits));
  EXPECT_GE(engine_->checkpoint_count(), 1u);
}

}  // namespace
}  // namespace ode
