#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/btree.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

/// Failure-injection around checkpoints: a checkpoint that dies between
/// writing data pages and truncating the old WAL file must leave a state
/// recovery can still handle (replaying the already-applied WAL is
/// idempotent).
class CheckpointCrashTest : public ::testing::Test {
 protected:
  CheckpointCrashTest() : fault_env_(nullptr) {}

  StatusOr<std::unique_ptr<StorageEngine>> TryOpen() {
    StorageOptions options;
    options.env = &fault_env_;
    options.path = path_;
    options.checkpoint_wal_bytes = 1ull << 40;  // Manual checkpoints only.
    return StorageEngine::Open(options);
  }

  void Open() {
    auto engine = TryOpen();
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(*engine);
  }

  void PutKey(const std::string& key, const std::string& value) {
    ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      return tree->Put(Slice(key), Slice(value));
    }));
  }

  void ExpectKey(const std::string& key, const std::string& value) {
    ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      auto got = tree->Get(Slice(key));
      if (!got.ok()) return got.status();
      EXPECT_EQ(*got, value);
      return Status::OK();
    }));
  }

  uint64_t WalSize(const char* name) {
    auto file = fault_env_.OpenFile(path_ + "/" + name);
    EXPECT_TRUE(file.ok());
    auto size = (*file)->Size();
    EXPECT_TRUE(size.ok());
    return size.ok() ? *size : 0;
  }

  std::string ReadWholeFile(const std::string& name) {
    auto file = fault_env_.OpenFile(path_ + "/" + name);
    EXPECT_TRUE(file.ok());
    auto size = (*file)->Size();
    EXPECT_TRUE(size.ok());
    std::string scratch;
    Slice content;
    EXPECT_OK((*file)->Read(0, *size, &scratch, &content));
    return content.ToString();
  }

  FaultInjectionEnv fault_env_;
  std::string path_ = "/db";
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(CheckpointCrashTest, WalTruncateFailureIsRecoverable) {
  Open();
  PutKey("a", "1");
  PutKey("b", "2");
  // Allow exactly one more sync (the data-file flush inside the checkpoint);
  // the WAL-truncate sync then fails, so the checkpoint errors out with the
  // data file already advanced and the WAL still in place.
  fault_env_.FailAfterSyncs(1);
  Status s = engine_->Checkpoint();
  EXPECT_FALSE(s.ok());
  // Crash and recover: the (stale but intact) WAL replays idempotently over
  // the already-flushed pages.
  fault_env_.CrashAndLoseUnsynced();
  engine_.reset();
  Open();
  EXPECT_GE(engine_->last_recovery().committed_txns, 2u);
  ExpectKey("a", "1");
  ExpectKey("b", "2");
}

TEST_F(CheckpointCrashTest, CrashRightAfterCheckpointLosesNothing) {
  Open();
  PutKey("a", "1");
  ASSERT_OK(engine_->Checkpoint());
  PutKey("b", "2");  // Post-checkpoint commit lives only in the WAL.
  fault_env_.CrashAndLoseUnsynced();
  engine_.reset();
  Open();
  ExpectKey("a", "1");
  ExpectKey("b", "2");
}

TEST_F(CheckpointCrashTest, RepeatedCheckpointFailureThenRecovery) {
  Open();
  PutKey("k", "v1");
  fault_env_.FailAfterSyncs(0);  // Every sync fails from now on.
  EXPECT_FALSE(engine_->Checkpoint().ok());
  EXPECT_FALSE(engine_->Checkpoint().ok());
  fault_env_.CrashAndLoseUnsynced();  // Also clears the failure mode.
  engine_.reset();
  Open();
  ExpectKey("k", "v1");
}

// A checkpoint whose out-of-latch page write fails keeps the old WAL file
// and leaves its pages dirty.  The next checkpoint must not roll into that
// non-empty spare: it rewrites every dirty page, retires the old file and
// keeps appending to the current one.  A crash after that loses nothing.
TEST_F(CheckpointCrashTest, FailedPageWriteThenCheckpointThenCrash) {
  Open();
  PutKey("a", "1");
  PutKey("b", "2");
  fault_env_.FailNth(FaultOp::kWrite, 1, Status::IOError("injected write"),
                     /*sticky=*/false);
  EXPECT_FALSE(engine_->Checkpoint().ok());
  // The failed checkpoint rolled: wal.log keeps a and b, new commits go to
  // the spare.
  EXPECT_GT(WalSize("wal.log"), 0u);
  EXPECT_EQ(WalSize("wal.log.1"), 0u);
  PutKey("c", "3");
  PutKey("a", "4");
  const uint64_t after_failure = WalSize("wal.log.1");
  EXPECT_GT(after_failure, 0u);

  ASSERT_OK(engine_->Checkpoint());
  // No roll into the non-empty wal.log: it was retired instead.
  EXPECT_EQ(WalSize("wal.log"), 0u);
  EXPECT_EQ(WalSize("wal.log.1"), after_failure);
  PutKey("d", "5");

  fault_env_.CrashAndLoseUnsynced();
  engine_.reset();
  Open();
  ExpectKey("a", "4");
  ExpectKey("b", "2");
  ExpectKey("c", "3");
  ExpectKey("d", "5");
  // The next checkpoint rolls normally again.
  PutKey("e", "6");
  ASSERT_OK(engine_->Checkpoint());
  EXPECT_EQ(WalSize("wal.log"), 0u);
  EXPECT_EQ(WalSize("wal.log.1"), 0u);
}

// Closing right after a failed checkpoint: the close-time checkpoint cannot
// roll into the non-empty spare, so close runs a second one that does, and
// a clean close still leaves both WAL files empty.
TEST_F(CheckpointCrashTest, CleanCloseAfterFailedCheckpointEmptiesBothWalFiles) {
  Open();
  PutKey("a", "1");
  fault_env_.FailNth(FaultOp::kWrite, 0, Status::IOError("injected write"),
                     /*sticky=*/false);
  EXPECT_FALSE(engine_->Checkpoint().ok());
  PutKey("b", "2");
  EXPECT_GT(WalSize("wal.log"), 0u);
  EXPECT_GT(WalSize("wal.log.1"), 0u);
  engine_.reset();
  EXPECT_EQ(WalSize("wal.log"), 0u);
  EXPECT_EQ(WalSize("wal.log.1"), 0u);
  Open();
  EXPECT_EQ(engine_->last_recovery().committed_txns, 0u);
  ExpectKey("a", "1");
  ExpectKey("b", "2");
}

// Reopen empties both WAL files after replaying them.  When wal.log is the
// NEWER file (a failed checkpoint rolled back into it), a crash between the
// two truncates must not leave only the older wal.log.1: its images would
// replay over the newer commits.  Crash each successive reopen one mutating
// I/O later than the last — the crashes accumulate, as after repeated power
// loss during recovery — until one completes; nothing acknowledged is lost.
TEST_F(CheckpointCrashTest, CrashesDuringReopenKeepEveryCommit) {
  Open();
  PutKey("x", "0");
  ASSERT_OK(engine_->Checkpoint());  // Rolls: appends now go to wal.log.1.
  PutKey("a", "1");
  PutKey("b", "2");
  fault_env_.FailNth(FaultOp::kWrite, 0, Status::IOError("injected write"),
                     /*sticky=*/false);
  EXPECT_FALSE(engine_->Checkpoint().ok());  // Rolls back into wal.log.
  PutKey("a", "3");
  PutKey("c", "4");
  ASSERT_GT(WalSize("wal.log"), 0u);    // Newer: a=3, c=4.
  ASSERT_GT(WalSize("wal.log.1"), 0u);  // Older: a=1, b=2.
  fault_env_.CrashAndLoseUnsynced();
  engine_.reset();

  int crashes = 0;
  for (uint64_t n = 0;; ++n) {
    ASSERT_LT(n, 1000u) << "reopen never completed";
    fault_env_.ScheduleCrash(n, CrashTear::kLoseAll);
    auto engine = TryOpen();
    if (!fault_env_.crash_fired()) {
      ASSERT_TRUE(engine.ok()) << engine.status();
      fault_env_.ClearFaults();
      engine_ = std::move(*engine);
      break;
    }
    ++crashes;
  }
  EXPECT_GT(crashes, 4);  // Replay writes, data fsync, both truncates.
  ExpectKey("x", "0");
  ExpectKey("a", "3");
  ExpectKey("b", "2");
  ExpectKey("c", "4");
  engine_.reset();
  Open();
  ExpectKey("a", "3");
  ExpectKey("c", "4");
}

// A checkpoint write torn mid-page is repaired from the live WAL file's own
// full image of that page.  After the first checkpoint rolls and retires
// the log, the B+tree leaf is logged whole by its next commit, then as a
// delta.  Under a weaker rule — whole only on a page's first touch per
// engine lifetime — the leaf's only records in the live file would be
// deltas, with nothing beneath them but the torn page.  Crash the second
// checkpoint at each of its I/Os, keeping half of the unsynced data-file
// bytes; each run uses a fresh database directory.  Every acknowledged key
// survives reopen.
TEST_F(CheckpointCrashTest, TornPageUnderADeltaIsRepairedFromTheFilesImage) {
  const std::string keys[] = {"a", "b", "c", "d"};
  const auto value = [](const std::string& key) {
    return std::string(400, key[0]);
  };
  std::string before;                // data.odb as the checkpoint starts.
  std::vector<std::string> crashed;  // data.odb after each crash.
  std::string after;                 // data.odb after a whole checkpoint.
  for (uint64_t n = 0;; ++n) {
    ASSERT_LT(n, 100u) << "the checkpoint never completed";
    path_ = "/db" + std::to_string(n);
    Open();
    PutKey("a", value("a"));
    PutKey("b", value("b"));
    ASSERT_OK(engine_->Checkpoint());
    PutKey("c", value("c"));  // The leaf's first record in the live file...
    PutKey("d", value("d"));  // ...and a delta after it.
    {
      ASSERT_OK_AND_ASSIGN(auto wal,
                           Wal::Open(&fault_env_, path_ + "/wal.log"));
      ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
      ASSERT_EQ(records.size(), 6u);
      EXPECT_EQ(records[1].type, WalRecordType::kPageImage);
      EXPECT_EQ(records[4].type, WalRecordType::kPageDelta);
      EXPECT_EQ(records[1].page_id, records[4].page_id);
    }
    before = ReadWholeFile("data.odb");
    fault_env_.ScheduleCrash(n, CrashTear::kTearHalf);
    const Status s = engine_->Checkpoint();
    if (!fault_env_.crash_fired()) {
      ASSERT_OK(s);
      after = ReadWholeFile("data.odb");
      break;
    }
    crashed.push_back(ReadWholeFile("data.odb"));
    engine_.reset();
    Open();
    for (const std::string& key : keys) ExpectKey(key, value(key));
  }
  // Some crash left a page that is neither its old nor its new self: the
  // tear this test is about.
  int torn = 0;
  for (const std::string& file : crashed) {
    for (size_t off = 0; off + kPageSize <= file.size(); off += kPageSize) {
      const std::string page = file.substr(off, kPageSize);
      if (page != before.substr(off, kPageSize) &&
          page != after.substr(off, kPageSize)) {
        ++torn;
      }
    }
  }
  EXPECT_GT(torn, 0);
}

}  // namespace
}  // namespace ode
