#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

std::string PageWith(const std::string& text) {
  std::string page(kPageSize, '\0');
  std::memcpy(page.data(), text.data(), text.size());
  return page;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto wal = Wal::Open(&env_, "/wal");
    ASSERT_TRUE(wal.ok());
    wal_ = std::move(*wal);
    auto disk = DiskManager::Open(&env_, "/data");
    ASSERT_TRUE(disk.ok());
    disk_ = std::move(*disk);
  }

  MemEnv env_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<DiskManager> disk_;
};

TEST_F(WalTest, AppendAndReadAll) {
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 7, PageWith("page seven").data()));
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(records[0].txn_id, 1u);
  EXPECT_EQ(records[1].type, WalRecordType::kPageImage);
  EXPECT_EQ(records[1].page_id, 7u);
  EXPECT_EQ(records[1].image.substr(0, 10), "page seven");
  EXPECT_EQ(records[2].type, WalRecordType::kCommit);
}

TEST_F(WalTest, RecoverAppliesCommittedTxn) {
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 3, PageWith("committed").data()));
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.pages_replayed, 1u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(3, buf));
  EXPECT_EQ(std::string(buf, 9), "committed");
}

TEST_F(WalTest, RecoverSkipsUncommittedTxn) {
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 3, PageWith("never committed").data()));
  // No commit record: the crash happened mid-transaction.
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 0u);
  EXPECT_EQ(stats.discarded_txns, 1u);
  EXPECT_EQ(stats.pages_replayed, 0u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(3, buf));
  EXPECT_NE(std::string(buf, 5), "never");
}

TEST_F(WalTest, LaterImageOfSamePageWins) {
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 3, PageWith("first").data()));
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK(wal_->AppendBegin(2));
  ASSERT_OK(wal_->AppendPageImage(2, 3, PageWith("second").data()));
  ASSERT_OK(wal_->AppendCommit(2));
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 2u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(3, buf));
  EXPECT_EQ(std::string(buf, 6), "second");
}

TEST_F(WalTest, TornTailIsDropped) {
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 2, PageWith("good").data()));
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK(wal_->Sync());
  // Simulate a torn append: write garbage half-record at the end.
  ASSERT_OK_AND_ASSIGN(auto file, env_.OpenFile("/wal"));
  ASSERT_OK(file->Append(Slice("\x50\x00\x00\x00garbage")));

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.pages_replayed, 1u);
}

TEST_F(WalTest, CorruptedRecordStopsScan) {
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK(wal_->AppendBegin(2));
  ASSERT_OK(wal_->AppendCommit(2));
  // Flip a byte inside the second record pair's payload.
  ASSERT_OK_AND_ASSIGN(auto file, env_.OpenFile("/wal"));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  std::string scratch;
  Slice content;
  ASSERT_OK(file->Read(0, size, &scratch, &content));
  std::string mutated = content.ToString();
  mutated[mutated.size() - 1] ^= 0x40;
  ASSERT_OK(file->Write(0, Slice(mutated)));

  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  EXPECT_EQ(records.size(), 3u);  // Fourth record fails its CRC.
}

TEST_F(WalTest, ZeroSuppressionShrinksRecordsLosslessly) {
  // A nearly-empty page logs small; a full page logs big; both replay to
  // their exact original contents.
  std::string sparse(kPageSize, '\0');
  sparse.replace(0, 5, "head!");
  std::string dense(kPageSize, 'x');
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 1, sparse.data()));
  const uint64_t after_sparse = wal_->bytes_appended();
  ASSERT_OK(wal_->AppendPageImage(1, 2, dense.data()));
  const uint64_t after_dense = wal_->bytes_appended();
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK(wal_->Sync());
  EXPECT_LT(after_sparse, 200u);  // ~5 bytes of payload + framing.
  EXPECT_GT(after_dense - after_sparse, kPageSize);  // Full image.

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.pages_replayed, 2u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(1, buf));
  EXPECT_EQ(std::memcmp(buf, sparse.data(), kPageSize), 0);
  ASSERT_OK(disk_->ReadPage(2, buf));
  EXPECT_EQ(std::memcmp(buf, dense.data(), kPageSize), 0);
}

TEST_F(WalTest, AllZeroPageImageRoundTrips) {
  std::string zeros(kPageSize, '\0');
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 3, zeros.data()));
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].image.size(), kPageSize);
  EXPECT_EQ(records[1].image, zeros);
}

TEST_F(WalTest, TruncateEmptiesLog) {
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendCommit(1));
  wal_->Roll();
  ASSERT_OK(wal_->AppendBegin(2));
  ASSERT_OK(wal_->TruncateAll());
  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(wal_->live_bytes(), 0u);
}

TEST_F(WalTest, EmptyLogRecoversCleanly) {
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.records_scanned, 0u);
  EXPECT_EQ(stats.pages_replayed, 0u);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST_F(WalTest, InterleavedTransactionsRecoverIndependently) {
  // T1 commits, T2 does not; their page images interleave.
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendBegin(2));
  ASSERT_OK(wal_->AppendPageImage(2, 5, PageWith("t2 page").data()));
  ASSERT_OK(wal_->AppendPageImage(1, 4, PageWith("t1 page").data()));
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK(wal_->Sync());

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.discarded_txns, 1u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(4, buf));
  EXPECT_EQ(std::string(buf, 7), "t1 page");
  ASSERT_OK(disk_->ReadPage(5, buf));
  EXPECT_NE(std::string(buf, 7), "t2 page");
}

void AppendTxn(Wal* wal, uint64_t txn, PageId page, const std::string& text) {
  ASSERT_OK(wal->AppendBegin(txn));
  ASSERT_OK(wal->AppendPageImage(txn, page, PageWith(text).data()));
  ASSERT_OK(wal->AppendCommit(txn));
  ASSERT_OK(wal->Sync());
}

TEST_F(WalTest, RollMovesAppendsToTheSpareFile) {
  AppendTxn(wal_.get(), 1, 3, "old");
  const uint64_t first_file = wal_->live_bytes();
  EXPECT_TRUE(wal_->spare_empty());
  wal_->Roll();
  EXPECT_FALSE(wal_->spare_empty());  // The old file is now the spare.
  AppendTxn(wal_.get(), 2, 3, "new");
  ASSERT_OK_AND_ASSIGN(auto file, env_.OpenFile("/wal.1"));
  ASSERT_OK_AND_ASSIGN(uint64_t spare_size, file->Size());
  EXPECT_EQ(spare_size, wal_->live_bytes() - first_file);

  ASSERT_OK_AND_ASSIGN(uint64_t retired, wal_->TruncateSpare());
  EXPECT_EQ(retired, first_file);
  EXPECT_TRUE(wal_->spare_empty());
  EXPECT_EQ(wal_->live_bytes(), spare_size);
  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].txn_id, 2u);
}

// After two rolls the first file holds the NEWEST records: order comes from
// the first transaction id in each file, not from the file names.
TEST_F(WalTest, RecoveryOrdersFilesByFirstTxnId) {
  AppendTxn(wal_.get(), 1, 3, "one");
  wal_->Roll();
  AppendTxn(wal_.get(), 2, 3, "two");
  ASSERT_OK(wal_->TruncateSpare().status());
  wal_->Roll();
  AppendTxn(wal_.get(), 3, 3, "three");
  ASSERT_OK_AND_ASSIGN(auto records, wal_->ReadAll());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].txn_id, 2u);
  EXPECT_EQ(records[3].txn_id, 3u);
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.committed_txns, 2u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(3, buf));
  EXPECT_EQ(std::string(buf, 5), "three");
}

// A torn older file ends the log: the newer file's records would replay
// over the gap, so they are discarded with the tear.
TEST_F(WalTest, TornOlderFileDropsTheNewerFile) {
  AppendTxn(wal_.get(), 1, 3, "kept");
  {
    ASSERT_OK_AND_ASSIGN(auto file, env_.OpenFile("/wal"));
    ASSERT_OK(file->Append(Slice("\x50\x00\x00\x00garbage")));
  }
  wal_->Roll();
  AppendTxn(wal_.get(), 2, 3, "beyond the gap");
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.committed_txns, 1u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(3, buf));
  EXPECT_EQ(std::string(buf, 4), "kept");
}

// TruncateAll must never leave the older file behind alone: replayed by the
// next open, it would roll pages back past the newer file's commits.  After
// two rolls /wal is the newer file, so /wal.1 must be emptied first.
TEST(WalRetireTest, TruncateAllEmptiesTheOlderFileFirst) {
  FaultInjectionEnv env(nullptr);
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(&env, "/wal"));
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(&env, "/data"));
  AppendTxn(wal.get(), 1, 3, "one");
  wal->Roll();
  AppendTxn(wal.get(), 2, 3, "two");
  ASSERT_OK(wal->TruncateSpare().status());
  wal->Roll();
  AppendTxn(wal.get(), 3, 3, "three");
  ASSERT_OK(wal->Recover(disk.get()).status());
  env.FailNth(FaultOp::kTruncate, 1, Status::IOError("injected truncate"));
  EXPECT_FALSE(wal->TruncateAll().ok());
  env.CrashAndLoseUnsynced();

  ASSERT_OK_AND_ASSIGN(wal, Wal::Open(&env, "/wal"));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].txn_id, 3u);
}

// When a torn older file drops the newer one from replay, the dropped file
// goes first: replayed alone it would apply commits past the tear.
TEST(WalRetireTest, TruncateAllEmptiesTheDroppedNewerFileFirst) {
  FaultInjectionEnv env(nullptr);
  ASSERT_OK_AND_ASSIGN(auto wal, Wal::Open(&env, "/wal"));
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(&env, "/data"));
  AppendTxn(wal.get(), 1, 3, "kept");
  {
    ASSERT_OK_AND_ASSIGN(auto file, env.OpenFile("/wal"));
    ASSERT_OK(file->Append(Slice("\x50\x00\x00\x00garbage")));
    ASSERT_OK(file->Sync());
  }
  wal->Roll();
  AppendTxn(wal.get(), 2, 3, "beyond the gap");
  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal->Recover(disk.get()));
  EXPECT_TRUE(stats.tail_truncated);
  env.FailNth(FaultOp::kTruncate, 1, Status::IOError("injected truncate"));
  EXPECT_FALSE(wal->TruncateAll().ok());
  env.CrashAndLoseUnsynced();

  ASSERT_OK_AND_ASSIGN(wal, Wal::Open(&env, "/wal"));
  ASSERT_OK_AND_ASSIGN(auto records, wal->ReadAll());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].txn_id, 1u);
}

}  // namespace
}  // namespace ode
