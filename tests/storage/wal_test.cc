#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "tests/testing/util.h"
#include "util/coding.h"
#include "util/crc32c.h"

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
  EXPECT_EQ(stats.images_replayed, 1u);
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
  EXPECT_EQ(stats.images_replayed, 0u);
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
  EXPECT_EQ(stats.images_replayed, 1u);
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
  EXPECT_EQ(stats.images_replayed, 2u);
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
  EXPECT_EQ(stats.images_replayed, 0u);
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

// -- Byte-range deltas -------------------------------------------------------

/// Encodes the change from `before` to `after` as one record, decodes it
/// back through a log, and returns it.
WalRecord RoundTrip(const std::string& before, const std::string& after,
                    WalRecordType* encoded_as) {
  MemEnv env;
  auto wal = Wal::Open(&env, "/wal");
  EXPECT_TRUE(wal.ok());
  std::string framed;
  *encoded_as = Wal::EncodePageChange(1, 9, before.data(), after.data(),
                                      &framed);
  EXPECT_OK((*wal)->AppendBlob(framed, 1));
  auto records = (*wal)->ReadAll();
  EXPECT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
  return records->empty() ? WalRecord{} : std::move(records->front());
}

/// Applies a decoded page record to `page`, as recovery does.
std::string Apply(std::string page, const WalRecord& record) {
  if (record.type == WalRecordType::kPageImage) return record.image;
  for (const WalRange& range : record.ranges) {
    page.replace(range.offset, range.bytes.size(), range.bytes);
  }
  return page;
}

TEST(WalDeltaTest, RangesAtBothPageEndsRoundTrip) {
  const std::string before = PageWith("some page content");
  std::string after = before;
  after[0] = 'S';
  after[kPageSize - 1] = 'z';
  WalRecordType type;
  const WalRecord record = RoundTrip(before, after, &type);
  ASSERT_EQ(type, WalRecordType::kPageDelta);
  EXPECT_EQ(record.type, WalRecordType::kPageDelta);
  EXPECT_EQ(record.page_id, 9u);
  ASSERT_EQ(record.ranges.size(), 2u);
  EXPECT_EQ(record.ranges[0].offset, 0u);
  EXPECT_EQ(record.ranges[0].bytes, "S");
  EXPECT_EQ(record.ranges[1].offset, kPageSize - 1);
  EXPECT_EQ(record.ranges[1].bytes, "z");
  EXPECT_EQ(Apply(before, record), after);
}

TEST(WalDeltaTest, NeighbouringRangesMergeAcrossShortGaps) {
  const std::string before(kPageSize, 'a');
  std::string after = before;
  after[100] = 'b';
  after[100 + Wal::kMaxRangeGap + 1] = 'c';   // Gap of kMaxRangeGap: merged.
  after[100 + 2 * Wal::kMaxRangeGap + 3] = 'd';  // Gap one longer: not.
  WalRecordType type;
  const WalRecord record = RoundTrip(before, after, &type);
  ASSERT_EQ(type, WalRecordType::kPageDelta);
  ASSERT_EQ(record.ranges.size(), 2u);
  EXPECT_EQ(record.ranges[0].offset, 100u);
  EXPECT_EQ(record.ranges[0].bytes.size(), Wal::kMaxRangeGap + 2);
  EXPECT_EQ(record.ranges[1].offset, 100 + 2 * Wal::kMaxRangeGap + 3);
  EXPECT_EQ(Apply(before, record), after);
}

TEST(WalDeltaTest, UnchangedPageLogsAnEmptyDelta) {
  const std::string page(kPageSize, 'q');
  WalRecordType type;
  const WalRecord record = RoundTrip(page, page, &type);
  ASSERT_EQ(type, WalRecordType::kPageDelta);
  EXPECT_TRUE(record.ranges.empty());
  EXPECT_EQ(Apply(page, record), page);
}

TEST(WalDeltaTest, DenseEditFallsBackToAFullImage) {
  const std::string before(kPageSize, 'a');
  std::string after = before;
  // Every other byte: ranges cannot merge into less than the page itself.
  for (size_t i = 0; i < kPageSize; i += 2) after[i] = 'b';
  WalRecordType type;
  const WalRecord record = RoundTrip(before, after, &type);
  EXPECT_EQ(type, WalRecordType::kPageImage);
  EXPECT_EQ(record.type, WalRecordType::kPageImage);
  EXPECT_EQ(record.image, after);
}

TEST(WalDeltaTest, SmallEditLogsFarLessThanTheImage) {
  std::string before(kPageSize, 'a');
  std::string after = before;
  after.replace(2000, 8, "8 bytes!");
  std::string delta;
  std::string image;
  Wal::EncodePageChange(1, 9, before.data(), after.data(), &delta);
  Wal::EncodePageImage(1, 9, after.data(), &image);
  EXPECT_LT(delta.size(), 40u);
  EXPECT_GT(image.size(), kPageSize);
}

/// Frames `payload` as one CRC-valid record.
std::string Framed(const std::string& payload) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed32(&out, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  return out + payload;
}

TEST_F(WalTest, RangePastThePageEndIsATornTail) {
  AppendTxn(wal_.get(), 1, 3, "kept");
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kPageDelta));
  PutVarint64(&payload, 2);
  PutFixed32(&payload, 3);
  PutVarint64(&payload, 1);
  PutFixed16(&payload, kPageSize - 2);
  PutFixed16(&payload, 4);
  payload.append("late");
  ASSERT_OK(wal_->AppendBlob(Framed(payload), 1));
  ASSERT_OK(wal_->AppendCommit(2));

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.records_scanned, 3u);
  EXPECT_EQ(stats.deltas_replayed, 0u);
}

TEST_F(WalTest, RecoveryAppliesImageThenDeltasInLogOrder) {
  const std::string v1 = PageWith("version one");
  std::string v2 = v1;
  v2.replace(8, 3, "TWO");
  std::string v3 = v2;
  v3.replace(0, 7, "VERSION");
  v3[kPageSize - 1] = '!';
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 4, v1.data()));
  ASSERT_OK(wal_->AppendCommit(1));
  ASSERT_OK(wal_->AppendBegin(2));
  ASSERT_OK(wal_->AppendPageChange(2, 4, v1.data(), v2.data()));
  ASSERT_OK(wal_->AppendCommit(2));
  ASSERT_OK(wal_->AppendBegin(3));
  ASSERT_OK(wal_->AppendPageChange(3, 4, v2.data(), v3.data()));
  ASSERT_OK(wal_->AppendCommit(3));
  // Uncommitted: its delta must not apply.
  std::string v4 = v3;
  v4.replace(0, 4, "XXXX");
  ASSERT_OK(wal_->AppendBegin(4));
  ASSERT_OK(wal_->AppendPageChange(4, 4, v3.data(), v4.data()));

  ASSERT_OK_AND_ASSIGN(RecoveryStats stats, wal_->Recover(disk_.get()));
  EXPECT_EQ(stats.images_replayed, 1u);
  EXPECT_EQ(stats.deltas_replayed, 2u);
  EXPECT_EQ(stats.discarded_txns, 1u);
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(4, buf));
  EXPECT_EQ(std::string(buf, kPageSize), v3);
}

TEST_F(WalTest, DeltaWithoutAFullImageIsCorruption) {
  const std::string before(kPageSize, 'p');
  std::string after = before;
  after[7] = 'q';
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageChange(1, 4, before.data(), after.data()));
  ASSERT_OK(wal_->AppendCommit(1));
  auto stats = wal_->Recover(disk_.get());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status();
}

// The base must be in the same file: a full image in the older file does
// not cover a delta in the newer one, which a checkpoint may outlive.
TEST_F(WalTest, DeltaWhoseImageIsInTheOtherFileIsCorruption) {
  const std::string before(kPageSize, 'p');
  std::string after = before;
  after[7] = 'q';
  ASSERT_OK(wal_->AppendBegin(1));
  ASSERT_OK(wal_->AppendPageImage(1, 4, before.data()));
  ASSERT_OK(wal_->AppendCommit(1));
  wal_->Roll();
  ASSERT_OK(wal_->AppendBegin(2));
  ASSERT_OK(wal_->AppendPageChange(2, 4, before.data(), after.data()));
  ASSERT_OK(wal_->AppendCommit(2));
  auto stats = wal_->Recover(disk_.get());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status();
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
