#include <gtest/gtest.h>

#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "tests/testing/util.h"
#include "util/random.h"

namespace ode {
namespace {

/// Robustness: recovery must survive ANY byte sequence in the log file —
/// returning clean results or clean errors, never crashing or replaying
/// unverified data.
class WalFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalFuzzTest, RandomGarbageLogsRecoverCleanly) {
  Random rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    MemEnv env;
    {
      auto file = env.OpenFile("/wal");
      ASSERT_TRUE(file.ok());
      ASSERT_OK((*file)->Append(Slice(rng.NextBytes(rng.Range(0, 8000)))));
    }
    auto wal = Wal::Open(&env, "/wal");
    ASSERT_TRUE(wal.ok());
    auto disk = DiskManager::Open(&env, "/data");
    ASSERT_TRUE(disk.ok());
    auto stats = (*wal)->Recover(disk->get());
    ASSERT_TRUE(stats.ok()) << stats.status();
    // Garbage cannot produce committed transactions (the odds of a valid
    // CRC-framed commit record appearing by chance are negligible).
    EXPECT_EQ(stats->images_replayed + stats->deltas_replayed, 0u);
  }
}

TEST_P(WalFuzzTest, BitFlippedValidLogNeverReplaysCorruptPages) {
  Random rng(GetParam() + 1000);
  // Build a valid log...
  MemEnv env;
  {
    auto wal = Wal::Open(&env, "/wal");
    ASSERT_TRUE(wal.ok());
    std::string image(kPageSize, 'p');
    for (uint64_t t = 1; t <= 5; ++t) {
      ASSERT_OK((*wal)->AppendBegin(t));
      ASSERT_OK((*wal)->AppendPageImage(t, static_cast<PageId>(t), image.data()));
      ASSERT_OK((*wal)->AppendCommit(t));
    }
  }
  std::string pristine;
  {
    auto file = env.OpenFile("/wal");
    ASSERT_TRUE(file.ok());
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    std::string scratch;
    Slice content;
    ASSERT_OK((*file)->Read(0, *size, &scratch, &content));
    pristine = content.ToString();
  }
  // ...then flip random bits and recover each mutant.
  for (int round = 0; round < 30; ++round) {
    std::string mutant = pristine;
    const int flips = static_cast<int>(rng.Range(1, 8));
    for (int f = 0; f < flips; ++f) {
      mutant[rng.Uniform(mutant.size())] ^=
          static_cast<char>(1 << rng.Uniform(8));
    }
    MemEnv fresh;
    {
      auto file = fresh.OpenFile("/wal");
      ASSERT_TRUE(file.ok());
      ASSERT_OK((*file)->Append(Slice(mutant)));
    }
    auto wal = Wal::Open(&fresh, "/wal");
    auto disk = DiskManager::Open(&fresh, "/data");
    ASSERT_TRUE(wal.ok() && disk.ok());
    auto stats = (*wal)->Recover(disk->get());
    ASSERT_TRUE(stats.ok()) << stats.status();
    // Whatever replays must be a prefix of the valid transactions.
    EXPECT_LE(stats->images_replayed + stats->deltas_replayed, 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalFuzzTest, ::testing::Values(71, 72, 73));

}  // namespace
}  // namespace ode
