// TAB-I: crash-recovery cost — WAL replay time as a function of the volume
// of committed-but-not-checkpointed work, plus checkpoint cost itself.
// (Plain binary: each measurement needs a fresh crashed database, which
// does not fit the google-benchmark steady-state loop.)

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "storage/btree.h"
#include "storage/fault_env.h"
#include "storage/storage_engine.h"

namespace ode {
namespace bench {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Commits `txns` transactions of `writes_per_txn` small tree writes against
/// a fault env, crashes, then measures reopen (= WAL replay) time.
void MeasureRecovery(int txns, int writes_per_txn) {
  FaultInjectionEnv env(nullptr);
  StorageOptions options;
  options.env = &env;
  options.path = "/db";
  options.checkpoint_wal_bytes = 1ull << 40;  // Never auto-checkpoint.
  uint64_t wal_bytes = 0;
  {
    auto engine = StorageEngine::Open(options);
    ODE_CHECK(engine.ok());
    uint64_t key = 0;
    for (int t = 0; t < txns; ++t) {
      ODE_CHECK((*engine)
                    ->WithTxn([&](Txn& txn) -> Status {
                      auto tree = BTree::Open(&txn, 4);
                      if (!tree.ok()) return tree.status();
                      for (int w = 0; w < writes_per_txn; ++w) {
                        ODE_RETURN_IF_ERROR(
                            tree->Put(Slice("key" + std::to_string(key++)),
                                      Slice("value")));
                      }
                      return Status::OK();
                    })
                    .ok());
    }
    wal_bytes = (*engine)->wal_bytes();
    env.CrashAndLoseUnsynced();
  }
  const auto start = std::chrono::steady_clock::now();
  auto engine = StorageEngine::Open(options);
  const double reopen_ms = MillisSince(start);
  ODE_CHECK(engine.ok());
  const RecoveryStats& stats = (*engine)->last_recovery();
  std::printf(
      "recovery  txns=%-5d writes/txn=%-4d wal=%8.2f MiB  replayed "
      "images=%-5llu deltas=%-6llu reopen=%8.2f ms\n",
      txns, writes_per_txn, wal_bytes / (1024.0 * 1024.0),
      static_cast<unsigned long long>(stats.images_replayed),
      static_cast<unsigned long long>(stats.deltas_replayed), reopen_ms);
}

/// Measures checkpoint cost for a given number of dirty pages.
void MeasureCheckpoint(int records) {
  auto env = std::make_unique<MemEnv>();
  StorageOptions options;
  options.env = env.get();
  options.path = "/db";
  options.checkpoint_wal_bytes = 1ull << 40;
  auto engine = StorageEngine::Open(options);
  ODE_CHECK(engine.ok());
  ODE_CHECK((*engine)
                ->WithTxn([&](Txn& txn) -> Status {
                  for (int i = 0; i < records; ++i) {
                    auto rid = (*engine)->heap().Insert(
                        &txn, Slice(MakePayload(3000, i)));
                    if (!rid.ok()) return rid.status();
                  }
                  return Status::OK();
                })
                .ok());
  const auto start = std::chrono::steady_clock::now();
  ODE_CHECK((*engine)->Checkpoint().ok());
  const double checkpoint_ms = MillisSince(start);
  std::printf("checkpoint  records=%-6d (~%d pages)  flush=%8.2f ms\n",
              records, records, checkpoint_ms);
}

}  // namespace
}  // namespace bench
}  // namespace ode

int main() {
  // The simulated crashes make the engine's close-time checkpoint fail by
  // design; keep those expected warnings out of the measurement output.
  ode::Logger::set_level(ode::LogLevel::kError);
  std::printf("TAB-I: crash recovery and checkpoint cost\n\n");
  for (int txns : {10, 100, 1000}) {
    ode::bench::MeasureRecovery(txns, 10);
  }
  ode::bench::MeasureRecovery(100, 100);
  std::printf("\n");
  for (int records : {100, 1000, 5000}) {
    ode::bench::MeasureCheckpoint(records);
  }
  return 0;
}
