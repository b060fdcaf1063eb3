// The crash matrix: every workload below is swept with a simulated crash at
// every mutating I/O operation (each WAL append, each fsync, each checkpoint
// page write) under every CrashTear mode, then recovered and compared
// against a healthy twin database.  See tests/testing/crash_harness.h for
// the acceptance rules.
//
// Run with `ctest -L crash`.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "storage/fault_env.h"
#include "tests/testing/crash_harness.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

using testing::CrashMatrixStats;
using testing::RunCrashMatrix;
using testing::Workload;
using testing::WorkloadOp;

// Each workload test asserts a floor on its own injection count (ctest runs
// every case in its own process, so totals cannot be accumulated across
// tests).  The floors sum comfortably past the acceptance bar of 200
// distinct injection steps and catch a workload whose sweep silently
// shrinks — e.g. if an engine change stopped routing I/O through the env.
// Calibrated for the group-commit write path: a commit is ONE blob append
// plus one fsync (not one append per record), so each op contributes ~2
// crash steps rather than 3-10.
void RunWithFloor(const Workload& workload, uint64_t min_injections,
                  uint64_t min_steps = 0) {
  CrashMatrixStats stats;
  RunCrashMatrix(workload, &stats);
  std::printf("[ coverage ] %s: %llu injections over %llu distinct steps\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(stats.injections),
              static_cast<unsigned long long>(stats.max_steps));
  EXPECT_GE(stats.injections, min_injections) << workload.name;
  EXPECT_GE(stats.max_steps, min_steps) << workload.name;
}

// Each op looks up ids by position so it is self-contained: ops run against
// both the twin and every crash-sweep instance, which allocate identically.
// One atomic group: a crash must not leave the type registered without the
// object (the prefix comparison treats each op as all-or-nothing).
WorkloadOp Pnew(const std::string& type, const std::string& payload) {
  return [=](Database& db) -> Status {
    ODE_RETURN_IF_ERROR(db.Begin());
    auto tid = db.RegisterType(type);
    Status s = tid.ok() ? db.PnewRaw(*tid, Slice(payload)).status()
                        : tid.status();
    if (!s.ok()) {
      (void)db.Abort();
      return s;
    }
    return db.Commit();
  };
}

WorkloadOp NewVersion(uint64_t oid) {
  return [=](Database& db) -> Status {
    return db.NewVersionOf(ObjectId{oid}).status();
  };
}

WorkloadOp Update(uint64_t oid, const std::string& payload) {
  return [=](Database& db) -> Status {
    return db.UpdateLatest(ObjectId{oid}, Slice(payload));
  };
}

WorkloadOp PdeleteVersion(uint64_t oid, VersionNum vnum) {
  return [=](Database& db) -> Status {
    return db.PdeleteVersion(VersionId{ObjectId{oid}, vnum});
  };
}

WorkloadOp PdeleteObject(uint64_t oid) {
  return [=](Database& db) -> Status {
    return db.PdeleteObject(ObjectId{oid});
  };
}

// The 4-operation mixed workload from the acceptance criteria: pnew,
// newversion, update, pdelete against full-payload storage.  Sized so the
// sweep covers well over 200 distinct crash steps (each step swept under
// all five tear modes).
TEST(CrashMatrixTest, MixedWorkloadFullPayloads) {
  Workload w;
  w.name = "mixed_full";
  for (int i = 0; i < 14; ++i) {
    const uint64_t oid = static_cast<uint64_t>(i) + 1;
    w.ops.push_back(Pnew("doc", std::string(64 + 20 * i, 'a' + (i % 13))));
    w.ops.push_back(NewVersion(oid));
    w.ops.push_back(Update(oid, std::string(96 + 8 * i, 'z' - (i % 13))));
  }
  w.ops.push_back(PdeleteVersion(6, 1));
  w.ops.push_back(PdeleteObject(7));
  w.ops.push_back(NewVersion(2));
  w.ops.push_back(PdeleteVersion(1, 1));
  w.ops.push_back(Update(2, "tiny"));
  w.ops.push_back(PdeleteVersion(3, 2));
  w.ops.push_back(PdeleteObject(4));
  w.ops.push_back(NewVersion(5));
  w.ops.push_back(PdeleteObject(2));
  w.ops.push_back(Update(5, std::string(128, 'q')));
  w.ops.push_back(PdeleteVersion(9, 1));
  w.ops.push_back(NewVersion(10));
  w.ops.push_back(PdeleteObject(12));
  w.ops.push_back(Update(13, std::string(160, 'r')));
  RunWithFloor(w, /*min_injections=*/500, /*min_steps=*/100);
}

// Delta storage with an aggressive keyframe interval, so the sweep crosses
// delta encodes AND forced keyframe rewrites; updates of delta-backed
// versions exercise the rewrite path too.
TEST(CrashMatrixTest, DeltaChainsAndKeyframeRewrites) {
  Workload w;
  w.name = "delta_keyframe";
  w.options.payload_strategy = PayloadKind::kDelta;
  w.options.delta_keyframe_interval = 2;
  std::string base(128, 'x');
  w.ops = {Pnew("blob", base)};
  for (int i = 0; i < 4; ++i) {
    std::string edit = base;
    edit[i * 7] = static_cast<char>('A' + i);  // Small edits: real deltas.
    w.ops.push_back(NewVersion(1));
    w.ops.push_back(Update(1, edit));
  }
  w.ops.push_back(PdeleteVersion(1, 2));  // Splice inside the delta chain.
  RunWithFloor(w, /*min_injections=*/120);
}

// Explicit transaction groups: a multi-call commit must be all-or-nothing,
// and an abort group must leave no trace no matter where the crash lands.
TEST(CrashMatrixTest, GroupedCommitAndAbort) {
  Workload w;
  w.name = "grouped_txn";
  w.ops = {
      Pnew("doc", "seed"),
      [](Database& db) -> Status {  // Group of three calls, one commit.
        ODE_RETURN_IF_ERROR(db.Begin());
        Status s = db.NewVersionOf(ObjectId{1}).status();
        if (s.ok()) s = db.UpdateLatest(ObjectId{1}, Slice("grouped"));
        if (s.ok()) {
          auto tid = db.RegisterType("doc");
          s = tid.ok() ? db.PnewRaw(*tid, Slice("second object")).status()
                       : tid.status();
        }
        if (!s.ok()) {
          (void)db.Abort();
          return s;
        }
        return db.Commit();
      },
      [](Database& db) -> Status {  // Deliberate abort: a logical no-op.
        ODE_RETURN_IF_ERROR(db.Begin());
        (void)db.UpdateLatest(ObjectId{1}, Slice("never visible"));
        return db.Abort();
      },
      Update(1, "after abort"),
  };
  RunWithFloor(w, /*min_injections=*/60);
}

// Vacuum rebuilds all four catalog trees; a crash anywhere in the rebuild
// (or in its checkpoint) must recover to the same logical state.
TEST(CrashMatrixTest, VacuumInterruptedMidRebuild) {
  Workload w;
  w.name = "vacuum";
  w.ops = {
      Pnew("doc", std::string(80, 'p')),
      Pnew("doc", std::string(80, 'q')),
      NewVersion(1),
      PdeleteObject(2),  // Leave dead entries for Vacuum to reclaim.
      [](Database& db) -> Status { return db.Vacuum(); },
      Pnew("doc", "post-vacuum"),
  };
  RunWithFloor(w, /*min_injections=*/90);
}

// Content-addressed ref/unref churn: duplicate payloads across objects make
// every pnew/update/delete a refcount edit in the payload store, so the
// sweep crashes between blob insertion, refcount bumps and frees.  Each
// recovery runs the full fsck, whose pass 3 audits every blob's refcount
// against the referencing versions — a torn ref/unref surfaces as an orphan
// blob, a dangling reference, or a count mismatch.
TEST(CrashMatrixTest, DedupedPayloadRefcountChurn) {
  Workload w;
  w.name = "dedupe_refs";
  const std::string shared_a(120, 'A');
  const std::string shared_b(96, 'B');
  // Objects 1-4 all share blob A; objects 5-6 share blob B.
  for (int i = 0; i < 4; ++i) w.ops.push_back(Pnew("doc", shared_a));
  for (int i = 0; i < 2; ++i) w.ops.push_back(Pnew("doc", shared_b));
  // newversion shares the base's blob (pure ref); updates move references
  // between blobs (insert-before-release ordering under crash).
  w.ops.push_back(NewVersion(1));
  w.ops.push_back(Update(1, shared_b));   // A loses a ref, B gains one.
  w.ops.push_back(Update(2, shared_a));   // Same-content rewrite: rc 2->1->2.
  w.ops.push_back(NewVersion(5));
  w.ops.push_back(Update(5, shared_a));
  // Deletes walk refcounts down; the LAST unref frees the heap record.
  w.ops.push_back(PdeleteObject(3));
  w.ops.push_back(PdeleteObject(4));
  w.ops.push_back(PdeleteVersion(1, 2));
  w.ops.push_back(PdeleteObject(2));
  w.ops.push_back(PdeleteObject(1));      // Blob A's refs head toward zero.
  w.ops.push_back(PdeleteObject(6));
  w.ops.push_back(Update(5, "unique payload, last blob standing"));
  RunWithFloor(w, /*min_injections=*/150);
}

// The incremental vacuum path driven step by step: crashes land between
// bounded shadow-copy transactions and inside the final swap, with ordinary
// commits interleaved so the interference fallback is swept too.
TEST(CrashMatrixTest, IncrementalVacuumStepsInterleavedWithWrites) {
  Workload w;
  w.name = "vacuum_steps";
  const auto steps_until_done = [](Database& db) -> Status {
    while (true) {
      auto done = db.VacuumStep(4);
      if (!done.ok()) return done.status();
      if (*done) return Status::OK();
    }
  };
  w.ops = {
      Pnew("doc", std::string(100, 'v')),
      Pnew("doc", std::string(100, 'w')),
      Pnew("doc", std::string(100, 'v')),  // Duplicate: refcounted blob.
      NewVersion(1),
      PdeleteObject(2),
      [](Database& db) -> Status {
        // A lone bounded step (copies at most 4 entries, commits, leaves
        // the shadow parked in the scratch slot)...
        return db.VacuumStep(4).status();
      },
      Update(1, std::string(90, 'u')),  // ...then a foreign commit...
      [steps_until_done](Database& db) -> Status {
        return steps_until_done(db);  // ...forcing the fallback mid-pass.
      },
      Pnew("doc", "post-vacuum"),
  };
  RunWithFloor(w, /*min_injections=*/150);
}

// Checkpoints between write groups: the dense sweep places crashes inside
// each checkpoint's out-of-latch page writes, its data-file fsync, and the
// truncate + fsync that retires the old WAL file — with later groups
// committing into the other WAL file, so recovery must replay the two files
// in order (and over pages a torn checkpoint already half wrote).
TEST(CrashMatrixTest, CheckpointsBetweenWriteGroups) {
  Workload w;
  w.name = "checkpoints";
  const WorkloadOp checkpoint = [](Database& db) -> Status {
    return db.Checkpoint();
  };
  w.ops = {
      Pnew("doc", std::string(90, 'a')),
      Pnew("doc", std::string(70, 'b')),
      NewVersion(1),
      checkpoint,
      Update(1, std::string(110, 'c')),
      Pnew("doc", std::string(60, 'd')),
      checkpoint,
      NewVersion(2),
      Update(3, std::string(80, 'e')),
      PdeleteVersion(1, 1),
      checkpoint,
      checkpoint,  // Nothing dirty: the roll alone, then an idle retire.
      Update(2, std::string(50, 'f')),
      PdeleteObject(3),
  };
  RunWithFloor(w, /*min_injections=*/200, /*min_steps=*/40);
}

// Acceptance criterion: a failed fsync during Commit must surface as a
// non-OK Status from the mutating call, and the engine must refuse further
// transactions (the unsynced WAL tail could otherwise become durable later,
// silently resurrecting the failed commit).
TEST(CrashMatrixTest, FailedCommitSyncSurfacesAndPoisons) {
  FaultInjectionEnv env(nullptr);
  DatabaseOptions opts;
  opts.storage.env = &env;
  opts.storage.path = "/db";
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(opts));
  ASSERT_OK_AND_ASSIGN(uint32_t tid, db->RegisterType("doc"));
  ASSERT_OK(db->PnewRaw(tid, Slice("durable")).status());

  env.FailNth(FaultOp::kSync, 0, Status::IOError("injected fsync failure"),
              /*sticky=*/false);
  Status s = db->PnewRaw(tid, Slice("lost")).status();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s;

  // The disk is healthy again, but the engine stays poisoned.
  Status begin = db->Begin();
  ASSERT_FALSE(begin.ok());
  EXPECT_TRUE(begin.IsFailedPrecondition()) << begin;

  // Power-loss then reopen: the un-fsynced records of the failed commit are
  // gone, and fresh recovery restores service with the committed prefix.
  // (Without the crash the bytes could survive — the kKeepAll ambiguity —
  // which is exactly why the engine must refuse to fsync them later.)
  db.reset();
  env.CrashAndLoseUnsynced();
  ASSERT_OK_AND_ASSIGN(db, Database::Open(opts));
  ASSERT_OK_AND_ASSIGN(auto payload, db->ReadLatest(ObjectId{1}));
  EXPECT_EQ(payload, "durable");
  ASSERT_OK_AND_ASSIGN(bool second, db->ObjectExists(ObjectId{2}));
  EXPECT_FALSE(second);
}

constexpr CrashTear kAllTears[] = {CrashTear::kLoseAll, CrashTear::kKeepAll,
                                   CrashTear::kTearHalf, CrashTear::kTornByte,
                                   CrashTear::kCorruptLast};

// Verifies chains + fsck on a recovered database; true if clean.
bool RecoveredStateClean(Database& db) {
  bool ok = true;
  for (const std::string& v : testing::VerifyChains(db)) {
    ADD_FAILURE() << v;
    ok = false;
  }
  auto report = CheckDatabase(db);
  EXPECT_OK(report.status());
  if (!report.ok()) return false;
  for (const std::string& e : report->errors) {
    ADD_FAILURE() << "fsck: " << e;
    ok = false;
  }
  return ok;
}

// Async commit acks after the WAL append but BEFORE the fsync, so a crash
// can tear the un-fsynced tail holding several acked transactions.  The
// durability contract is committed-PREFIX acceptance: recovery must land on
// some prefix of the acked update sequence (never a later state than what
// was attempted, never a reordering), with chains and fsck clean.  The
// sweep places a crash at every mutating I/O step of the run, under every
// tear mode, exactly like RunCrashMatrix — but the acceptance rule is the
// async one, so it cannot reuse the harness's exact-prefix comparison.
TEST(CrashMatrixTest, TornAsyncTailRecoversAckedPrefix) {
  constexpr int kUpdates = 6;
  const auto payload_for = [](int j) {
    return std::string(48, static_cast<char>('a' + j)) + "_async_v" +
           std::to_string(j);
  };
  for (CrashTear tear : kAllTears) {
    for (uint64_t step = 0;; ++step) {
      ASSERT_LT(step, 100000u) << "crash sweep did not terminate";
      SCOPED_TRACE(std::string("async_tail tear=") + testing::TearName(tear) +
                   " step=" + std::to_string(step));
      FaultInjectionEnv env(nullptr);
      DatabaseOptions opts;
      opts.storage.env = &env;
      opts.storage.path = "/crash";
      opts.storage.commit_mode = CommitMode::kAsync;
      int acked = 0;
      int attempted = 0;
      {
        auto db = Database::Open(opts);
        ASSERT_OK(db.status());
        auto tid = (*db)->RegisterType("doc");
        ASSERT_OK(tid.status());
        ASSERT_OK((*db)->PnewRaw(*tid, Slice(payload_for(0))).status());
        // Pin the base object durable so every recovery at least sees it.
        ASSERT_OK((*db)->WaitForDurable());
        env.ScheduleCrash(step, tear);
        for (int j = 1; j <= kUpdates; ++j) {
          ++attempted;
          Status s = (*db)->UpdateLatest(ObjectId{1}, Slice(payload_for(j)));
          if (!s.ok()) break;
          ++acked;
        }
      }  // Close while armed: the close-time checkpoint is swept too.
      if (!env.crash_fired()) {
        EXPECT_EQ(acked, kUpdates);
        break;  // Step is past the last mutating op: sweep complete.
      }
      env.ClearFaults();
      auto recovered = Database::Open(opts);
      ASSERT_OK(recovered.status());
      RecoveredStateClean(**recovered);
      auto payload = (*recovered)->ReadLatest(ObjectId{1});
      ASSERT_OK(payload.status());
      int r = -1;
      for (int j = 0; j <= kUpdates; ++j) {
        if (*payload == payload_for(j)) { r = j; break; }
      }
      ASSERT_GE(r, 0) << "recovered payload is not any attempted state";
      // Async ack is weaker than durable: r may trail acked, but recovery
      // can never surface MORE work than was handed to the engine.
      EXPECT_LE(r, attempted);
    }
  }
}

// Multi-writer grouped commit: several threads commit to disjoint objects
// so the leader batches their records into one append+fsync, and the crash
// sweep tears that batched group-commit record mid-flight.  In sync mode an
// acked commit is durable, so per OBJECT the recovered update count r must
// satisfy acked <= r <= attempted even when the torn batch held records
// from several transactions.  Thread interleaving makes each run
// nondeterministic; the acceptance bound holds for every interleaving.
TEST(CrashMatrixTest, MultiWriterTornGroupCommitKeepsAckedCommits) {
  constexpr int kWriters = 3;
  constexpr int kUpdatesPerWriter = 4;
  const auto payload_for = [](int writer, int j) {
    return std::string(32, static_cast<char>('b' + writer)) + "_w" +
           std::to_string(writer) + "_u" + std::to_string(j);
  };
  for (CrashTear tear : kAllTears) {
    for (uint64_t step = 0;; ++step) {
      ASSERT_LT(step, 100000u) << "crash sweep did not terminate";
      SCOPED_TRACE(std::string("multi_writer tear=") +
                   testing::TearName(tear) + " step=" + std::to_string(step));
      FaultInjectionEnv env(nullptr);
      DatabaseOptions opts;
      opts.storage.env = &env;
      opts.storage.path = "/crash";
      // Generous linger so concurrent writers actually share fsyncs and the
      // torn record is a genuine multi-transaction batch.
      opts.storage.group_commit_max_wait_us = 2000;
      std::vector<int> acked(kWriters, 0);
      std::vector<int> attempted(kWriters, 0);
      {
        auto db = Database::Open(opts);
        ASSERT_OK(db.status());
        auto tid = (*db)->RegisterType("doc");
        ASSERT_OK(tid.status());
        for (int t = 0; t < kWriters; ++t) {
          ASSERT_OK((*db)->PnewRaw(*tid, Slice(payload_for(t, 0))).status());
        }
        env.ScheduleCrash(step, tear);
        std::vector<std::thread> writers;
        for (int t = 0; t < kWriters; ++t) {
          writers.emplace_back([&, t] {
            const ObjectId oid{static_cast<uint64_t>(t) + 1};
            for (int j = 1; j <= kUpdatesPerWriter; ++j) {
              ++attempted[t];
              Status s = (*db)->UpdateLatest(oid, Slice(payload_for(t, j)));
              if (!s.ok()) break;  // Crash casualty: engine is poisoned.
              ++acked[t];
            }
          });
        }
        for (std::thread& th : writers) th.join();
      }
      if (!env.crash_fired()) {
        for (int t = 0; t < kWriters; ++t) {
          EXPECT_EQ(acked[t], kUpdatesPerWriter);
        }
        break;
      }
      env.ClearFaults();
      auto recovered = Database::Open(opts);
      ASSERT_OK(recovered.status());
      RecoveredStateClean(**recovered);
      for (int t = 0; t < kWriters; ++t) {
        const ObjectId oid{static_cast<uint64_t>(t) + 1};
        auto payload = (*recovered)->ReadLatest(oid);
        ASSERT_OK(payload.status());
        int r = -1;
        for (int j = 0; j <= kUpdatesPerWriter; ++j) {
          if (*payload == payload_for(t, j)) { r = j; break; }
        }
        ASSERT_GE(r, 0) << "writer " << t
                        << ": recovered payload is not any attempted state";
        // Sync-mode ack means durable: no acked commit may be lost, and no
        // unacked work may leak past what the writer handed to the engine.
        EXPECT_GE(r, acked[t]) << "writer " << t;
        EXPECT_LE(r, attempted[t]) << "writer " << t;
      }
    }
  }
}

}  // namespace
}  // namespace ode
