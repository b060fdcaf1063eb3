#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "net/client.h"
#include "util/random.h"

namespace ode_bench {

using ode::Database;
using ode::ObjectId;
using ode::Slice;
using ode::Status;
using ode::StatusOr;
using ode::VersionId;
using ode::net::Client;
using ode::net::OpCode;
using ode::net::Request;
using ode::net::Response;

namespace {

/// Set-up writes per user transaction: loading pays one fsync per batch.
constexpr size_t kLoadTxnOps = 256;

constexpr char kLoopback[] = "127.0.0.1";

/// A refused TxnBegin is retried this often, for at most this long.
constexpr auto kBeginRetry = std::chrono::microseconds(50);
constexpr uint64_t kBeginGiveUpNs = 1'000'000'000;

/// First coordinate of StreamSeed, one per kind of generated input.
enum Stream : uint64_t {
  kPlanStream = 1,
  kPayloadStream = 2,  ///< Root payload of loaded object k.
  kEditStream = 3,     ///< Edit that makes version v of object k.
  kShapeStream = 4,    ///< Which version v of object k derives from.
  kPnewStream = 5,     ///< Payloads of objects created during the run.
};

/// Groups set-up writes into user transactions of kLoadTxnOps operations.
class LoadBatch {
 public:
  explicit LoadBatch(Database& db) : db_(db) {}
  Status Start() { return db_.Begin(); }
  /// Call after each write.
  Status Tick() {
    if (++ops_ % kLoadTxnOps != 0) return Status::OK();
    ODE_RETURN_IF_ERROR(db_.Commit());
    return db_.Begin();
  }
  Status Finish() { return db_.Commit(); }

 private:
  Database& db_;
  size_t ops_ = 0;
};

StatusOr<uint32_t> RawType(Database& db) {
  return db.RegisterType("ode_bench.raw");
}

/// One request and its response, with stand-in payloads of the right sizes
/// (the codec's cost does not depend on the bytes).
void AddExchange(OpCode op, uint64_t oid, uint32_t vnum, size_t request_bytes,
                 size_t response_bytes, std::vector<Request>* reqs,
                 std::vector<Response>* resps) {
  Request req;
  req.op = op;
  req.oid = oid;
  req.vnum = vnum;
  req.payload.assign(request_bytes, 'x');
  Response resp = ode::net::ResponseFor(req);
  resp.oid = oid;
  resp.vnum = vnum;
  resp.payload.assign(response_bytes, 'x');
  reqs->push_back(std::move(req));
  resps->push_back(std::move(resp));
}

// -- read_hot ---------------------------------------------------------------

class ReadHotGen : public WorkloadGen {
 public:
  enum Kind : uint8_t { kLatest, kVersion };

  ReadHotGen(uint32_t index, uint64_t seed,
             const std::vector<ObjectModel>& objects, size_t payload_bytes,
             std::unique_ptr<Client> client)
      : WorkloadGen(index, seed),
        objects_(objects),
        payload_bytes_(payload_bytes),
        client_(std::move(client)) {}

  void Plan(uint64_t stream, size_t ops) override {
    ode::Random rng(PlanSeed(stream));
    plan_.assign(ops, PlannedOp{});
    for (PlannedOp& op : plan_) {
      op.obj = static_cast<uint32_t>(rng.Uniform(objects_.size()));
      op.kind = rng.Uniform(10) == 0 ? kVersion : kLatest;
      if (op.kind == kVersion) {
        op.vnum = static_cast<uint32_t>(
            1 + rng.Uniform(objects_[op.obj].latest_vnum()));
      }
    }
  }

  bool Run(size_t i, uint64_t* done_ns) override {
    const PlannedOp& op = plan_[i];
    const ObjectModel& o = objects_[op.obj];
    const uint64_t id = NextOpId();
    ScopedSpan span(spans_, SpanName::kOp, id);
    VersionId resolved;
    StatusOr<std::string> bytes = [&] {
      ScopedSpan call(spans_, SpanName::kClientCall, id);
      return op.kind == kLatest ? client_->DerefLatest(o.oid, &resolved)
                                : client_->DerefVersion(VersionId{o.oid, op.vnum});
    }();
    *done_ns = NowNs();
    ScopedSpan verify(spans_, SpanName::kVerify, id);
    if (!bytes.ok()) return Fail("deref", bytes.status());
    const uint32_t vnum = op.kind == kLatest ? o.latest_vnum() : op.vnum;
    if (op.kind == kLatest && resolved.vnum != vnum) {
      return Fail("deref resolved to the wrong version");
    }
    if (HashBytes(*bytes) != o.hash_of(vnum)) return Fail("deref payload differs");
    return true;
  }

  void WireMessages(size_t i, std::vector<Request>* reqs,
                    std::vector<Response>* resps) const override {
    const PlannedOp& op = plan_[i];
    AddExchange(op.kind == kLatest ? OpCode::kDerefLatest : OpCode::kDerefVersion,
                objects_[op.obj].oid.value, op.vnum, 0, payload_bytes_, reqs,
                resps);
  }

 private:
  const std::vector<ObjectModel>& objects_;
  const size_t payload_bytes_;
  std::unique_ptr<Client> client_;
};

// -- txn_mix ----------------------------------------------------------------

class TxnMixGen : public WorkloadGen {
 public:
  enum Kind : uint8_t { kLatest, kTxn };

  TxnMixGen(uint32_t index, uint64_t seed, std::unique_ptr<Client> client)
      : WorkloadGen(index, seed), client_(std::move(client)) {}

  void Plan(uint64_t stream, size_t ops) override {
    ode::Random rng(PlanSeed(stream));
    plan_.assign(ops, PlannedOp{});
    for (PlannedOp& op : plan_) {
      op.obj = static_cast<uint32_t>(rng.Uniform(own.size()));
      op.kind = rng.Uniform(100) < 15 ? kTxn : kLatest;
      op.edit = rng.Next();
    }
  }

  bool Run(size_t i, uint64_t* done_ns) override {
    const PlannedOp& op = plan_[i];
    ObjectModel& o = own[op.obj];
    const uint64_t id = NextOpId();
    ScopedSpan span(spans_, SpanName::kOp, id);
    if (op.kind == kLatest) {
      VersionId resolved;
      StatusOr<std::string> bytes = [&] {
        ScopedSpan call(spans_, SpanName::kClientCall, id);
        return client_->DerefLatest(o.oid, &resolved);
      }();
      *done_ns = NowNs();
      ScopedSpan verify(spans_, SpanName::kVerify, id);
      if (!bytes.ok()) return Fail("deref", bytes.status());
      if (resolved.vnum != o.latest_vnum() ||
          HashBytes(*bytes) != o.hash_of(o.latest_vnum())) {
        return Fail("deref differs from the model");
      }
      return true;
    }

    // The database has one transaction slot; while the other session holds
    // it, TxnBegin is refused and retried.
    const uint64_t give_up = NowNs() + kBeginGiveUpNs;
    Status begin;
    for (;;) {
      {
        ScopedSpan call(spans_, SpanName::kClientCall, id);
        begin = client_->TxnBegin();
      }
      if (!begin.IsFailedPrecondition() || NowNs() > give_up) break;
      ++tally_.begin_refusals;
      ScopedSpan wait(spans_, SpanName::kRetryWait, id);
      std::this_thread::sleep_for(kBeginRetry);
    }
    if (!begin.ok()) return Fail("txn-begin", begin);
    std::string next = o.latest;
    ApplyEdit(&next, op.edit);
    StatusOr<VersionId> vid = [&] {
      ScopedSpan call(spans_, SpanName::kClientCall, id);
      return client_->NewVersionOf(o.oid);
    }();
    Status s = vid.status();
    if (s.ok()) {
      ScopedSpan call(spans_, SpanName::kClientCall, id);
      s = client_->UpdateLatest(o.oid, next);
    }
    if (!s.ok()) {
      // Best effort: the failure is already being reported.
      client_->TxnAbort().IgnoreError();
      return Fail("txn write", s);
    }
    {
      ScopedSpan call(spans_, SpanName::kClientCall, id);
      s = client_->TxnCommit();
    }
    *done_ns = NowNs();
    ScopedSpan verify(spans_, SpanName::kVerify, id);
    if (!s.ok()) return Fail("txn-commit", s);
    ++tally_.txns;
    tally_.user_bytes += next.size();
    const bool numbered = vid->vnum == o.latest_vnum() + 1;
    o.AddVersion(o.latest_vnum(), HashBytes(next));
    o.latest = std::move(next);
    return numbered || Fail("newversion returned an unexpected vnum");
  }

  void WireMessages(size_t i, std::vector<Request>* reqs,
                    std::vector<Response>* resps) const override {
    const PlannedOp& op = plan_[i];
    const uint64_t oid = own[op.obj].oid.value;
    const size_t bytes = own[op.obj].latest.size();
    if (op.kind == kLatest) {
      AddExchange(OpCode::kDerefLatest, oid, 0, 0, bytes, reqs, resps);
      return;
    }
    AddExchange(OpCode::kTxnBegin, 0, 0, 0, 0, reqs, resps);
    AddExchange(OpCode::kNewVersionOf, oid, 0, 0, 0, reqs, resps);
    AddExchange(OpCode::kUpdateLatest, oid, 0, bytes, 0, reqs, resps);
    AddExchange(OpCode::kTxnCommit, 0, 0, 0, 0, reqs, resps);
  }

 private:
  std::unique_ptr<Client> client_;
};

// -- commit_durable ---------------------------------------------------------

class CommitGen : public WorkloadGen {
 public:
  enum Kind : uint8_t { kNewVersion, kUpdateLatest, kPnew };

  CommitGen(uint32_t index, uint64_t seed, Database& db, uint32_t type_id,
            size_t payload_bytes)
      : WorkloadGen(index, seed),
        db_(db),
        type_id_(type_id),
        payload_bytes_(payload_bytes) {}

  void Plan(uint64_t stream, size_t ops) override {
    ode::Random rng(PlanSeed(stream));
    plan_.assign(ops, PlannedOp{});
    for (PlannedOp& op : plan_) {
      const uint64_t r = rng.Uniform(100);
      op.kind = r < 70 ? kNewVersion : r < 90 ? kUpdateLatest : kPnew;
      op.obj = static_cast<uint32_t>(rng.Uniform(own.size()));
      op.edit = rng.Next();
    }
  }

  bool Run(size_t i, uint64_t* done_ns) override {
    const PlannedOp& op = plan_[i];
    const uint64_t id = NextOpId();
    ScopedSpan span(spans_, SpanName::kOp, id);
    if (op.kind == kPnew) {
      std::string payload =
          RandomPayload(StreamSeed(seed_, kPnewStream, index_, op.edit),
                        payload_bytes_);
      StatusOr<VersionId> vid = [&] {
        ScopedSpan call(spans_, SpanName::kDbWrite, id);
        return db_.PnewRaw(type_id_, Slice(payload));
      }();
      *done_ns = NowNs();
      ScopedSpan verify(spans_, SpanName::kVerify, id);
      if (!vid.ok()) return Fail("pnew", vid.status());
      tally_.user_bytes += payload.size();
      ObjectModel o;
      o.oid = vid->oid;
      o.AddVersion(0, HashBytes(payload));
      o.latest = std::move(payload);
      own.push_back(std::move(o));
      return vid->vnum == ode::kFirstVersion || Fail("pnew returned vnum != 1");
    }

    ObjectModel& o = own[op.obj];
    std::string next = o.latest;
    ApplyEdit(&next, op.edit);
    Status s;
    bool numbered = true;
    if (op.kind == kNewVersion) {
      StatusOr<VersionId> vid = [&] {
        ScopedSpan call(spans_, SpanName::kDbWrite, id);
        return db_.NewVersionOf(o.oid);
      }();
      s = vid.status();
      if (s.ok()) {
        ScopedSpan call(spans_, SpanName::kDbWrite, id);
        s = db_.UpdateVersion(*vid, Slice(next));
      }
      if (s.ok()) {
        numbered = vid->vnum == o.latest_vnum() + 1;
        o.AddVersion(o.latest_vnum(), HashBytes(next));
      }
    } else {
      {
        ScopedSpan call(spans_, SpanName::kDbWrite, id);
        s = db_.UpdateLatest(o.oid, Slice(next));
      }
      if (s.ok()) o.hashes.back() = HashBytes(next);
    }
    *done_ns = NowNs();
    if (!s.ok()) return Fail("write", s);
    tally_.user_bytes += next.size();
    o.latest = std::move(next);
    return numbered || Fail("newversion returned an unexpected vnum");
  }

 private:
  Database& db_;
  const uint32_t type_id_;
  const size_t payload_bytes_;
};

// -- history_cold -----------------------------------------------------------

class HistoryGen : public WorkloadGen {
 public:
  enum Kind : uint8_t { kReadVersion, kWalk, kVersionsOf, kReadLatest };
  /// Dprevious steps per walk.
  static constexpr int kWalkSteps = 8;

  HistoryGen(uint32_t index, uint64_t seed, Database& db,
             const std::vector<ObjectModel>& objects)
      : WorkloadGen(index, seed), db_(db), objects_(objects) {}

  void Plan(uint64_t stream, size_t ops) override {
    ode::Random rng(PlanSeed(stream));
    plan_.assign(ops, PlannedOp{});
    for (PlannedOp& op : plan_) {
      op.obj = static_cast<uint32_t>(rng.Uniform(objects_.size()));
      const uint32_t latest = objects_[op.obj].latest_vnum();
      const uint64_t r = rng.Uniform(100);
      if (r < 60) {
        op.kind = kReadVersion;  // A historic version: never the latest.
        op.vnum = static_cast<uint32_t>(1 + rng.Uniform(latest - 1));
      } else if (r < 80) {
        op.kind = kWalk;
        op.vnum = static_cast<uint32_t>(1 + rng.Uniform(latest));
      } else {
        op.kind = r < 90 ? kVersionsOf : kReadLatest;
      }
    }
  }

  bool Run(size_t i, uint64_t* done_ns) override {
    const PlannedOp& op = plan_[i];
    const ObjectModel& o = objects_[op.obj];
    const uint64_t id = NextOpId();
    ScopedSpan span(spans_, SpanName::kOp, id);
    switch (op.kind) {
      case kReadVersion:
      case kReadLatest: {
        VersionId resolved;
        StatusOr<std::string> bytes = [&] {
          ScopedSpan call(spans_, SpanName::kDbRead, id);
          return op.kind == kReadLatest
                     ? db_.ReadLatest(o.oid, &resolved)
                     : db_.ReadVersion(VersionId{o.oid, op.vnum});
        }();
        *done_ns = NowNs();
        ScopedSpan verify(spans_, SpanName::kVerify, id);
        if (!bytes.ok()) return Fail("read", bytes.status());
        const uint32_t vnum = op.kind == kReadLatest ? o.latest_vnum() : op.vnum;
        if (op.kind == kReadLatest && resolved.vnum != vnum) {
          return Fail("read resolved to the wrong version");
        }
        return HashBytes(*bytes) == o.hash_of(vnum) ||
               Fail("read payload differs");
      }
      case kWalk: {
        uint32_t vnum = op.vnum;
        bool same = true;
        for (int step = 0; step < kWalkSteps && vnum != 0; ++step) {
          StatusOr<std::optional<VersionId>> prev = [&] {
            ScopedSpan call(spans_, SpanName::kDbTraverse, id);
            return db_.Dprevious(VersionId{o.oid, vnum});
          }();
          if (!prev.ok()) {
            *done_ns = NowNs();
            return Fail("dprevious", prev.status());
          }
          const uint32_t got = prev->has_value() ? (*prev)->vnum : 0;
          same = same && got == o.parent_of(vnum);
          vnum = got;
        }
        *done_ns = NowNs();
        return same || Fail("dprevious differs from the model");
      }
      default: {
        StatusOr<std::vector<VersionId>> versions = [&] {
          ScopedSpan call(spans_, SpanName::kDbTraverse, id);
          return db_.VersionsOf(o.oid);
        }();
        *done_ns = NowNs();
        ScopedSpan verify(spans_, SpanName::kVerify, id);
        if (!versions.ok()) return Fail("versions-of", versions.status());
        bool same = versions->size() == o.latest_vnum();
        for (size_t k = 0; same && k < versions->size(); ++k) {
          same = (*versions)[k].vnum == k + 1;
        }
        return same || Fail("versions-of differs from the model");
      }
    }
  }

 private:
  Database& db_;
  const std::vector<ObjectModel>& objects_;
};

// -- Workloads ----------------------------------------------------------------

/// read_hot, txn_mix and commit_durable: `versions` linear versions per
/// object, each the previous one plus an edit.
class LinearWorkload : public Workload {
 public:
  using Workload::Workload;

  Status Populate(Database& db) override {
    ODE_ASSIGN_OR_RETURN(type_id_, RawType(db));
    objects_.assign(spec_.objects, ObjectModel{});
    LoadBatch batch(db);
    ODE_RETURN_IF_ERROR(batch.Start());
    for (size_t k = 0; k < objects_.size(); ++k) {
      ObjectModel& o = objects_[k];
      std::string payload =
          RandomPayload(StreamSeed(seed_, kPayloadStream, k), spec_.payload_bytes);
      VersionId vid;
      ODE_ASSIGN_OR_RETURN(vid, db.PnewRaw(type_id_, Slice(payload)));
      o.oid = vid.oid;
      o.AddVersion(0, HashBytes(payload));
      ODE_RETURN_IF_ERROR(batch.Tick());
      for (uint32_t v = 2; v <= spec_.versions; ++v) {
        ApplyEdit(&payload, StreamSeed(seed_, kEditStream, k, v));
        ODE_ASSIGN_OR_RETURN(vid, db.NewVersionOf(o.oid));
        ODE_RETURN_IF_ERROR(batch.Tick());
        ODE_RETURN_IF_ERROR(db.UpdateVersion(vid, Slice(payload)));
        ODE_RETURN_IF_ERROR(batch.Tick());
        o.AddVersion(v - 1, HashBytes(payload));
      }
      o.latest = std::move(payload);
    }
    return batch.Finish();
  }

 protected:
  uint32_t type_id_ = 0;
};

class ReadHot : public LinearWorkload {
 public:
  using LinearWorkload::LinearWorkload;

  StatusOr<Generators> MakeGenerators(Database&, uint16_t port) override {
    Generators gens;
    for (uint32_t g = 0; g < spec_.generators; ++g) {
      std::unique_ptr<Client> client;
      ODE_ASSIGN_OR_RETURN(client, Client::Connect(kLoopback, port));
      gens.push_back(std::make_unique<ReadHotGen>(g, seed_, objects_,
                                                  spec_.payload_bytes,
                                                  std::move(client)));
    }
    return gens;
  }
};

class TxnMix : public LinearWorkload {
 public:
  using LinearWorkload::LinearWorkload;

  StatusOr<Generators> MakeGenerators(Database&, uint16_t port) override {
    Generators gens;
    for (uint32_t g = 0; g < spec_.generators; ++g) {
      std::unique_ptr<Client> client;
      ODE_ASSIGN_OR_RETURN(client, Client::Connect(kLoopback, port));
      gens.push_back(std::make_unique<TxnMixGen>(g, seed_, std::move(client)));
    }
    Deal(&gens);
    return gens;
  }
};

class CommitDurable : public LinearWorkload {
 public:
  using LinearWorkload::LinearWorkload;

  StatusOr<Generators> MakeGenerators(Database& db, uint16_t) override {
    Generators gens;
    for (uint32_t g = 0; g < spec_.generators; ++g) {
      gens.push_back(std::make_unique<CommitGen>(g, seed_, db, type_id_,
                                                 spec_.payload_bytes));
    }
    Deal(&gens);
    return gens;
  }
};

/// history_cold: `versions` versions per object, grown one version of every
/// object at a time, so an object's history is spread over the file; one
/// version in eight derives from a random older version (an alternative).
class HistoryCold : public Workload {
 public:
  using Workload::Workload;

  Status Populate(Database& db) override {
    uint32_t type_id = 0;
    ODE_ASSIGN_OR_RETURN(type_id, RawType(db));
    objects_.assign(spec_.objects, ObjectModel{});
    std::vector<std::string> latest(objects_.size());
    LoadBatch batch(db);
    ODE_RETURN_IF_ERROR(batch.Start());
    for (size_t k = 0; k < objects_.size(); ++k) {
      latest[k] = RootPayload(k);
      VersionId vid;
      ODE_ASSIGN_OR_RETURN(vid, db.PnewRaw(type_id, Slice(latest[k])));
      objects_[k].oid = vid.oid;
      objects_[k].AddVersion(0, HashBytes(latest[k]));
      ODE_RETURN_IF_ERROR(batch.Tick());
    }
    for (uint32_t v = 2; v <= spec_.versions; ++v) {
      for (size_t k = 0; k < objects_.size(); ++k) {
        ObjectModel& o = objects_[k];
        const uint64_t shape = Mix64(StreamSeed(seed_, kShapeStream, k, v));
        uint32_t parent = o.latest_vnum();
        if (v > 2 && shape % 8 == 0) {
          parent = static_cast<uint32_t>(1 + (shape >> 8) % (v - 2));
        }
        std::string payload =
            parent == o.latest_vnum() ? std::move(latest[k]) : PayloadOf(o, k, parent);
        ApplyEdit(&payload, StreamSeed(seed_, kEditStream, k, v));
        VersionId vid;
        if (parent == o.latest_vnum()) {
          ODE_ASSIGN_OR_RETURN(vid, db.NewVersionOf(o.oid));
        } else {
          ODE_ASSIGN_OR_RETURN(vid, db.NewVersionFrom(VersionId{o.oid, parent}));
        }
        ODE_RETURN_IF_ERROR(batch.Tick());
        ODE_RETURN_IF_ERROR(db.UpdateVersion(vid, Slice(payload)));
        ODE_RETURN_IF_ERROR(batch.Tick());
        o.AddVersion(parent, HashBytes(payload));
        latest[k] = std::move(payload);
      }
    }
    return batch.Finish();
  }

  StatusOr<Generators> MakeGenerators(Database& db, uint16_t) override {
    Generators gens;
    for (uint32_t g = 0; g < spec_.generators; ++g) {
      gens.push_back(std::make_unique<HistoryGen>(g, seed_, db, objects_));
    }
    return gens;
  }

 private:
  std::string RootPayload(size_t k) const {
    return RandomPayload(StreamSeed(seed_, kPayloadStream, k), spec_.payload_bytes);
  }

  /// Payload of version `vnum` of object k: its root's payload with the
  /// edits of every version on the derived-from path applied in order.
  std::string PayloadOf(const ObjectModel& o, size_t k, uint32_t vnum) const {
    std::vector<uint32_t> path;
    for (uint32_t v = vnum; v > 1; v = o.parent_of(v)) path.push_back(v);
    std::string payload = RootPayload(k);
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      ApplyEdit(&payload, StreamSeed(seed_, kEditStream, k, *it));
    }
    return payload;
  }
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"read_hot",
       "Cached generic and specific derefs over TCP: wire, server and "
       "dispatcher cost with no WAL, fsync or delta work, so a write-path "
       "change must leave it flat",
       /*server=*/true, ode::PayloadKind::kFull, /*payload_bytes=*/1024,
       /*payload_cache_bytes=*/0, /*buffer_pool_pages=*/0,
       /*generators=*/2, /*objects=*/2048, /*versions=*/4,
       /*warmup_ops=*/20000, /*window_ops=*/4000, /*nominal_ops_s=*/45000,
       /*open_rate=*/20000, /*open_window_ops=*/2000},
      {"txn_mix",
       "Explicit transactions spanning client round trips: reads queue behind "
       "the engine lock and writers contend for the one database-wide "
       "transaction slot",
       /*server=*/true, ode::PayloadKind::kFull, /*payload_bytes=*/1024,
       /*payload_cache_bytes=*/0, /*buffer_pool_pages=*/0,
       /*generators=*/2, /*objects=*/4096, /*versions=*/1,
       /*warmup_ops=*/2000, /*window_ops=*/1600, /*nominal_ops_s=*/8500,
       /*open_rate=*/1500, /*open_window_ops=*/300},
      {"commit_durable",
       "Durable in-process writes on 4 threads: latches, group commit, WAL, "
       "real fsync, checkpointer, delta encode and dedupe, with no network "
       "and few reads",
       /*server=*/false, ode::PayloadKind::kDelta, /*payload_bytes=*/4096,
       /*payload_cache_bytes=*/0, /*buffer_pool_pages=*/0,
       /*generators=*/4, /*objects=*/1024, /*versions=*/1,
       /*warmup_ops=*/1000, /*window_ops=*/1000, /*nominal_ops_s=*/2100,
       /*open_rate=*/1000, /*open_window_ops=*/400},
      {"history_cold",
       "Historic reads over a 36 MiB history, 4x the payload cache and the "
       "buffer pool: skip-delta materialization, B+tree descents and page "
       "reads, with no network or WAL",
       /*server=*/false, ode::PayloadKind::kDelta, /*payload_bytes=*/4096,
       /*payload_cache_bytes=*/8 << 20, /*buffer_pool_pages=*/128,
       /*generators=*/2, /*objects=*/96, /*versions=*/96,
       /*warmup_ops=*/40000, /*window_ops=*/5000, /*nominal_ops_s=*/42000,
       /*open_rate=*/10000, /*open_window_ops=*/1000},
  };
  return kWorkloads;
}

WorkloadSpec Scaled(const WorkloadSpec& spec, double scale) {
  auto scaled = [scale](size_t n, size_t floor) {
    return std::max<size_t>(floor, static_cast<size_t>(std::llround(
                                       static_cast<double>(n) * scale)));
  };
  WorkloadSpec s = spec;
  s.objects = scaled(spec.objects, 2 * spec.generators);
  s.versions = static_cast<uint32_t>(
      std::min<size_t>(spec.versions, scaled(spec.versions, 2)));
  s.warmup_ops = scaled(spec.warmup_ops, spec.generators);
  s.window_ops = scaled(spec.window_ops, spec.generators);
  s.open_window_ops = scaled(spec.open_window_ops, spec.generators);
  return s;
}

void WorkloadGen::WireMessages(size_t, std::vector<Request>*,
                               std::vector<Response>*) const {}

uint64_t WorkloadGen::PlanSeed(uint64_t stream) const {
  return StreamSeed(seed_, kPlanStream, stream, index_);
}

bool WorkloadGen::Fail(const char* what, const Status& status) {
  if (++failures_ <= 5) {
    std::fprintf(stderr, "ode_bench: generator %u: %s%s%s\n", index_, what,
                 status.ok() ? "" : ": ", status.ok() ? "" : status.ToString().c_str());
  }
  return false;
}

ode::DatabaseOptions Workload::DbOptions(const std::string& dir,
                                         ode::Env* env) const {
  ode::DatabaseOptions options;
  options.storage.path = dir;
  options.storage.env = env;
  options.payload_strategy = spec_.payload;
  if (spec_.payload_cache_bytes != 0) {
    options.payload_cache_bytes = spec_.payload_cache_bytes;
  }
  if (spec_.buffer_pool_pages != 0) {
    options.storage.buffer_pool_pages = spec_.buffer_pool_pages;
  }
  return options;
}

void Workload::Deal(Generators* gens) {
  for (size_t k = 0; k < objects_.size(); ++k) {
    (*gens)[k % gens->size()]->own.push_back(std::move(objects_[k]));
  }
  objects_.clear();
}

void Workload::Reclaim(Generators* gens) {
  for (auto& gen : *gens) {
    for (ObjectModel& o : gen->own) objects_.push_back(std::move(o));
    gen->own.clear();
  }
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec, uint64_t seed) {
  const uint64_t workload_seed = StreamSeed(seed, HashBytes(spec.name));
  const std::string_view name = spec.name;
  if (name == "read_hot") return std::make_unique<ReadHot>(spec, workload_seed);
  if (name == "txn_mix") return std::make_unique<TxnMix>(spec, workload_seed);
  if (name == "commit_durable") {
    return std::make_unique<CommitDurable>(spec, workload_seed);
  }
  return std::make_unique<HistoryCold>(spec, workload_seed);
}

}  // namespace ode_bench
