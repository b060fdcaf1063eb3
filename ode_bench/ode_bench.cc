// ode_bench: the repository's end-to-end benchmark.
//
// Runs one of four workloads (workloads.cc) against a database on the
// POSIX Env, in a directory it creates under --work-dir and deletes at exit,
// with the shipped flush policy (CommitMode::kSync).  Each run: set up three
// times (setup_s is the median), a closed-loop phase, an open-loop phase,
// then close, reopen from disk and check the data against the model.  With
// --trace 1 a traced closed-loop phase follows the untraced one and the
// per-layer metrics are printed instead of the end-to-end ones.  The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  README.md documents every workload and metric.
//
//   ode_bench --workload read_hot --seed 1 --seconds 10 --trace 0
//   ode_bench --workload all --scale smoke
//   ode_bench --list-metrics

#include <sys/vfs.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/delta.h"
#include "counting_env.h"
#include "loadgen.h"
#include "model.h"
#include "net/server.h"
#include "net/wire.h"
#include "spans.h"
#include "util/json.h"
#include "util/random.h"
#include "workloads.h"

namespace ode_bench {
namespace {

// -- Metric catalogue ---------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  ///< End-to-end only: tolerated worsening, share of median.
};

/// Every workload reports all of these (untraced run).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25},
    {"ops_s", "ops/s", "higher", 0.25},
    {"p50_us", "us", "lower", 0.25},
    {"p99_us", "us", "lower", 0.25},
    {"open_p50_us", "us", "lower", 0.25},
    {"open_p90_us", "us", "lower", 0.25},
    {"space_amp", "ratio", "lower", 0.05},
};

/// Every workload reports all of these (traced run).  A `_frac` is the
/// layer's time as a share of the summed duration of all operations in the
/// traced phase (trace.op_mean_us times the operation count): multiply by
/// trace.op_mean_us for microseconds per operation.  A layer a workload
/// does not reach reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"trace.op_mean_us", "us", "lower", 0},
    {"trace.unattributed_frac", "frac", "lower", 0},
    {"trace.overhead_frac", "ratio", "higher", 0},
    {"loadgen.lag_p99_us", "us", "lower", 0},
    {"net.client.rtt_frac", "frac", "lower", 0},
    {"net.wire.codec_frac", "frac", "lower", 0},
    {"net.dispatcher.dispatch_frac", "frac", "lower", 0},
    {"net.server.transport_frac", "frac", "lower", 0},
    {"net.server.bytes_per_op", "bytes", "lower", 0},
    {"net.txn.begin_refusals_per_txn", "ratio", "lower", 0},
    {"core.database.read_frac", "frac", "lower", 0},
    {"core.database.traverse_frac", "frac", "lower", 0},
    {"core.database.write_frac", "frac", "lower", 0},
    {"core.latest_cache.hit_ratio", "ratio", "higher", 0},
    {"core.payload_cache.hit_ratio", "ratio", "higher", 0},
    {"core.delta.materialize_frac", "frac", "lower", 0},
    {"core.delta.applies_per_materialize", "ratio", "lower", 0},
    {"core.delta.encode_us", "us", "lower", 0},
    {"core.delta.apply_us", "us", "lower", 0},
    {"storage.read_lock.wait_frac", "frac", "lower", 0},
    {"storage.write_latch.wait_frac", "frac", "lower", 0},
    {"storage.txn.commit_frac", "frac", "lower", 0},
    {"storage.group_commit.commits_per_fsync", "ratio", "higher", 0},
    {"storage.wal.append_frac", "frac", "lower", 0},
    {"storage.wal.fsync_frac", "frac", "lower", 0},
    {"storage.wal.bytes_per_commit", "bytes", "lower", 0},
    {"storage.checkpoint.count", "count", "lower", 0},
    {"storage.checkpoint_frac", "frac", "lower", 0},
    {"storage.btree.descents_per_op", "count", "lower", 0},
    {"storage.btree.descend_frac", "frac", "lower", 0},
    {"storage.buffer_pool.hit_ratio", "ratio", "higher", 0},
    {"storage.buffer_pool.misses_per_op", "count", "lower", 0},
    {"storage.page_read_frac", "frac", "lower", 0},
    {"storage.payload_store.dedupe_ratio", "ratio", "higher", 0},
    {"env.write_bytes_per_user_byte", "ratio", "lower", 0},
    {"env.fsyncs_per_op", "count", "lower", 0},
    {"env.fsync_probe_us", "us", "lower", 0},
};

// -- Run parameters -----------------------------------------------------------

/// Set-ups per run; setup_s is their median and the last one is measured.
constexpr int kSetupReps = 3;
/// Shares of --seconds for the closed and the open phase.
constexpr double kClosedShare = 0.6;
constexpr double kOpenShare = 0.4;
/// Fewest windows a phase runs, however short --seconds is.
constexpr size_t kMinWindows = 3;
/// Server worker threads: with 2 connections, 2 generator threads and the
/// IO thread, load fits the 4-core box the numbers are quoted for.
constexpr int kServerWorkers = 2;
/// fsync calibration: appends of this size, each followed by an fsync.
constexpr int kFsyncProbes = 200;
constexpr size_t kFsyncProbeBytes = 4096;
/// Historic versions sampled by the post-run reopen check.
constexpr size_t kReopenSample = 1024;
/// Spans kept per generator for the Chrome trace (totals count them all).
constexpr size_t kTraceSpansPerGen = 16384;

/// Input streams of the load phases (see Generator::Plan).
constexpr uint64_t kWarmupStream = 1;
constexpr uint64_t kClosedStream = 1000;
constexpr uint64_t kOpenStream = 900'000;
constexpr uint64_t kVerifyStream = 950'000;
constexpr uint64_t kDeltaStream = 960'000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  double scale = 1;
  std::string work_dir;
};

// -- Context ------------------------------------------------------------------

std::string GitSha() {
  const char* sha = std::getenv("ODE_GIT_SHA");
  return sha != nullptr && *sha != '\0' ? sha : ODE_BENCH_GIT_SHA;
}

std::string FsType(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(fs.f_type));
  return hex;
}

/// p50 of `probes` appends of 4 KiB through the POSIX Env, each followed by
/// an fsync, in `dir`: what one durable commit costs this device at least.
ode::StatusOr<double> FsyncProbeUs(const std::string& dir, int probes) {
  const std::string path = dir + "/fsync_probe." + std::to_string(getpid());
  std::vector<float> us;
  {
    ode::Env* env = ode::Env::Posix();
    std::unique_ptr<ode::File> file;
    ODE_ASSIGN_OR_RETURN(file, env->OpenFile(path));
    const std::string block(kFsyncProbeBytes, 'f');
    for (int i = 0; i < probes; ++i) {
      const uint64_t t0 = NowNs();
      ODE_RETURN_IF_ERROR(file->Append(ode::Slice(block)));
      ODE_RETURN_IF_ERROR(file->Sync());
      us.push_back(static_cast<float>((NowNs() - t0) / 1e3));
    }
  }
  ODE_RETURN_IF_ERROR(ode::Env::Posix()->DeleteFile(path));
  return Quantile(&us, 0.5);
}

// -- One set-up database ------------------------------------------------------

/// A fresh directory under the work dir, deleted with everything in it when
/// this goes out of scope.
class ScopedDir {
 public:
  ScopedDir() = default;
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  ~ScopedDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ode::Status Create(const std::string& parent, const std::string& name) {
    std::string tmpl = parent + "/ode_bench." + name + ".XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      return ode::Status::IOError("mkdtemp " + tmpl + ": " + std::strerror(errno));
    }
    path_ = tmpl;
    return ode::Status::OK();
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A set-up database and everything driving it.  Members are destroyed in
/// reverse order: generators (and their connections) first, then the
/// server, the database, the model and the Env.
struct Instance {
  std::string dir;
  std::unique_ptr<CountingEnv> counting_env;  ///< Traced runs only.
  std::unique_ptr<Workload> workload;
  std::unique_ptr<ode::Database> db;
  std::unique_ptr<ode::net::Server> server;
  std::vector<std::unique_ptr<WorkloadGen>> gens;

  ode::Env* env() {
    return counting_env != nullptr ? counting_env.get() : ode::Env::Posix();
  }
  std::vector<Generator*> generators() const {
    std::vector<Generator*> out;
    for (const auto& g : gens) out.push_back(g.get());
    return out;
  }
};

/// Open, populate, checkpoint, start the server, connect and warm up.
ode::Status SetUp(const WorkloadSpec& spec, const Options& opt, Instance* inst,
                  PhaseResult* warmup) {
  inst->workload = MakeWorkload(spec, opt.seed);
  if (opt.trace) inst->counting_env = std::make_unique<CountingEnv>(ode::Env::Posix());
  ODE_ASSIGN_OR_RETURN(inst->db, ode::Database::Open(inst->workload->DbOptions(
                                     inst->dir, inst->env())));
  ODE_RETURN_IF_ERROR(inst->workload->Populate(*inst->db));
  ODE_RETURN_IF_ERROR(inst->db->Checkpoint());
  uint16_t port = 0;
  if (spec.server) {
    ode::net::ServerOptions server_options;
    server_options.workers = kServerWorkers;
    ODE_ASSIGN_OR_RETURN(inst->server,
                         ode::net::Server::Start(*inst->db, server_options));
    port = inst->server->port();
  }
  ODE_ASSIGN_OR_RETURN(inst->gens, inst->workload->MakeGenerators(*inst->db, port));
  *warmup = RunClosed(inst->generators(), spec.warmup_ops, 1, kWarmupStream);
  return ode::Status::OK();
}

/// Checks every object's latest version and a seeded sample of versions of
/// a reopened database against the model.  Returns the mismatches.
uint64_t VerifyReopened(ode::Database& db, const std::vector<ObjectModel>& model,
                        uint64_t seed, size_t sample, uint64_t* checks) {
  uint64_t bad = 0;
  auto report = [&](const ObjectModel& o, uint32_t vnum, const ode::Status& s) {
    if (++bad <= 5) {
      std::fprintf(stderr, "ode_bench: after reopen, oid %llu vnum %u %s\n",
                   static_cast<unsigned long long>(o.oid.value), vnum,
                   s.ok() ? "differs from the model" : s.ToString().c_str());
    }
  };
  for (const ObjectModel& o : model) {
    ++*checks;
    ode::VersionId resolved;
    auto bytes = db.ReadLatest(o.oid, &resolved);
    if (!bytes.ok()) {
      report(o, o.latest_vnum(), bytes.status());
    } else if (resolved.vnum != o.latest_vnum() ||
               HashBytes(*bytes) != o.hash_of(o.latest_vnum())) {
      report(o, o.latest_vnum(), ode::Status::OK());
    }
  }
  ode::Random rng(StreamSeed(seed, kVerifyStream));
  for (size_t i = 0; i < sample && !model.empty(); ++i) {
    ++*checks;
    const ObjectModel& o = model[rng.Uniform(model.size())];
    const uint32_t vnum = static_cast<uint32_t>(1 + rng.Uniform(o.latest_vnum()));
    auto bytes = db.ReadVersion(ode::VersionId{o.oid, vnum});
    if (!bytes.ok()) {
      report(o, vnum, bytes.status());
    } else if (HashBytes(*bytes) != o.hash_of(vnum)) {
      report(o, vnum, ode::Status::OK());
    }
  }
  return bad;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// -- Per-layer measurement ----------------------------------------------------

/// Registry counters and histogram sums, by name.
struct Registry {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, ode::HistogramSnapshot> histograms;

  static Registry Of(const ode::Database& db) {
    const ode::MetricsRegistry::Snapshot snap = db.MetricsSnapshot();
    Registry r;
    for (const auto& [name, v] : snap.counters) r.counters[name] = v;
    for (const auto& [name, h] : snap.histograms) r.histograms[name] = h;
    return r;
  }
};

/// Change of the registry across the traced phase.
struct RegistryDelta {
  const Registry& before;
  const Registry& after;

  double Count(const std::string& name) const {
    return static_cast<double>(Get(after.counters, name) - Get(before.counters, name));
  }
  /// Summed nanoseconds (or values) recorded into histogram `name`.
  double Sum(const std::string& name) const {
    return static_cast<double>(GetHist(after, name).sum - GetHist(before, name).sum);
  }
  double Events(const std::string& name) const {
    return static_cast<double>(GetHist(after, name).count -
                               GetHist(before, name).count);
  }

 private:
  static uint64_t Get(const std::map<std::string, uint64_t>& m,
                      const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  }
  static ode::HistogramSnapshot GetHist(const Registry& r, const std::string& name) {
    auto it = r.histograms.find(name);
    return it == r.histograms.end() ? ode::HistogramSnapshot{} : it->second;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Nanoseconds per operation the wire codec costs on the planned operations
/// of `gens`: client encode, server frame split and decode, server encode,
/// client frame split and decode, for every message each operation sends.
double CodecNsPerOp(const std::vector<std::unique_ptr<WorkloadGen>>& gens) {
  std::vector<ode::net::Request> reqs;
  std::vector<ode::net::Response> resps;
  size_t ops = 0;
  for (const auto& g : gens) {
    for (size_t i = 0; i < g->planned(); ++i) g->WireMessages(i, &reqs, &resps);
    ops += g->planned();
  }
  if (reqs.empty() || ops == 0) return 0;
  std::string buf;
  bool ok = true;
  const uint64_t t0 = NowNs();
  for (size_t m = 0; m < reqs.size(); ++m) {
    buf.clear();
    ode::net::EncodeRequestFrame(reqs[m], &buf);
    ode::Slice input(buf), frame;
    std::string error;
    ok &= ode::net::ExtractFrame(&input, &frame, ode::net::kDefaultMaxFrameBytes,
                                 &error) == ode::net::FrameResult::kFrame;
    ode::net::Request req;
    ok &= ode::net::DecodeRequest(frame, &req).ok();
    buf.clear();
    ode::net::EncodeResponseFrame(resps[m], &buf);
    input = ode::Slice(buf);
    ok &= ode::net::ExtractFrame(&input, &frame, ode::net::kDefaultMaxFrameBytes,
                                 &error) == ode::net::FrameResult::kFrame;
    ode::net::Response resp;
    ok &= ode::net::DecodeResponse(frame, &resp).ok();
  }
  const double ns = static_cast<double>(NowNs() - t0);
  if (!ok) std::fprintf(stderr, "ode_bench: codec replay failed to round-trip\n");
  return ns / static_cast<double>(ops);
}

/// Mean microseconds of delta::Encode and delta::Apply on payload pairs
/// shaped like the workload's (a payload and the same payload with one
/// edit), each timed over at least 20 ms.
void DeltaCodecUs(const WorkloadSpec& spec, uint64_t seed, double* encode_us,
                  double* apply_us) {
  constexpr int kPairs = 64;
  constexpr uint64_t kMinNs = 20'000'000;
  std::vector<std::string> bases, targets, deltas;
  for (int i = 0; i < kPairs; ++i) {
    bases.push_back(RandomPayload(StreamSeed(seed, kDeltaStream, i), spec.payload_bytes));
    targets.push_back(bases.back());
    ApplyEdit(&targets.back(), StreamSeed(seed, kDeltaStream + 1, i));
    deltas.push_back(ode::delta::Encode(ode::Slice(bases.back()),
                                        ode::Slice(targets.back())));
  }
  uint64_t sink = 0;  // Keeps the timed calls' results observable.
  auto mean_us = [&](const auto& call) {
    uint64_t calls = 0;
    const uint64_t t0 = NowNs();
    do {
      for (int i = 0; i < kPairs; ++i, ++calls) sink += call(i);
    } while (NowNs() - t0 < kMinNs);
    return static_cast<double>(NowNs() - t0) / 1e3 / static_cast<double>(calls);
  };
  *encode_us = mean_us([&](int i) {
    return ode::delta::Encode(ode::Slice(bases[i]), ode::Slice(targets[i])).size();
  });
  *apply_us = mean_us([&](int i) -> size_t {
    auto out = ode::delta::Apply(ode::Slice(bases[i]), ode::Slice(deltas[i]));
    return out.ok() ? out->size() : 0;
  });
  if (sink == 0) std::fprintf(stderr, "ode_bench: delta codec produced nothing\n");
}

/// Everything the traced phase measured.
struct TraceInputs {
  Registry before, after;
  IoTally io_before, io_after;
  GenTally tally;  ///< Summed over generators, traced phase only.
  std::array<SpanTotals, kSpanNames> spans{};
  uint64_t dropped_spans = 0;
  double codec_ns_per_op = 0;
  PhaseResult traced;
};

std::map<std::string, double> PerLayer(const TraceInputs& in, const PhaseResult& closed,
                                       const PhaseResult& open, double fsync_probe_us,
                                       double encode_us, double apply_us) {
  const RegistryDelta d{in.before, in.after};
  const SpanTotals& op = in.spans[static_cast<size_t>(SpanName::kOp)];
  const double total = static_cast<double>(op.total_ns);
  const double ops = static_cast<double>(op.count);
  auto span_frac = [&](SpanName name) {
    return Ratio(static_cast<double>(in.spans[static_cast<size_t>(name)].total_ns), total);
  };
  auto frac = [&](const char* hist) { return Ratio(d.Sum(hist), total); };
  auto hit_ratio = [&](const std::string& prefix) {
    const double hits = d.Count(prefix + ".hits");
    return Ratio(hits, hits + d.Count(prefix + ".misses"));
  };

  std::map<std::string, double> m;
  m["trace.op_mean_us"] = Ratio(total, ops) / 1e3;
  m["trace.unattributed_frac"] = Ratio(static_cast<double>(op.self_ns), total);
  m["trace.overhead_frac"] = Ratio(in.traced.ops_s, closed.ops_s) - 1;
  m["loadgen.lag_p99_us"] = open.lag_p99_us;
  m["net.client.rtt_frac"] = span_frac(SpanName::kClientCall);
  m["net.wire.codec_frac"] = Ratio(in.codec_ns_per_op * ops, total);
  m["net.dispatcher.dispatch_frac"] =
      Ratio(d.Sum("net.deref_ns") + d.Sum("net.mutate_ns") + d.Sum("net.txn_ns") +
                d.Sum("net.cursor_ns") + d.Sum("net.admin_ns"),
            total);
  m["net.server.transport_frac"] =
      m["net.client.rtt_frac"] - m["net.wire.codec_frac"] -
      m["net.dispatcher.dispatch_frac"];
  m["net.server.bytes_per_op"] =
      Ratio(d.Count("server.bytes_in") + d.Count("server.bytes_out"), ops);
  m["net.txn.begin_refusals_per_txn"] =
      Ratio(static_cast<double>(in.tally.begin_refusals), static_cast<double>(in.tally.txns));
  m["core.database.read_frac"] = span_frac(SpanName::kDbRead);
  m["core.database.traverse_frac"] = span_frac(SpanName::kDbTraverse);
  m["core.database.write_frac"] = span_frac(SpanName::kDbWrite);
  m["core.latest_cache.hit_ratio"] = hit_ratio("latest_cache");
  m["core.payload_cache.hit_ratio"] = hit_ratio("payload_cache");
  m["core.delta.materialize_frac"] = frac("core.materialize_ns");
  m["core.delta.applies_per_materialize"] =
      Ratio(d.Count("core.delta_applications"), d.Count("core.materializations"));
  m["core.delta.encode_us"] = encode_us;
  m["core.delta.apply_us"] = apply_us;
  m["storage.read_lock.wait_frac"] = frac("txn.read_lock_wait_ns");
  m["storage.write_latch.wait_frac"] = frac("txn.write_latch_wait_ns");
  m["storage.txn.commit_frac"] = frac("txn.commit_ns");
  m["storage.group_commit.commits_per_fsync"] =
      Ratio(d.Count("groupcommit.commits"), d.Count("groupcommit.fsyncs"));
  m["storage.wal.append_frac"] = frac("wal.append_ns");
  m["storage.wal.fsync_frac"] = frac("wal.fsync_ns");
  m["storage.wal.bytes_per_commit"] =
      Ratio(d.Count("wal.append_bytes"), d.Count("txn.commits"));
  m["storage.checkpoint.count"] = d.Count("storage.checkpoints");
  m["storage.checkpoint_frac"] = frac("storage.checkpoint_ns");
  m["storage.btree.descents_per_op"] = Ratio(d.Count("btree.descents"), ops);
  m["storage.btree.descend_frac"] = frac("btree.descend_ns");
  m["storage.buffer_pool.hit_ratio"] = hit_ratio("bufferpool");
  m["storage.buffer_pool.misses_per_op"] = Ratio(d.Count("bufferpool.misses"), ops);
  m["storage.page_read_frac"] = frac("storage.page_read_ns");
  const double dedupe = d.Count("payload_store.dedupe_hits");
  m["storage.payload_store.dedupe_ratio"] =
      Ratio(dedupe, dedupe + d.Count("payload_store.blobs_created"));
  m["env.write_bytes_per_user_byte"] =
      Ratio(static_cast<double>(in.io_after.write_bytes - in.io_before.write_bytes),
            static_cast<double>(in.tally.user_bytes));
  m["env.fsyncs_per_op"] =
      Ratio(static_cast<double>(in.io_after.syncs - in.io_before.syncs), ops);
  m["env.fsync_probe_us"] = fsync_probe_us;
  return m;
}

/// The per-layer table: shares as microseconds per operation, with the
/// per-event means behind them.
void PrintLayerTable(const TraceInputs& in, const std::map<std::string, double>& m) {
  const RegistryDelta d{in.before, in.after};
  const double op_us = m.at("trace.op_mean_us");
  const double ops =
      static_cast<double>(in.spans[static_cast<size_t>(SpanName::kOp)].count);
  std::printf("-- traced phase: %.0f ops, %.1f us/op mean, %llu spans past the "
              "trace buffer\n",
              ops, op_us, static_cast<unsigned long long>(in.dropped_spans));
  std::printf("   %-34s %10s %10s %10s\n", "span (bench-timed)", "count/op",
              "us/op", "self us/op");
  for (size_t s = 0; s < kSpanNames; ++s) {
    const SpanTotals& t = in.spans[s];
    if (t.count == 0) continue;
    std::printf("   %-34s %10.3f %10.3f %10.3f\n",
                SpanNameString(static_cast<SpanName>(s)),
                Ratio(static_cast<double>(t.count), ops),
                Ratio(static_cast<double>(t.total_ns), ops) / 1e3,
                Ratio(static_cast<double>(t.self_ns), ops) / 1e3);
  }
  std::printf("   %-34s %10s %10s %10s\n", "stage (registry, overlapping)",
              "events/op", "us/op", "us/event");
  struct Row {
    const char* frac;
    const char* hist;  ///< Histogram behind it, for the per-event mean.
  };
  constexpr Row kRows[] = {
      {"net.wire.codec_frac", nullptr},
      {"net.dispatcher.dispatch_frac", nullptr},
      {"net.server.transport_frac", nullptr},
      {"core.delta.materialize_frac", "core.materialize_ns"},
      {"storage.read_lock.wait_frac", "txn.read_lock_wait_ns"},
      {"storage.write_latch.wait_frac", "txn.write_latch_wait_ns"},
      {"storage.txn.commit_frac", "txn.commit_ns"},
      {"storage.wal.append_frac", "wal.append_ns"},
      {"storage.wal.fsync_frac", "wal.fsync_ns"},
      {"storage.checkpoint_frac", "storage.checkpoint_ns"},
      {"storage.btree.descend_frac", "btree.descend_ns"},
      {"storage.page_read_frac", "storage.page_read_ns"},
  };
  for (const Row& row : kRows) {
    const double us_per_op = m.at(row.frac) * op_us;
    if (row.hist == nullptr) {
      std::printf("   %-34s %10s %10.3f\n", row.frac, "", us_per_op);
    } else {
      const double events = d.Events(row.hist);
      std::printf("   %-34s %10.3f %10.3f %10.3f\n", row.frac, Ratio(events, ops),
                  us_per_op, Ratio(d.Sum(row.hist), events) / 1e3);
    }
  }
  std::printf("   %-34s %10s %10.3f   (op self time: generator and checks)\n",
              "unattributed", "", m.at("trace.unattributed_frac") * op_us);
}

ode::Status WriteChromeTrace(const std::string& path,
                             const std::vector<std::unique_ptr<SpanBuffer>>& buffers,
                             uint64_t origin_ns, const std::string& workload,
                             uint64_t seed) {
  ode::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const auto& b : buffers) b->AppendChromeEvents(&w, origin_ns);
  w.EndArray();
  w.KV("displayTimeUnit", "ns");
  w.Key("otherData");
  w.BeginObject();
  w.KV("workload", workload);
  w.KV("seed", seed);
  w.KV("git_sha", GitSha());
  w.EndObject();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return ode::Status::IOError("cannot write " + path);
  const std::string& s = w.str();
  const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
  return std::fclose(f) == 0 && ok ? ode::Status::OK()
                                   : ode::Status::IOError("short write to " + path);
}

// -- One workload -------------------------------------------------------------

struct Outcome {
  std::map<std::string, double> metrics;  ///< Those the run reports.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void AddPhase(const PhaseResult& r, Outcome* out) {
  out->attempted += r.ops;
  out->failed += r.failed;
}

void PrintPhase(const char* name, const PhaseResult& r) {
  std::printf("-- %s: %zu windows, %llu ops in %.2f s, %llu failed; "
              "whole phase %.1f ops/s p50 %.1f us p99 %.1f us mean %.1f us\n",
              name, r.windows, static_cast<unsigned long long>(r.ops), r.seconds,
              static_cast<unsigned long long>(r.failed), r.whole_ops_s,
              r.whole_p50_us, r.whole_p99_us, r.mean_us);
}

/// The traced closed loop: the untraced phase's windows again, with spans,
/// registry and Env snapshots around them, then the codec replay and the
/// Chrome trace.
ode::StatusOr<TraceInputs> RunTraced(const WorkloadSpec& spec, const Options& opt,
                                     size_t windows, Instance* inst) {
  TraceInputs trace;
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  std::vector<GenTally> tally_before;
  for (size_t g = 0; g < inst->gens.size(); ++g) {
    buffers.push_back(std::make_unique<SpanBuffer>(static_cast<uint32_t>(g),
                                                   kTraceSpansPerGen));
    inst->gens[g]->set_spans(buffers.back().get());
    tally_before.push_back(inst->gens[g]->tally());
  }
  trace.before = Registry::Of(*inst->db);
  trace.io_before = inst->counting_env->Snapshot();
  const uint64_t origin = NowNs();
  trace.traced = RunClosed(inst->generators(), spec.window_ops, windows, kClosedStream);
  trace.io_after = inst->counting_env->Snapshot();
  trace.after = Registry::Of(*inst->db);
  PrintPhase("traced closed loop", trace.traced);
  for (size_t g = 0; g < inst->gens.size(); ++g) {
    inst->gens[g]->set_spans(nullptr);
    const GenTally& t = inst->gens[g]->tally();
    trace.tally.user_bytes += t.user_bytes - tally_before[g].user_bytes;
    trace.tally.txns += t.txns - tally_before[g].txns;
    trace.tally.begin_refusals += t.begin_refusals - tally_before[g].begin_refusals;
    for (size_t s = 0; s < kSpanNames; ++s) {
      trace.spans[s].count += buffers[g]->totals()[s].count;
      trace.spans[s].total_ns += buffers[g]->totals()[s].total_ns;
      trace.spans[s].self_ns += buffers[g]->totals()[s].self_ns;
    }
    trace.dropped_spans += buffers[g]->dropped();
  }
  // The generators still hold the traced phase's last window.
  trace.codec_ns_per_op = spec.server ? CodecNsPerOp(inst->gens) : 0;
  const std::string path =
      !opt.trace_out.empty() ? opt.trace_out
                             : opt.work_dir + "/ode_bench_trace." + spec.name + ".json";
  ODE_RETURN_IF_ERROR(WriteChromeTrace(path, buffers, origin, spec.name, opt.seed));
  std::printf("-- trace: %s\n", path.c_str());
  return trace;
}

ode::StatusOr<Outcome> RunWorkload(const WorkloadSpec& base, const Options& opt) {
  const WorkloadSpec spec = Scaled(base, opt.scale);
  const double measure_s = opt.seconds * opt.scale;
  Outcome out;
  std::printf("== %s  seed %llu  %.3g s  trace %d  scale %g\n", spec.name,
              static_cast<unsigned long long>(opt.seed), measure_s,
              opt.trace ? 1 : 0, opt.scale);

  double fsync_probe_us = 0;
  ODE_ASSIGN_OR_RETURN(fsync_probe_us,
                       FsyncProbeUs(opt.work_dir, std::max(10, static_cast<int>(
                                                                   kFsyncProbes * opt.scale))));
  std::printf("context git_sha=%s nproc=%u fs=%s env.fsync_probe_us=%.1f\n",
              GitSha().c_str(), std::thread::hardware_concurrency(),
              FsType(opt.work_dir).c_str(), fsync_probe_us);

  // Set up several times; the last set-up is the one measured.  Every
  // set-up's directory is deleted only when the run ends: deleting files
  // makes the filesystem discard their blocks, work that would otherwise
  // land in the measured phases.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<ScopedDir>> dirs;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inst.reset();  // Closes the previous set-up.
    dirs.push_back(std::make_unique<ScopedDir>());
    ODE_RETURN_IF_ERROR(dirs.back()->Create(opt.work_dir, spec.name));
    inst = std::make_unique<Instance>();
    inst->dir = dirs.back()->path();
    PhaseResult warmup;
    const uint64_t t0 = NowNs();
    ODE_RETURN_IF_ERROR(SetUp(spec, opt, inst.get(), &warmup));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    AddPhase(warmup, &out);
  }
  std::printf("-- set-up: %d runs:", kSetupReps);
  for (double s : setup_s) std::printf(" %.3f s", s);
  std::printf("\n");

  const std::vector<Generator*> gens = inst->generators();
  auto windows = [&](double ops_s, double share, size_t window_ops) {
    return std::max<size_t>(kMinWindows, static_cast<size_t>(std::llround(
                                             ops_s * measure_s * share / window_ops)));
  };
  const size_t closed_windows = windows(spec.nominal_ops_s, kClosedShare, spec.window_ops);
  const PhaseResult closed =
      RunClosed(gens, spec.window_ops, closed_windows, kClosedStream);
  AddPhase(closed, &out);
  PrintPhase("closed loop", closed);

  TraceInputs trace;
  if (opt.trace) {
    ODE_ASSIGN_OR_RETURN(trace, RunTraced(spec, opt, closed_windows, inst.get()));
    AddPhase(trace.traced, &out);
  }

  const PhaseResult open =
      RunOpen(gens, spec.open_rate, spec.open_window_ops,
              windows(spec.open_rate, kOpenShare, spec.open_window_ops), kOpenStream);
  AddPhase(open, &out);
  PrintPhase("open loop", open);
  std::printf("   open loop at %.0f/s: achieved %.1f/s, generator lag p99 %.1f us\n",
              spec.open_rate, open.whole_ops_s, open.lag_p99_us);

  // Close (the final checkpoint runs here), measure, reopen and check.
  inst->workload->Reclaim(&inst->gens);
  inst->gens.clear();
  inst->server.reset();
  inst->db.reset();
  const std::vector<ObjectModel>& model = inst->workload->model();
  const std::string& dir = inst->dir;
  const double disk_bytes = static_cast<double>(FileBytes(dir + "/data.odb") +
                                                FileBytes(dir + "/wal.log"));
  const double space_amp =
      Ratio(disk_bytes, static_cast<double>(LogicalBytes(model, spec.payload_bytes)));
  uint64_t checks = 0, mismatches = 0;
  {
    std::unique_ptr<ode::Database> reopened;
    ODE_ASSIGN_OR_RETURN(reopened, ode::Database::Open(inst->workload->DbOptions(
                                       dir, ode::Env::Posix())));
    const size_t sample = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(kReopenSample) * opt.scale));
    mismatches = VerifyReopened(*reopened, model, opt.seed, sample, &checks);
  }
  out.attempted += checks;
  out.failed += mismatches;
  std::printf("-- reopen: %llu checks, %llu mismatches; %.0f bytes on disk for "
              "%zu objects\n",
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(mismatches), disk_bytes, model.size());
  inst.reset();

  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(setup_s);
  e2e["ops_s"] = closed.ops_s;
  e2e["p50_us"] = closed.p50_us;
  e2e["p99_us"] = closed.p99_us;
  e2e["open_p50_us"] = open.p50_us;
  e2e["open_p90_us"] = open.p90_us;
  e2e["space_amp"] = space_amp;
  std::printf("-- end to end (medians over windows; set-up median of %d)\n",
              kSetupReps);
  for (const MetricSpec& s : kEndToEnd) {
    std::printf("   %-40s %14.4f %-6s (bound %+.0f%%)\n", s.name, e2e.at(s.name),
                s.unit, (std::string_view(s.better) == "lower" ? 1 : -1) * s.bound * 100);
  }
  if (!opt.trace) {
    out.metrics = std::move(e2e);
    return out;
  }

  double encode_us = 0, apply_us = 0;
  DeltaCodecUs(spec, StreamSeed(opt.seed, HashBytes(spec.name)), &encode_us, &apply_us);
  out.metrics = PerLayer(trace, closed, open, fsync_probe_us, encode_us, apply_us);
  PrintLayerTable(trace, out.metrics);
  std::printf("-- per layer\n");
  for (const MetricSpec& s : kPerLayer) {
    std::printf("   %-40s %14.4f %s\n", s.name, out.metrics.at(s.name), s.unit);
  }
  return out;
}

// -- Output -------------------------------------------------------------------

void PrintResultLine(const Outcome& out, bool trace) {
  ode::JsonWriter w;
  w.BeginObject();
  w.KV("correct", out.failed == 0);
  w.KV("attempted", out.attempted);
  w.KV("failed", out.failed);
  w.Key("metrics");
  w.BeginObject();
  const std::span<const MetricSpec> reported =
      trace ? std::span<const MetricSpec>(kPerLayer) : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& s : reported) {
    w.Key(s.name);
    w.BeginObject();
    w.KV("value", out.metrics.at(s.name));
    w.KV("unit", s.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

/// The catalogue BENCHMARK.json must repeat (check_metrics.cmake compares).
void PrintCatalogue() {
  ode::JsonWriter w;
  w.BeginObject();
  w.Key("workloads");
  w.BeginArray();
  for (const WorkloadSpec& s : Workloads()) {
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("why", s.why);
    w.EndObject();
  }
  w.EndArray();
  w.Key("end_to_end");
  w.BeginArray();
  for (const MetricSpec& s : kEndToEnd) {
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("unit", s.unit);
    w.KV("better", s.better);
    w.KV("bound", s.bound);
    w.EndObject();
  }
  w.EndArray();
  w.Key("per_layer");
  w.BeginArray();
  for (const MetricSpec& s : kPerLayer) {
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("unit", s.unit);
    w.KV("better", s.better);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

int Usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "ode_bench: %s\n", error);
  std::fprintf(stderr,
               "usage: ode_bench --workload <name|all> [--seed N] [--seconds S]\n"
               "                 [--trace 0|1] [--trace-out FILE]\n"
               "                 [--scale full|smoke] [--work-dir DIR]\n"
               "       ode_bench --list-metrics\n"
               "workloads:");
  for (const WorkloadSpec& s : Workloads()) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  const char* tmp = std::getenv("TMPDIR");
  opt.work_dir = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      PrintCatalogue();
      return 0;
    }
    if (arg == "--help" || arg == "-h") return Usage(nullptr);
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--scale") {
      if (value != "full" && value != "smoke") return Usage("--scale takes full or smoke");
      opt.scale = value == "smoke" ? 0.01 : 1;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + arg + ": " + value).c_str());
    }
  }
  std::vector<const WorkloadSpec*> selected;
  for (const WorkloadSpec& s : Workloads()) {
    if (opt.workload == "all" || opt.workload == s.name) selected.push_back(&s);
  }
  if (selected.empty()) return Usage("unknown or missing --workload");
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir " + opt.work_dir).c_str());

  int status = 0;
  for (const WorkloadSpec* spec : selected) {
    ode::StatusOr<Outcome> out = RunWorkload(*spec, opt);
    if (!out.ok()) {
      std::fprintf(stderr, "ode_bench: %s: %s\n", spec->name,
                   out.status().ToString().c_str());
      return 1;
    }
    PrintResultLine(*out, opt.trace);
    if (out->failed != 0) status = 1;
  }
  return status;
}

}  // namespace
}  // namespace ode_bench

int main(int argc, char** argv) { return ode_bench::Main(argc, argv); }
