#ifndef ODE_BENCH_WORKLOADS_H_
#define ODE_BENCH_WORKLOADS_H_

// The four workloads: what each loads, the operation mix its generators
// run, and how each answer is checked against the model.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/database.h"
#include "loadgen.h"
#include "model.h"
#include "net/wire.h"
#include "spans.h"
#include "util/status.h"

namespace ode_bench {

struct WorkloadSpec {
  const char* name;
  const char* why;  ///< One line, also in BENCHMARK.json.
  /// Load goes through an in-process net::Server over TCP loopback, one
  /// connection per generator; otherwise generators call Database directly.
  bool server;
  ode::PayloadKind payload;
  size_t payload_bytes;
  /// Read-cache sizes (DatabaseOptions::payload_cache_bytes and
  /// StorageOptions::buffer_pool_pages); 0 keeps the shipped default.
  uint64_t payload_cache_bytes;
  size_t buffer_pool_pages;
  size_t generators;
  size_t objects;           ///< Loaded at set-up.
  uint32_t versions;        ///< Per loaded object.
  size_t warmup_ops;
  /// Closed loop: operations per window, summed over generators, and the
  /// throughput the workload reaches at the commit that defined it on a
  /// 4-core box, which turns --seconds into a fixed number of windows (the
  /// same work on every commit).
  size_t window_ops;
  double nominal_ops_s;
  /// Open loop: operations per second and per window, summed.
  double open_rate;
  size_t open_window_ops;
};

/// Every workload, in the order `--workload all` runs them.
const std::vector<WorkloadSpec>& Workloads();

/// What a generator did besides its operations, for per-layer ratios.
struct GenTally {
  uint64_t user_bytes = 0;      ///< Payload bytes handed to write calls.
  uint64_t txns = 0;            ///< Explicit transactions committed.
  uint64_t begin_refusals = 0;  ///< TxnBegin refused while another was open.
};

class WorkloadGen : public Generator {
 public:
  void set_spans(SpanBuffer* spans) { spans_ = spans; }
  const GenTally& tally() const { return tally_; }
  /// Appends the wire requests planned operation `i` sends and the
  /// responses it gets (server workloads), for the codec replay.
  virtual void WireMessages(size_t i, std::vector<ode::net::Request>* reqs,
                            std::vector<ode::net::Response>* resps) const;
  size_t planned() const { return plan_.size(); }

  /// Objects this generator alone writes (writer workloads).
  std::vector<ObjectModel> own;

 protected:
  /// One operation drawn by Plan(); fields a workload does not use stay 0.
  struct PlannedOp {
    uint8_t kind = 0;
    uint32_t obj = 0;   ///< Index into the generator's objects.
    uint32_t vnum = 0;
    uint64_t edit = 0;  ///< ApplyEdit argument for writes.
  };

  WorkloadGen(uint32_t index, uint64_t seed) : index_(index), seed_(seed) {}
  /// Generator of Plan(stream, ...)'s draws.
  uint64_t PlanSeed(uint64_t stream) const;
  uint64_t NextOpId() { return (uint64_t{index_} << 48) | ++ops_; }
  /// Reports a failed operation on stderr (the first few per generator);
  /// returns false for `return Fail(...)`.
  bool Fail(const char* what, const ode::Status& status = ode::Status::OK());

  const uint32_t index_;
  const uint64_t seed_;
  uint64_t ops_ = 0;
  uint64_t failures_ = 0;
  std::vector<PlannedOp> plan_;
  SpanBuffer* spans_ = nullptr;
  GenTally tally_;
};

class Workload {
 public:
  using Generators = std::vector<std::unique_ptr<WorkloadGen>>;

  Workload(const WorkloadSpec& spec, uint64_t seed) : spec_(spec), seed_(seed) {}
  virtual ~Workload() = default;

  const WorkloadSpec& spec() const { return spec_; }
  ode::DatabaseOptions DbOptions(const std::string& dir, ode::Env* env) const;

  /// Loads the data set into a fresh database and records it in the model.
  virtual ode::Status Populate(ode::Database& db) = 0;
  /// One generator per load thread.  `port` is the server's, for server
  /// workloads.  Writer workloads move each generator's objects into its
  /// `own`; Reclaim() returns them.
  virtual ode::StatusOr<Generators> MakeGenerators(ode::Database& db,
                                                   uint16_t port) = 0;
  void Reclaim(Generators* gens);

  const std::vector<ObjectModel>& model() const { return objects_; }

 protected:
  /// Hands object i to generator i % generators.
  void Deal(Generators* gens);

  const WorkloadSpec spec_;
  const uint64_t seed_;
  std::vector<ObjectModel> objects_;
};

/// The workload `spec` names; `seed` generates every input it makes.
std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec, uint64_t seed);

/// `spec` with every count multiplied by `scale`, keeping each mix valid:
/// at least one operation per generator per window, two objects per
/// generator, and two versions where the spec has several.
WorkloadSpec Scaled(const WorkloadSpec& spec, double scale);

}  // namespace ode_bench

#endif  // ODE_BENCH_WORKLOADS_H_
