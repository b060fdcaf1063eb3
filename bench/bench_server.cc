// TAB-L: ode_server end-to-end load generator.
//
// Plain binary (no google-benchmark): it spins up an in-process ode_server
// on a MemEnv-backed database, drives it over real TCP sockets with a pool
// of client connections, and writes BENCH_server.json in the same JSON
// shape tools/run_bench.sh collects from the google-benchmark suites
// (name / iterations / real_time / items_per_second / lat_p*_ns counters).
//
// Scenarios, each at --connections parallel clients (default 4):
//   server_deref_sync        closed-loop: one request in flight per conn
//   server_deref_pipelined   closed-loop, --window requests in flight
//   server_deref_batch       batched deref, --batch items per round trip
//   server_mixed             90% deref / 10% mutation through the txn path
//   server_open_loop         target --qps across conns; latency measured
//                            from the scheduled (not actual) send time, so
//                            a stalled server shows up in p99 instead of
//                            being absorbed by the schedule slipping
//                            (coordinated omission)
//
// Usage:
//   bench_server [--connections N] [--duration-ms MS] [--objects N]
//                [--payload BYTES] [--window N] [--batch N] [--qps N]
//                [--workers N] [--out FILE]

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "util/metrics.h"
#include "util/random.h"

namespace {

using ode::Histogram;
using ode::HistogramSnapshot;
using ode::ObjectId;
using ode::net::Client;
using ode::net::DerefItem;

struct Config {
  int connections = 4;
  uint64_t duration_ms = 2000;
  uint64_t objects = 1024;
  size_t payload_bytes = 256;
  uint32_t window = 32;
  uint32_t batch = 64;
  uint64_t qps = 20000;
  int workers = 4;
  std::string out = "BENCH_server.json";
};

struct ScenarioResult {
  std::string name;
  uint64_t ops = 0;          ///< Logical operations (derefs count per item).
  uint64_t elapsed_ns = 0;
  HistogramSnapshot latency;  ///< Per-round-trip latency.
  uint64_t errors = 0;
};

/// One client thread of a closed-loop scenario: connect, run `body` until
/// the deadline, tally ops/errors into the shared accumulators.
void RunClients(const Config& config, uint16_t port,
                std::atomic<uint64_t>& ops, std::atomic<uint64_t>& errors,
                Histogram& latency,
                const std::function<void(int, Client&, uint64_t deadline_ns,
                                         std::atomic<uint64_t>&,
                                         std::atomic<uint64_t>&, Histogram&)>&
                    body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.connections));
  const uint64_t deadline =
      Histogram::NowNanos() + config.duration_ms * 1'000'000ull;
  for (int c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", port);
      ODE_CHECK(client.ok());
      body(c, **client, deadline, ops, errors, latency);
    });
  }
  for (auto& t : threads) t.join();
}

ScenarioResult RunScenario(
    const std::string& name, const Config& config, uint16_t port,
    const std::function<void(int, Client&, uint64_t, std::atomic<uint64_t>&,
                             std::atomic<uint64_t>&, Histogram&)>& body) {
  std::printf("== %s (%d connections, %" PRIu64 " ms)\n", name.c_str(),
              config.connections, config.duration_ms);
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> errors{0};
  Histogram latency;
  const uint64_t start = Histogram::NowNanos();
  RunClients(config, port, ops, errors, latency, body);
  ScenarioResult result;
  result.name = name;
  result.ops = ops.load();
  result.errors = errors.load();
  result.elapsed_ns = Histogram::NowNanos() - start;
  result.latency = latency.Snapshot();
  const double secs = static_cast<double>(result.elapsed_ns) / 1e9;
  std::printf("   %" PRIu64 " ops in %.2fs = %.0f ops/s; "
              "p50 %.0fns p99 %.0fns max %" PRIu64 "ns; %" PRIu64 " errors\n",
              result.ops, secs, static_cast<double>(result.ops) / secs,
              result.latency.p50, result.latency.p99, result.latency.max,
              result.errors);
  return result;
}

void WriteJson(const Config& config, const std::vector<ScenarioResult>& results,
               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_server: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const char* sha = std::getenv("ODE_GIT_SHA");
  std::fprintf(f,
               "{\n"
               "  \"context\": {\n"
               "    \"executable\": \"bench_server\",\n"
               "    \"git_sha\": \"%s\",\n"
               "    \"cpu_count\": \"%u\",\n"
               "    \"connections\": \"%d\",\n"
               "    \"server_workers\": \"%d\",\n"
               "    \"transport\": \"tcp-loopback\"\n"
               "  },\n"
               "  \"benchmarks\": [\n",
               sha != nullptr ? sha : "unknown",
               std::thread::hardware_concurrency(), config.connections,
               config.workers);
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    const double per_op_ns =
        r.ops == 0 ? 0.0
                   : static_cast<double>(r.elapsed_ns) /
                         static_cast<double>(r.ops);
    const double per_sec =
        r.elapsed_ns == 0
            ? 0.0
            : static_cast<double>(r.ops) * 1e9 /
                  static_cast<double>(r.elapsed_ns);
    std::fprintf(
        f,
        "    {\n"
        "      \"name\": \"%s\",\n"
        "      \"run_type\": \"iteration\",\n"
        "      \"iterations\": %" PRIu64 ",\n"
        "      \"real_time\": %.1f,\n"
        "      \"cpu_time\": %.1f,\n"
        "      \"time_unit\": \"ns\",\n"
        "      \"items_per_second\": %.1f,\n"
        "      \"lat_p50_ns\": %.1f,\n"
        "      \"lat_p90_ns\": %.1f,\n"
        "      \"lat_p99_ns\": %.1f,\n"
        "      \"lat_max_ns\": %.1f,\n"
        "      \"errors\": %" PRIu64 "\n"
        "    }%s\n",
        r.name.c_str(), r.ops, per_op_ns, per_op_ns, per_sec, r.latency.p50,
        r.latency.p90, r.latency.p99, static_cast<double>(r.latency.max),
        r.errors, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_server: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connections") config.connections = std::atoi(value());
    else if (arg == "--duration-ms") config.duration_ms =
        static_cast<uint64_t>(std::atoll(value()));
    else if (arg == "--objects") config.objects =
        static_cast<uint64_t>(std::atoll(value()));
    else if (arg == "--payload") config.payload_bytes =
        static_cast<size_t>(std::atol(value()));
    else if (arg == "--window") config.window =
        static_cast<uint32_t>(std::atoi(value()));
    else if (arg == "--batch") config.batch =
        static_cast<uint32_t>(std::atoi(value()));
    else if (arg == "--qps") config.qps =
        static_cast<uint64_t>(std::atoll(value()));
    else if (arg == "--workers") config.workers = std::atoi(value());
    else if (arg == "--out") config.out = value();
    else {
      std::fprintf(stderr, "bench_server: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  // In-process server on a MemEnv database: the numbers measure the wire
  // stack (codec, dispatcher, epoll event loops) plus the in-memory
  // engine, with real TCP loopback sockets in between.
  ode::bench::BenchDb handle = ode::bench::OpenBenchDb();
  const uint32_t type_id = ode::bench::RawType(*handle);
  const std::string payload = ode::bench::MakePayload(config.payload_bytes);
  for (uint64_t i = 0; i < config.objects; ++i) {
    ODE_CHECK(handle->PnewRaw(type_id, ode::Slice(payload)).ok());
  }

  ode::net::ServerOptions server_options;
  server_options.workers = config.workers;
  // The pipelined scenarios intentionally run deep windows; keep headroom.
  server_options.max_pipeline =
      std::max<size_t>(1024, 4ull * config.window);
  auto server = ode::net::Server::Start(*handle.db, server_options);
  ODE_CHECK(server.ok());
  const uint16_t port = (*server)->port();

  const uint64_t num_objects = config.objects;
  std::vector<ScenarioResult> results;

  results.push_back(RunScenario(
      "server_deref_sync/conns:" + std::to_string(config.connections),
      config, port,
      [&](int conn, Client& client, uint64_t deadline,
          std::atomic<uint64_t>& ops, std::atomic<uint64_t>& errors,
          Histogram& latency) {
        ode::Random rng(static_cast<uint64_t>(conn) + 1);
        uint64_t local_ops = 0, local_errors = 0;
        while (Histogram::NowNanos() < deadline) {
          const ObjectId oid{1 + rng.Uniform(num_objects)};
          const uint64_t t0 = Histogram::NowNanos();
          auto bytes = client.DerefLatest(oid);
          latency.Record(Histogram::NowNanos() - t0);
          if (bytes.ok()) ++local_ops; else ++local_errors;
        }
        ops.fetch_add(local_ops);
        errors.fetch_add(local_errors);
      }));

  results.push_back(RunScenario(
      "server_deref_pipelined/conns:" + std::to_string(config.connections) +
          "/window:" + std::to_string(config.window),
      config, port,
      [&](int conn, Client& client, uint64_t deadline,
          std::atomic<uint64_t>& ops, std::atomic<uint64_t>& errors,
          Histogram& latency) {
        ode::Random rng(static_cast<uint64_t>(conn) + 101);
        uint64_t local_ops = 0, local_errors = 0;
        std::vector<uint64_t> sent_at;  // FIFO; responses arrive in order.
        sent_at.reserve(config.window);
        size_t head = 0;
        auto recv_one = [&] {
          ode::net::Response resp;
          if (!client.Recv(&resp).ok() ||
              resp.status != ode::net::WireStatus::kOk) {
            ++local_errors;
          } else {
            ++local_ops;
          }
          latency.Record(Histogram::NowNanos() - sent_at[head++]);
        };
        while (Histogram::NowNanos() < deadline) {
          sent_at.clear();
          head = 0;
          for (uint32_t w = 0; w < config.window; ++w) {
            ode::net::Request req;
            req.op = ode::net::OpCode::kDerefLatest;
            req.oid = 1 + rng.Uniform(num_objects);
            ODE_CHECK(client.Send(req).ok());
            sent_at.push_back(Histogram::NowNanos());
          }
          ODE_CHECK(client.Flush().ok());
          while (head < sent_at.size()) recv_one();
        }
        ops.fetch_add(local_ops);
        errors.fetch_add(local_errors);
      }));

  results.push_back(RunScenario(
      "server_deref_batch/conns:" + std::to_string(config.connections) +
          "/batch:" + std::to_string(config.batch),
      config, port,
      [&](int conn, Client& client, uint64_t deadline,
          std::atomic<uint64_t>& ops, std::atomic<uint64_t>& errors,
          Histogram& latency) {
        ode::Random rng(static_cast<uint64_t>(conn) + 201);
        uint64_t local_ops = 0, local_errors = 0;
        std::vector<DerefItem> items(config.batch);
        while (Histogram::NowNanos() < deadline) {
          for (DerefItem& item : items) {
            item.oid = 1 + rng.Uniform(num_objects);
            item.vnum = ode::kNoVersion;  // Generic deref.
          }
          const uint64_t t0 = Histogram::NowNanos();
          auto batch = client.DerefBatch(items);
          latency.Record(Histogram::NowNanos() - t0);
          if (!batch.ok()) {
            ++local_errors;
            continue;
          }
          for (const auto& r : *batch) {
            if (r.status == ode::net::WireStatus::kOk) ++local_ops;
            else ++local_errors;
          }
        }
        ops.fetch_add(local_ops);
        errors.fetch_add(local_errors);
      }));

  results.push_back(RunScenario(
      "server_mixed/conns:" + std::to_string(config.connections),
      config, port,
      [&](int conn, Client& client, uint64_t deadline,
          std::atomic<uint64_t>& ops, std::atomic<uint64_t>& errors,
          Histogram& latency) {
        ode::Random rng(static_cast<uint64_t>(conn) + 301);
        std::string edit = payload;
        uint64_t local_ops = 0, local_errors = 0;
        while (Histogram::NowNanos() < deadline) {
          const ObjectId oid{1 + rng.Uniform(num_objects)};
          const uint64_t t0 = Histogram::NowNanos();
          bool ok;
          if (rng.Uniform(10) == 0) {
            // Mutation through the transactional path: new version + update.
            ode::bench::SmallEdit(&edit, &rng);
            ok = client.NewVersionOf(oid).ok() &&
                 client.UpdateLatest(oid, edit).ok();
          } else {
            ok = client.DerefLatest(oid).ok();
          }
          latency.Record(Histogram::NowNanos() - t0);
          if (ok) ++local_ops; else ++local_errors;
        }
        ops.fetch_add(local_ops);
        errors.fetch_add(local_errors);
      }));

  results.push_back(RunScenario(
      "server_open_loop/qps:" + std::to_string(config.qps),
      config, port,
      [&](int conn, Client& client, uint64_t deadline,
          std::atomic<uint64_t>& ops, std::atomic<uint64_t>& errors,
          Histogram& latency) {
        ode::Random rng(static_cast<uint64_t>(conn) + 401);
        const uint64_t interval_ns =
            1'000'000'000ull * static_cast<uint64_t>(config.connections) /
            std::max<uint64_t>(1, config.qps);
        uint64_t local_ops = 0, local_errors = 0;
        std::vector<uint64_t> due_at;  // FIFO of scheduled send times.
        size_t head = 0;
        uint32_t in_flight = 0;
        uint64_t next_due = Histogram::NowNanos();
        auto recv_one = [&] {
          ode::net::Response resp;
          if (client.Recv(&resp).ok() &&
              resp.status == ode::net::WireStatus::kOk) {
            ++local_ops;
          } else {
            ++local_errors;
          }
          latency.Record(Histogram::NowNanos() - due_at[head++]);
          --in_flight;
        };
        while (Histogram::NowNanos() < deadline) {
          const uint64_t now = Histogram::NowNanos();
          if (now < next_due) {
            if (in_flight > 0) {
              recv_one();  // Use the wait productively.
            } else {
              std::this_thread::sleep_for(
                  std::chrono::nanoseconds(next_due - now));
            }
            continue;
          }
          ode::net::Request req;
          req.op = ode::net::OpCode::kDerefLatest;
          req.oid = 1 + rng.Uniform(num_objects);
          ODE_CHECK(client.Send(req).ok());
          ODE_CHECK(client.Flush().ok());
          // Latency anchored on the schedule, not the actual send: if the
          // loop fell behind, the delay counts against the server.
          due_at.push_back(next_due);
          ++in_flight;
          next_due += interval_ns;
          if (in_flight >= config.window) recv_one();
        }
        while (in_flight > 0) recv_one();
        ops.fetch_add(local_ops);
        errors.fetch_add(local_errors);
      }));

  (*server)->Stop();
  WriteJson(config, results, config.out);
  return 0;
}
