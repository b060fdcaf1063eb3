// ode_server over real sockets: lifecycle, pipelining, per-session
// transaction affinity, backpressure shedding, and multi-connection load.
// CI also runs this binary under -fsanitize=thread (`ctest -L net`), so
// parking, teardown, shedding and Stop are checked on the event-loop
// threads; the *Concurrent* tests are the multi-client stress among them.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "tests/testing/db_fixture.h"
#include "tests/testing/util.h"

namespace ode {
namespace net {
namespace {

class ServerTest : public testing_internal::DatabaseFixture {
 protected:
  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }

  void TearDown() override {
    if (server_) server_->Stop();
    server_.reset();
    DatabaseFixture::TearDown();
  }

  void StartServer(ServerOptions options = {}) {
    auto server = Server::Start(*db_, options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<Client> MustConnect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::unique_ptr<Server> server_;
};

// Polls `done` for up to 5 s: a regression fails the test instead of
// hanging it.
template <typename Pred>
bool Eventually(Pred done) {
  for (int i = 0; i < 500 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

TEST_F(ServerTest, OptionsValidateRejectsBadKnobs) {
  ServerOptions options;
  options.workers = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.max_pipeline = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.max_frame_bytes = 4;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_OK(ServerOptions{}.Validate());
}

TEST_F(ServerTest, FullLifecycleOverTcp) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  ASSERT_OK(client->Ping());
  ASSERT_OK_AND_ASSIGN(const uint32_t type_id,
                       client->RegisterType("server.doc"));
  ASSERT_OK_AND_ASSIGN(const VersionId v1, client->Pnew(type_id, "payload 1"));
  EXPECT_EQ(v1.vnum, kFirstVersion);

  ASSERT_OK_AND_ASSIGN(const VersionId v2, client->NewVersionOf(v1.oid));
  EXPECT_EQ(v2.vnum, kFirstVersion + 1);
  ASSERT_OK(client->UpdateLatest(v1.oid, "payload 2"));

  VersionId resolved;
  ASSERT_OK_AND_ASSIGN(const std::string latest,
                       client->DerefLatest(v1.oid, &resolved));
  EXPECT_EQ(latest, "payload 2");
  EXPECT_EQ(resolved.vnum, v2.vnum);
  ASSERT_OK_AND_ASSIGN(const std::string old, client->DerefVersion(v1));
  EXPECT_EQ(old, "payload 1");

  ASSERT_OK_AND_ASSIGN(const auto vnums, client->VersionsOf(v1.oid));
  EXPECT_EQ(vnums.size(), 2u);

  // Errors arrive as the library Status a local caller would get.
  EXPECT_EQ(client->DerefLatest(ObjectId{987654}).status().code(),
            StatusCode::kNotFound);

  ASSERT_OK(client->DeleteObject(v1.oid));
  EXPECT_EQ(client->DerefLatest(v1.oid).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServerTest, PipelinedResponsesComeBackInOrder) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_OK_AND_ASSIGN(const VersionId vid, client->Pnew(type_id_, "deep"));

  constexpr int kDepth = 64;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kDepth; ++i) {
    Request req;
    req.op = OpCode::kDerefLatest;
    req.oid = vid.oid.value;
    uint64_t id = 0;
    ASSERT_OK(client->Send(req, &id));
    ids.push_back(id);
  }
  ASSERT_OK(client->Flush());
  for (int i = 0; i < kDepth; ++i) {
    Response resp;
    ASSERT_OK(client->Recv(&resp));
    EXPECT_EQ(resp.request_id, ids[static_cast<size_t>(i)]);
    EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
    EXPECT_EQ(resp.payload, "deep");
  }
}

TEST_F(ServerTest, BatchedDerefOneRoundTrip) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_OK_AND_ASSIGN(const VersionId a, client->Pnew(type_id_, "aa"));
  ASSERT_OK_AND_ASSIGN(const VersionId b, client->Pnew(type_id_, "bb"));

  ASSERT_OK_AND_ASSIGN(
      const auto results,
      client->DerefBatch({{a.oid.value, 0},
                          {b.oid.value, b.vnum},
                          {131313, 0}}));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, WireStatus::kOk);
  EXPECT_EQ(results[0].payload, "aa");
  EXPECT_EQ(results[1].payload, "bb");
  EXPECT_EQ(results[2].status, WireStatus::kNotFound);
}

TEST_F(ServerTest, ProtocolGarbageGetsTypedErrorThenClose) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_OK(client->Ping());

  // Raw hostile frame: oversized length prefix straight onto the socket.
  Request raw;
  raw.op = OpCode::kPing;
  std::string hostile;
  hostile.push_back('\xff');
  hostile.push_back('\xff');
  hostile.push_back('\xff');
  hostile.push_back('\xff');
  hostile += "trailing junk";
  // Reuse the pipelined surface to write bytes: encode nothing, write raw.
  // (Client has no raw-write API on purpose; go through a second socket.)
  auto hostile_client = MustConnect();
  ASSERT_NE(hostile_client, nullptr);
  {
    Request req;
    uint64_t id = 0;
    ASSERT_OK(hostile_client->Send(req, &id));  // valid ping first
    ASSERT_OK(hostile_client->Flush());
    Response resp;
    ASSERT_OK(hostile_client->Recv(&resp));
  }
  // Now the garbage, via the well-behaved client's socket internals: use
  // Status-level check that the server answers kProtocolError and closes.
  // We drive it with a one-shot throwaway TCP connection.
  struct RawConn {
    static Status Run(uint16_t port, const std::string& bytes,
                      Response* resp) {
      auto c = Client::Connect("127.0.0.1", port);
      ODE_RETURN_IF_ERROR(c.status());
      // Smuggle the raw bytes through Send's buffer: encode a ping, then
      // REPLACE the buffered frame.  Cheaper than a second socket API.
      Request req;
      ODE_RETURN_IF_ERROR((*c)->Send(req));
      (*c)->TestOnlyReplaceSendBuffer(bytes);
      ODE_RETURN_IF_ERROR((*c)->Flush());
      ODE_RETURN_IF_ERROR((*c)->Recv(resp));
      // The server must close after the error: next read hits EOF.
      Response eof_probe;
      Status end = (*c)->Recv(&eof_probe);
      if (end.ok()) return Status::Internal("connection stayed open");
      return Status::OK();
    }
  };
  Response resp;
  ASSERT_OK(RawConn::Run(server_->port(), hostile, &resp));
  EXPECT_EQ(resp.status, WireStatus::kProtocolError);

  // The healthy connection is unaffected.
  EXPECT_OK(client->Ping());
}

TEST_F(ServerTest, PipelineCapShedsWithBackpressure) {
  // One loop + a transaction holding it: requests from a second
  // connection park unanswered, so its pipeline fills deterministically.
  ServerOptions options;
  options.workers = 1;
  options.max_pipeline = 8;
  StartServer(options);

  auto holder = MustConnect();
  ASSERT_NE(holder, nullptr);
  ASSERT_OK(holder->TxnBegin());  // Parks every other connection's work.

  auto flooder = MustConnect();
  ASSERT_NE(flooder, nullptr);
  // 2x the cap: the early requests park, the overflow one is shed.
  for (int i = 0; i < 16; ++i) {
    Request req;
    req.op = OpCode::kPing;
    ASSERT_OK(flooder->Send(req));
  }
  ASSERT_OK(flooder->Flush());
  // First response on the flooded connection is the shed error (the parked
  // pings can't be answered while the txn holds the loop's gate).
  Response resp;
  ASSERT_OK(flooder->Recv(&resp));
  EXPECT_EQ(resp.status, WireStatus::kBackpressure) << resp.message;

  // Release the loop; the holder's session still works end to end.
  ASSERT_OK_AND_ASSIGN(const VersionId vid,
                       holder->Pnew(type_id_, "inside txn"));
  ASSERT_OK(holder->TxnCommit());
  ASSERT_OK_AND_ASSIGN(const std::string read,
                       holder->DerefLatest(vid.oid));
  EXPECT_EQ(read, "inside txn");
}

TEST_F(ServerTest, TransactionAffinityParksOtherSessions) {
  // Both connections land on the single loop.  While A holds the txn,
  // B's request must NOT execute inside it (it parks until commit) — B's
  // pnew lands after A's commit and both objects survive.
  ServerOptions options;
  options.workers = 1;
  StartServer(options);
  auto a = MustConnect();
  auto b = MustConnect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  ASSERT_OK(a->TxnBegin());
  // Send B's request while A's txn is open; do not wait for the answer yet.
  Request parked;
  parked.op = OpCode::kPnew;
  parked.type_id = type_id_;
  parked.payload = "from B";
  ASSERT_OK(b->Send(parked));
  ASSERT_OK(b->Flush());

  ASSERT_OK_AND_ASSIGN(const VersionId from_a, a->Pnew(type_id_, "from A"));
  ASSERT_OK(a->TxnCommit());

  Response resp;
  ASSERT_OK(b->Recv(&resp));
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
  const ObjectId from_b{resp.oid};

  ASSERT_OK_AND_ASSIGN(std::string read_a, a->DerefLatest(from_a.oid));
  EXPECT_EQ(read_a, "from A");
  ASSERT_OK_AND_ASSIGN(std::string read_b, b->DerefLatest(from_b));
  EXPECT_EQ(read_b, "from B");
}

TEST_F(ServerTest, DisconnectAbortsTheSessionsTransaction) {
  StartServer();
  uint64_t doomed = 0;
  {
    auto txn_client = MustConnect();
    ASSERT_NE(txn_client, nullptr);
    ASSERT_OK(txn_client->TxnBegin());
    ASSERT_OK_AND_ASSIGN(const VersionId vid,
                         txn_client->Pnew(type_id_, "never committed"));
    doomed = vid.oid.value;
    // Client destructor closes the socket with the txn open.
  }
  auto fresh = MustConnect();
  ASSERT_NE(fresh, nullptr);
  // The abort runs on the loop asynchronously; poll until it lands.
  Status last;
  for (int i = 0; i < 200; ++i) {
    last = fresh->DerefLatest(ObjectId{doomed}).status();
    if (last.code() == StatusCode::kNotFound) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(last.code(), StatusCode::kNotFound) << last.ToString();
}

TEST_F(ServerTest, StatsReflectServerTraffic) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_OK(client->Ping());
  ASSERT_OK_AND_ASSIGN(const std::string json, client->Stats());
  EXPECT_NE(json.find("net.requests"), std::string::npos);
  EXPECT_NE(json.find("server.connections_accepted"), std::string::npos);
}

TEST_F(ServerTest, ConcurrentClientsHammerTheWorkerPool) {
  // >= 4 concurrent connections doing mixed reads/writes across 4 loops:
  // the acceptance-criteria load shape, and the TSan target for the accept
  // hand-off and the loops' shared Database.
  StartServer();
  constexpr int kClients = 6;
  constexpr int kOpsPerClient = 120;

  // Seed one object per client up front.
  std::vector<uint64_t> seed_oids;
  {
    auto seeder = MustConnect();
    ASSERT_NE(seeder, nullptr);
    for (int i = 0; i < kClients; ++i) {
      ASSERT_OK_AND_ASSIGN(const VersionId vid,
                           seeder->Pnew(type_id_, "seed"));
      seed_oids.push_back(vid.oid.value);
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const ObjectId mine{seed_oids[static_cast<size_t>(c)]};
      for (int i = 0; i < kOpsPerClient; ++i) {
        bool ok = true;
        switch (i % 4) {
          case 0:
            ok = (*client)->DerefLatest(mine).ok();
            break;
          case 1:
            ok = (*client)->NewVersionOf(mine).ok();
            break;
          case 2:
            ok = (*client)->UpdateLatest(mine, "c" + std::to_string(c) +
                                                   " i" + std::to_string(i))
                     .ok();
            break;
          case 3:
            ok = (*client)->VersionsOf(mine).ok();
            break;
        }
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // A loop reaps a connection when epoll delivers the hang-up, which lags
  // the client-side close; poll instead of asserting instantly.
  for (int i = 0; i < 200 && server_->open_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->open_connections(), 0u) << "clients should have closed";
}

TEST_F(ServerTest, ConcurrentPipelinedMixWithTransactions) {
  // Pipelined readers racing transactional writers across every loop;
  // exercises parking/unparking under churn.  TSan leg covers the handoffs.
  ServerOptions options;
  options.workers = 2;  // Forces sessions to share loops.
  StartServer(options);

  ASSERT_OK_AND_ASSIGN(const VersionId seed,
                       MustConnect()->Pnew(type_id_, "shared"));
  const uint64_t oid = seed.oid.value;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 20; ++round) {
        if (c == 0) {
          // One transactional writer (the db permits one txn at a time).
          if (!(*client)->TxnBegin().ok()) continue;
          (*client)->NewVersionOf(ObjectId{oid}).status().IgnoreError();
          if (!(*client)->TxnCommit().ok()) failures.fetch_add(1);
        } else {
          // Pipelined read burst.
          constexpr int kBurst = 16;
          for (int i = 0; i < kBurst; ++i) {
            Request req;
            req.op = OpCode::kDerefLatest;
            req.oid = oid;
            if (!(*client)->Send(req).ok()) failures.fetch_add(1);
          }
          if (!(*client)->Flush().ok()) failures.fetch_add(1);
          for (int i = 0; i < kBurst; ++i) {
            Response resp;
            if (!(*client)->Recv(&resp).ok() ||
                resp.status != WireStatus::kOk) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, StopAnswersInFlightWithShuttingDownOrCloses) {
  ServerOptions options;
  options.workers = 1;
  StartServer(options);
  auto holder = MustConnect();
  ASSERT_NE(holder, nullptr);
  ASSERT_OK(holder->TxnBegin());  // Queue up parked work behind this.

  auto victim = MustConnect();
  ASSERT_NE(victim, nullptr);
  Request req;
  req.op = OpCode::kPing;
  ASSERT_OK(victim->Send(req));
  ASSERT_OK(victim->Flush());

  server_->Stop();

  // Three clean ends: the parked ping got a typed kShuttingDown answer, it
  // was answered normally in the instant between teardown and drain mode,
  // or the socket closed during shutdown.  Silence/hang is the bug (Recv
  // blocks forever) — reaching here at all means shutdown answered.
  Response resp;
  Status got = victim->Recv(&resp);
  if (got.ok()) {
    EXPECT_TRUE(resp.status == WireStatus::kShuttingDown ||
                resp.status == WireStatus::kOk)
        << static_cast<int>(resp.status) << " " << resp.message;
  }
  server_.reset();
}

TEST_F(ServerTest, ConcurrentOtherLoopAnswersWhileATransactionParks) {
  // Loop 0 deals connections round-robin from itself: A -> loop 0,
  // B -> loop 1, C -> loop 0.  A's transaction parks C's work on loop 0
  // only; loop 1 keeps answering.
  ServerOptions options;
  options.workers = 2;
  StartServer(options);
  auto a = MustConnect();
  ASSERT_NE(a, nullptr);
  ASSERT_OK(a->Ping());
  auto b = MustConnect();
  ASSERT_NE(b, nullptr);
  ASSERT_OK(b->Ping());
  auto c = MustConnect();
  ASSERT_NE(c, nullptr);
  ASSERT_OK(c->Ping());
  const Gauge* parked =
      db_->metrics_registry().GetGauge("server.parked_requests");

  ASSERT_OK(a->TxnBegin());
  Request ping;
  ASSERT_OK(c->Send(ping));
  ASSERT_OK(c->Flush());
  ASSERT_TRUE(Eventually([&] { return parked->value() == 1; }));

  auto b_ping = std::async(std::launch::async, [&] { return b->Ping(); });
  const bool b_answered = b_ping.wait_for(std::chrono::seconds(5)) ==
                          std::future_status::ready;
  EXPECT_EQ(parked->value(), 1) << "C's ping must wait for A's commit";

  ASSERT_OK(a->TxnCommit());  // Also frees B had it shared A's loop.
  EXPECT_TRUE(b_answered) << "the other loop waited on A's transaction";
  EXPECT_OK(b_ping.get());
  auto answer = std::async(std::launch::async, [&] {
    Response resp;
    Status s = c->Recv(&resp);
    return s.ok() ? resp.status : WireStatus::kProtocolError;
  });
  ASSERT_EQ(answer.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(answer.get(), WireStatus::kOk);
  EXPECT_EQ(parked->value(), 0);
}

TEST_F(ServerTest, ConcurrentClosedConnectionsParkedTxnBeginNeverRuns) {
  // A closed client's parked TxnBegin must die with it: replayed after A's
  // commit it would open a transaction no client can end, and every read
  // on every loop would wait behind it.  Placement as above: A and C on
  // loop 0, B on loop 1.
  ServerOptions options;
  options.workers = 2;
  StartServer(options);
  auto a = MustConnect();
  ASSERT_NE(a, nullptr);
  ASSERT_OK(a->Ping());
  auto b = MustConnect();
  ASSERT_NE(b, nullptr);
  ASSERT_OK(b->Ping());
  auto c = MustConnect();
  ASSERT_NE(c, nullptr);
  ASSERT_OK(c->Ping());
  ASSERT_OK_AND_ASSIGN(const VersionId vid, b->Pnew(type_id_, "readable"));
  const Gauge* parked =
      db_->metrics_registry().GetGauge("server.parked_requests");

  ASSERT_OK(a->TxnBegin());
  Request begin;
  begin.op = OpCode::kTxnBegin;
  ASSERT_OK(c->Send(begin));
  ASSERT_OK(c->Flush());
  ASSERT_TRUE(Eventually([&] { return parked->value() == 1; }));
  c.reset();  // Disconnect with the TxnBegin still parked.
  ASSERT_TRUE(Eventually([&] {
    return server_->open_connections() == 2 && parked->value() == 0;
  }));

  ASSERT_OK(a->TxnCommit());
  // Loop 0 answers A's ping only after whatever the commit released ran.
  ASSERT_OK(a->Ping());
  ASSERT_FALSE(db_->InTransaction()) << "the closed client's TxnBegin ran";

  auto read = std::async(std::launch::async,
                         [&] { return b->DerefLatest(vid.oid); });
  ASSERT_EQ(read.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_OK_AND_ASSIGN(const std::string payload, read.get());
  EXPECT_EQ(payload, "readable");
}

}  // namespace
}  // namespace net
}  // namespace ode
