#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace ode {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Status Watch(int epoll_fd, int fd, const char* what) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Errno(std::string("epoll_ctl(") + what + ")");
  }
  return Status::OK();
}

}  // namespace

Status ServerOptions::Validate() const {
  if (workers < 1) {
    return Status::InvalidArgument("ServerOptions::workers must be >= 1");
  }
  if (max_frame_bytes < kFrameMinPayload) {
    return Status::InvalidArgument(
        "ServerOptions::max_frame_bytes must be >= " +
        std::to_string(kFrameMinPayload));
  }
  if (max_pipeline < 1) {
    return Status::InvalidArgument("ServerOptions::max_pipeline must be >= 1");
  }
  if (max_outbox_bytes < 1) {
    return Status::InvalidArgument(
        "ServerOptions::max_outbox_bytes must be >= 1");
  }
  if (listen_backlog < 1) {
    return Status::InvalidArgument(
        "ServerOptions::listen_backlog must be >= 1");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Server>> Server::Start(Database& db,
                                                const ServerOptions& options) {
  ODE_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<Server> server(new Server());
  Status s = server->Init(db, options);
  if (!s.ok()) {
    server->Stop();
    return s;
  }
  return server;
}

Status Server::Init(Database& db, const ServerOptions& options) {
  options_ = options;
  dispatcher_ = std::make_unique<Dispatcher>(db);

  MetricsRegistry& registry = db.metrics_registry();
  accepted_ = registry.GetCounter("server.connections_accepted");
  closed_count_ = registry.GetCounter("server.connections_closed");
  bytes_in_ = registry.GetCounter("server.bytes_in");
  bytes_out_ = registry.GetCounter("server.bytes_out");
  protocol_errors_ = registry.GetCounter("server.protocol_errors");
  shed_pipeline_ = registry.GetCounter("server.shed_backpressure");
  shed_slow_consumer_ = registry.GetCounter("server.shed_slow_consumer");
  open_gauge_ = registry.GetGauge("server.open_connections");
  parked_gauge_ = registry.GetGauge("server.parked_requests");

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  // Best-effort: without REUSEADDR a quick restart fails in TIME_WAIT, but
  // the bind below still reports the real error if it matters.
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("ServerOptions::host is not an IPv4 "
                                   "address: " + options_.host);
  }
  // ode_lint: allow(unchecked-cast) POSIX sockaddr idiom, sizeof-bounded.
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind " + options_.host + ":" + std::to_string(options_.port));
  }
  socklen_t addr_len = sizeof(addr);
  // ode_lint: allow(unchecked-cast) POSIX sockaddr idiom, sizeof-bounded.
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, options_.listen_backlog) < 0) return Errno("listen");
  ODE_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  for (int i = 0; i < options_.workers; ++i) {
    loops_.push_back(std::make_unique<Loop>());
    Loop& loop = *loops_.back();
    loop.epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (loop.epoll_fd < 0) return Errno("epoll_create1");
    loop.wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop.wake_fd < 0) return Errno("eventfd");
    ODE_RETURN_IF_ERROR(Watch(loop.epoll_fd, loop.wake_fd, "wake"));
  }
  ODE_RETURN_IF_ERROR(Watch(loops_[0]->epoll_fd, listen_fd_, "listen"));
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, &l = *loop] { Run(l); });
  }
  return Status::OK();
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true);
  // Each loop answers its parked requests, tears its sessions down and
  // flushes on its own thread (Drain), then exits.
  for (auto& loop : loops_) Wake(*loop);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) {
    {
      // Connections dealt to a loop after its last adoption.
      MutexLock lock(loop->mu);
      for (const int fd : loop->handoff) close(fd);
      loop->handoff.clear();
    }
    if (loop->wake_fd >= 0) close(loop->wake_fd);
    if (loop->epoll_fd >= 0) close(loop->epoll_fd);
    loop->wake_fd = loop->epoll_fd = -1;
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

void Server::Wake(Loop& loop) {
  const uint64_t one = 1;
  // A full eventfd counter already guarantees a wakeup; nothing to handle.
  ssize_t ignored = write(loop.wake_fd, &one, sizeof(one));
  (void)ignored;
}

// ---------------------------------------------------------------------------
// Event loop (everything below runs on the loop's own thread)
// ---------------------------------------------------------------------------

void Server::Run(Loop& loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load()) {
    const int n = epoll_wait(loop.epoll_fd, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      ODE_LOG_ERROR << "ode_server epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      if (fd == loop.wake_fd) {
        uint64_t drained = 0;
        ssize_t ignored = read(loop.wake_fd, &drained, sizeof(drained));
        (void)ignored;
        std::vector<int> adopted;
        {
          MutexLock lock(loop.mu);
          adopted.swap(loop.handoff);
        }
        for (const int conn_fd : adopted) Adopt(loop, conn_fd);
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // Closed earlier in this pass.
      Conn& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(loop, conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) QueueFlush(loop, conn);
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(loop, conn);
    }
    // One write per connection per pass, whatever number of responses it
    // gathered.  Flushing may close a connection, and a close may run
    // parked requests that queue further flushes: hence the index loop.
    for (size_t i = 0; i < loop.to_flush.size(); ++i) {
      auto it = loop.conns.find(loop.to_flush[i]);
      if (it != loop.conns.end()) Flush(loop, *it->second);
    }
    loop.to_flush.clear();
  }
  Drain(loop);
}

void Server::HandleAccept() {
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    // ode_lint: allow(unchecked-cast) POSIX sockaddr idiom, sizeof-bounded.
    const int fd = accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                           &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      ODE_LOG_ERROR << "ode_server accept: " << std::strerror(errno);
      return;
    }
    const int one = 1;
    // Pipelined request/response traffic is latency-bound; Nagle only adds
    // stalls.  Best-effort (the connection works without it).
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Loop& target = *loops_[next_conn_++ % loops_.size()];
    if (&target == loops_[0].get()) {
      Adopt(target, fd);
      continue;
    }
    {
      MutexLock lock(target.mu);
      target.handoff.push_back(fd);
    }
    Wake(target);
  }
}

void Server::Adopt(Loop& loop, int fd) {
  Status watched = Watch(loop.epoll_fd, fd, "add conn");
  if (!watched.ok()) {
    ODE_LOG_ERROR << "ode_server " << watched.message();
    close(fd);
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  loop.conns.emplace(fd, std::move(conn));
  accepted_->Increment();
  open_gauge_->Add(1);
  open_conns_.fetch_add(1);
}

void Server::HandleReadable(Loop& loop, Conn& conn) {
  // One read per readiness event: level-triggered epoll reports whatever is
  // left, so a flooding client can't monopolise the loop and rbuf stays
  // bounded by what one read returns plus one partial frame.
  char buf[64 * 1024];
  const ssize_t got = read(conn.fd, buf, sizeof(buf));
  if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  if (got <= 0) {  // Orderly EOF or a dead peer.
    CloseConn(loop, conn);
    return;
  }
  // A shed connection's input no longer matters; it is swallowed so the
  // peer's sends don't stall while the shed error drains toward it.
  if (conn.shed) return;
  bytes_in_->Add(static_cast<uint64_t>(got));
  conn.rbuf.append(buf, static_cast<size_t>(got));

  Slice input(conn.rbuf);
  while (!conn.shed) {
    Slice frame;
    std::string frame_error;
    const FrameResult r =
        ExtractFrame(&input, &frame, options_.max_frame_bytes, &frame_error);
    if (r == FrameResult::kNeedMore) break;
    if (r == FrameResult::kError) {
      protocol_errors_->Increment();
      ShedConn(loop, conn, Request{}, WireStatus::kProtocolError, frame_error);
      break;
    }
    Request req;
    Status decoded = DecodeRequest(frame, &req);
    if (!decoded.ok()) {
      protocol_errors_->Increment();
      ShedConn(loop, conn, req, WireStatus::kProtocolError, decoded.message());
      break;
    }
    Submit(loop, conn, std::move(req));
  }
  if (conn.shed) {
    conn.rbuf.clear();
  } else {
    conn.rbuf.erase(0, conn.rbuf.size() - input.size());
  }
}

void Server::Submit(Loop& loop, Conn& conn, Request req) {
  if (loop.txn_owner != nullptr && loop.txn_owner != &conn) {
    if (conn.parked.size() >= options_.max_pipeline) {
      shed_pipeline_->Increment();
      ShedConn(loop, conn, req, WireStatus::kBackpressure,
               "pipeline cap (" + std::to_string(options_.max_pipeline) +
                   " requests parked behind a transaction) exceeded");
      return;
    }
    if (conn.parked.empty()) loop.waiting.push_back(&conn);
    conn.parked.push_back(std::move(req));
    parked_gauge_->Add(1);
    return;
  }
  Execute(loop, conn, req);
  RunParked(loop);
}

void Server::Execute(Loop& loop, Conn& conn, const Request& req) {
  const Response resp = dispatcher_->Dispatch(req, conn.session);
  if (conn.session.in_txn()) {
    loop.txn_owner = &conn;
  } else if (loop.txn_owner == &conn) {
    loop.txn_owner = nullptr;
  }
  Respond(loop, conn, resp);
}

void Server::RunParked(Loop& loop) {
  // Only the transaction's owner could have run meanwhile, so a waiting
  // connection's parked requests run in order until they are gone; if one
  // of them opens a transaction, the rest of its own still run.
  while (loop.txn_owner == nullptr && !loop.waiting.empty()) {
    Conn& conn = *loop.waiting.front();
    loop.waiting.pop_front();
    while (!conn.parked.empty()) {
      const Request req = std::move(conn.parked.front());
      conn.parked.pop_front();
      parked_gauge_->Add(-1);
      Execute(loop, conn, req);
    }
  }
}

void Server::Respond(Loop& loop, Conn& conn, const Response& resp) {
  const size_t before = conn.outbox.size();
  EncodeResponseFrame(resp, &conn.outbox);
  if (conn.outbox.size() > options_.max_outbox_bytes && !conn.shed) {
    // Slow consumer: it requested more than it is reading.  Replace the
    // overflowing response with a typed shed error and close after the
    // buffered bytes drain.
    conn.outbox.resize(before);
    shed_slow_consumer_->Increment();
    Request as_requested;
    as_requested.op = resp.op;
    as_requested.request_id = resp.request_id;
    ShedConn(loop, conn, as_requested, WireStatus::kBackpressure,
             "outbox cap (" + std::to_string(options_.max_outbox_bytes) +
                 " bytes) exceeded; read faster");
    return;
  }
  QueueFlush(loop, conn);
}

void Server::ShedConn(Loop& loop, Conn& conn, const Request& req,
                      WireStatus ws, const std::string& message) {
  conn.shed = true;
  DropParked(loop, conn);
  EncodeResponseFrame(ErrorResponseFor(req, ws, message), &conn.outbox);
  QueueFlush(loop, conn);
}

void Server::DropParked(Loop& loop, Conn& conn) {
  if (conn.parked.empty()) return;
  parked_gauge_->Add(-static_cast<int64_t>(conn.parked.size()));
  conn.parked.clear();
  loop.waiting.erase(
      std::remove(loop.waiting.begin(), loop.waiting.end(), &conn),
      loop.waiting.end());
}

void Server::QueueFlush(Loop& loop, Conn& conn) {
  if (conn.flush_queued) return;
  conn.flush_queued = true;
  loop.to_flush.push_back(conn.fd);
}

bool Server::WriteOutbox(Conn& conn) {
  while (!conn.outbox.empty()) {
    const ssize_t wrote =
        write(conn.fd, conn.outbox.data(), conn.outbox.size());
    if (wrote > 0) {
      bytes_out_->Add(static_cast<uint64_t>(wrote));
      conn.outbox.erase(0, static_cast<size_t>(wrote));
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

void Server::Flush(Loop& loop, Conn& conn) {
  conn.flush_queued = false;
  if (!WriteOutbox(conn) ||  // Peer is gone; drop the rest.
      (conn.outbox.empty() && conn.shed)) {
    CloseConn(loop, conn);
    return;
  }
  const bool want_write = !conn.outbox.empty();
  if (want_write == conn.write_armed) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  if (epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) < 0) {
    ODE_LOG_ERROR << "ode_server epoll_ctl(mod): " << std::strerror(errno);
    return;
  }
  conn.write_armed = want_write;
}

void Server::CloseConn(Loop& loop, Conn& conn) {
  const int fd = conn.fd;
  epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  // Parked requests die with the connection: run later, a parked TxnBegin
  // would open a transaction no client can ever end.
  DropParked(loop, conn);
  // The session (cursors, possibly an open transaction) dies on this, its
  // own thread.
  dispatcher_->CloseSession(conn.session);
  const bool released = loop.txn_owner == &conn;
  if (released) loop.txn_owner = nullptr;
  loop.conns.erase(fd);
  closed_count_->Increment();
  open_gauge_->Add(-1);
  open_conns_.fetch_sub(1);
  if (released) RunParked(loop);
}

void Server::Drain(Loop& loop) {
  loop.waiting.clear();  // Parked requests are answered, never run, now.
  while (!loop.conns.empty()) {
    Conn& conn = *loop.conns.begin()->second;
    for (const Request& req : conn.parked) {
      EncodeResponseFrame(ErrorResponseFor(req, WireStatus::kShuttingDown,
                                           "server stopping"),
                          &conn.outbox);
    }
    DropParked(loop, conn);
    WriteOutbox(conn);  // Best-effort.
    CloseConn(loop, conn);
  }
}

}  // namespace net
}  // namespace ode
