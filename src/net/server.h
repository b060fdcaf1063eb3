#ifndef ODE_NET_SERVER_H_
#define ODE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "net/dispatcher.h"
#include "net/wire.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace ode {
namespace net {

/// Configuration of one ode_server instance.
struct ServerOptions {
  /// Address to bind.  Tests use 127.0.0.1 with port 0 (ephemeral; read the
  /// bound port back via Server::port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Event loops, each a thread that reads, dispatches and answers the
  /// requests of the connections it owns.  Legal: >= 1.  A connection stays
  /// on one loop for its whole life — that affinity is what makes sessions
  /// (cursors, transactions) sound, see Session.
  int workers = 4;

  /// Hard cap on one frame's length prefix; larger prefixes are a protocol
  /// error and the connection is closed (never buffered toward a hostile
  /// 4-GiB "frame").
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Pipelining bound: requests one connection may have parked behind
  /// another session's transaction (the only requests a loop holds
  /// unanswered).  The request that overflows the cap is answered with
  /// kBackpressure and the connection is shed.  Legal: >= 1.
  size_t max_pipeline = 256;

  /// Bound on one connection's buffered response bytes.  A client that
  /// stops reading while requesting more (the classic slow-consumer attack
  /// on a pipelined server) is shed with kBackpressure when its outbox
  /// would exceed this.  Legal: >= 1.
  size_t max_outbox_bytes = 32u << 20;

  /// listen(2) backlog.
  int listen_backlog = 128;

  /// Checks every knob; InvalidArgument naming the first bad field.
  Status Validate() const;
};

/// The Ode network front end: `workers` event loops, each owning its own
/// epoll set and connections and running every request to completion on its
/// thread (read, decode, Dispatcher, reply).  Loop 0 also accepts and deals
/// connections out round-robin; a connection's loop is its session's home.
///
/// Lifecycle: Start() binds/listens and spins up the loops; Stop() (or the
/// destructor) sheds every connection — parked requests are answered with
/// kShuttingDown, open transactions aborted, buffered responses flushed
/// best-effort — then joins.  The Database must outlive the Server.
///
/// DESIGN.md §4i documents the threading and backpressure model.
class Server {
 public:
  static StatusOr<std::unique_ptr<Server>> Start(Database& db,
                                                 const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Idempotent; blocks until every thread is joined.
  void Stop();

  /// The bound TCP port (the ephemeral pick when options.port was 0).
  uint16_t port() const { return port_; }

  /// Live connection count (also exported as gauge server.open_connections).
  uint64_t open_connections() const { return open_conns_.load(); }

 private:
  /// One accepted connection, owned outright by its loop's thread.
  struct Conn {
    int fd = -1;
    std::string rbuf;
    std::string outbox;
    Session session;
    /// Requests held behind another session's transaction, in arrival order.
    std::deque<Request> parked;
    /// Set once the connection stops accepting input: reads are discarded
    /// while the last responses drain, then it closes.
    bool shed = false;
    bool write_armed = false;  ///< EPOLLOUT is in the epoll interest.
    bool flush_queued = false;  ///< fd is on the loop's `to_flush` list.
  };

  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: accepted fds waiting, or Stop().
    std::thread thread;

    /// Accepted fds dealt to this loop by loop 0, adopted on the next wake.
    Mutex mu;
    std::vector<int> handoff ODE_GUARDED_BY(mu);

    // Everything below belongs to the loop's thread.
    std::unordered_map<int, std::unique_ptr<Conn>> conns;  ///< By fd.
    /// Transaction gate.  A Database transaction is thread-local state, so
    /// while `txn_owner` holds one, other connections' requests must not run
    /// on this thread (they would join the foreign transaction): they park
    /// on their Conn, and `waiting` lists those Conns in parking order.
    Conn* txn_owner = nullptr;
    std::deque<Conn*> waiting;
    /// fds with fresh outbox bytes, flushed at the end of each epoll pass.
    std::vector<int> to_flush;
  };

  Server() = default;

  Status Init(Database& db, const ServerOptions& options);
  void Run(Loop& loop);

  void HandleAccept();
  void Adopt(Loop& loop, int fd);
  /// One read(2); decodes and runs (or parks) every complete request.
  void HandleReadable(Loop& loop, Conn& conn);
  /// Runs `req` now, or parks it behind another session's transaction.
  void Submit(Loop& loop, Conn& conn, Request req);
  /// Dispatches on this thread and queues the reply; tracks the txn owner.
  void Execute(Loop& loop, Conn& conn, const Request& req);
  /// Runs parked requests, connection by connection, until the queue is
  /// empty or one of them opens a transaction.
  void RunParked(Loop& loop);
  /// Appends an encoded response (or, past the outbox cap, a typed
  /// slow-consumer error) and queues the conn for flushing.
  void Respond(Loop& loop, Conn& conn, const Response& resp);
  /// Appends an error frame, drops parked work and closes after the flush.
  void ShedConn(Loop& loop, Conn& conn, const Request& req, WireStatus ws,
                const std::string& message);
  void DropParked(Loop& loop, Conn& conn);
  void QueueFlush(Loop& loop, Conn& conn);
  /// Writes what the socket takes of the outbox; false when the peer is gone.
  bool WriteOutbox(Conn& conn);
  /// Non-blocking flush; closes the connection when the peer is gone, or
  /// when a shed connection has drained.  Touches the epoll interest only
  /// when EPOLLOUT must be switched on or off.
  void Flush(Loop& loop, Conn& conn);
  /// Closes the socket and tears the session down on this thread.
  void CloseConn(Loop& loop, Conn& conn);
  /// Stop() epilogue on the loop's own thread.
  void Drain(Loop& loop);
  void Wake(Loop& loop);

  ServerOptions options_;
  std::unique_ptr<Dispatcher> dispatcher_;

  int listen_fd_ = -1;  ///< In loop 0's epoll set.
  uint16_t port_ = 0;
  uint64_t next_conn_ = 0;  ///< Loop 0 only: round-robin placement.

  std::vector<std::unique_ptr<Loop>> loops_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> open_conns_{0};

  // Server-level instruments (the dispatcher owns the per-op histograms).
  Counter* accepted_ = nullptr;
  Counter* closed_count_ = nullptr;
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Counter* protocol_errors_ = nullptr;
  Counter* shed_pipeline_ = nullptr;
  Counter* shed_slow_consumer_ = nullptr;
  Gauge* open_gauge_ = nullptr;
  Gauge* parked_gauge_ = nullptr;
};

}  // namespace net
}  // namespace ode

#endif  // ODE_NET_SERVER_H_
