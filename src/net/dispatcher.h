#ifndef ODE_NET_DISPATCHER_H_
#define ODE_NET_DISPATCHER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <variant>

#include "core/cursor.h"
#include "core/database.h"
#include "net/wire.h"
#include "util/metrics.h"

namespace ode {
namespace net {

/// Per-connection server-side state: the cursors a session has open, and
/// whether it holds the (database-wide, session-exclusive) transaction.
///
/// A Session is single-threaded BY CONTRACT: the server runs each
/// connection's requests on the one event loop that owns it
/// (src/net/server.cc), the loopback transport runs on its caller's thread.  This matters twice over — catalog cursors are
/// single-threaded objects, and Database transactions are thread-affine
/// (Begin/operations/Commit must share a thread), so session->thread
/// affinity is exactly what makes txn-over-the-wire sound.
class Session {
 public:
  /// Open cursors per session are bounded: a client that opens cursors in a
  /// loop without closing them is a resource leak, not a workload.
  static constexpr size_t kMaxCursors = 64;

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool in_txn() const { return in_txn_; }

  /// Requests this session has had dispatched / answered with an error.
  uint64_t requests = 0;
  uint64_t errors = 0;

 private:
  friend class Dispatcher;

  using AnyCursor =
      std::variant<std::unique_ptr<ObjectCursor>, std::unique_ptr<VersionCursor>,
                   std::unique_ptr<TypeCursor>, std::unique_ptr<ClusterCursor>>;

  std::map<uint64_t, AnyCursor> cursors_;
  uint64_t next_cursor_id_ = 1;
  bool in_txn_ = false;
};

/// The single entry point mapping decoded wire requests onto the Database
/// API.  The network server, the in-process loopback transport, and any
/// future replica-replay path all dispatch through this class — there is
/// deliberately no second door into Database for remote operations, so the
/// wire surface can't drift from what a local caller would get.
///
/// Thread model: Dispatch() may be called concurrently from many threads
/// with DIFFERENT sessions (the Database itself is multi-reader /
/// multi-writer); calls sharing one Session must be externally serialized
/// and, while that session holds a transaction, must stay on one thread
/// (see Session).  The dispatcher itself keeps no per-request mutable state.
class Dispatcher {
 public:
  explicit Dispatcher(Database& db);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Executes `req` against the database, using and mutating `session`.
  /// Never fails at the C++ level: every outcome, including invalid
  /// requests, comes back as a Response carrying a WireStatus.
  Response Dispatch(const Request& req, Session& session);

  /// Tears a session down: aborts its open transaction (if any) and drops
  /// its cursors.  Must run on the session's thread (transaction affinity).
  /// Called by the server when a connection closes; safe to call twice.
  void CloseSession(Session& session);

  Database& db() { return *db_; }

 private:
  Response DoCursorOpen(const Request& req, Session& session);
  Response DoCursorNext(const Request& req, Session& session);

  Database* db_;

  /// Dispatcher-level instruments (in the database's registry, so `odedump
  /// stats`/`ode_top`/METRICS.json see server traffic with zero extra
  /// wiring).  Latency histograms are split by op family: fine-grained
  /// enough to see "derefs are fast, txns are slow", coarse enough to stay
  /// readable in a stats dump.
  Counter* requests_ = nullptr;
  Counter* request_errors_ = nullptr;
  Histogram* deref_ns_ = nullptr;   ///< kDeref* (incl. batch), kLatest.
  Histogram* mutate_ns_ = nullptr;  ///< kPnew/kNewVersion*/kUpdate*/kDelete*.
  Histogram* cursor_ns_ = nullptr;  ///< kCursor*.
  Histogram* txn_ns_ = nullptr;     ///< kTxn*.
  Histogram* admin_ns_ = nullptr;   ///< kPing/kStats/type ops/kVersionsOf.
};

}  // namespace net
}  // namespace ode

#endif  // ODE_NET_DISPATCHER_H_
