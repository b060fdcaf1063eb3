// ode_server: serve an Ode database over the binary wire protocol.
//
// Usage:
//   ode_server <db-path> [--host H] [--port P] [--workers N]
//              [--max-pipeline N] [--print-port]
//
// Opens (creating if missing) the database at <db-path>, binds, and serves
// until SIGINT/SIGTERM.  --workers sets the number of event loops (threads
// that each run their own connections' requests to completion);
// --max-pipeline caps the requests one connection may have parked behind
// another session's transaction.  --port 0 picks an ephemeral port;
// --print-port writes the bound port to stdout as a bare line (and flushes)
// so scripts can connect without racing the log output.  DESIGN.md §4i documents the
// protocol; ode_client is the matching CLI.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <semaphore.h>

#include "core/database.h"
#include "net/server.h"

namespace {

constexpr char kUsage[] =
    "usage: ode_server <db-path> [--host H] [--port P] [--workers N]\n"
    "                  [--max-pipeline N] [--print-port]\n"
    "  --workers N       event loops serving connections (default 4)\n"
    "  --max-pipeline N  requests a connection may park behind another\n"
    "                    session's transaction (default 256)\n";

// async-signal-safe shutdown latch: the handler posts, main waits.
sem_t g_shutdown;

void HandleSignal(int) { sem_post(&g_shutdown); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string path = argv[1];
  ode::net::ServerOptions options;
  bool print_port = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ode_server: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      options.host = value();
    } else if (arg == "--port") {
      options.port = static_cast<uint16_t>(std::atoi(value()));
    } else if (arg == "--workers") {
      options.workers = std::atoi(value());
    } else if (arg == "--max-pipeline") {
      options.max_pipeline = static_cast<size_t>(std::atol(value()));
    } else if (arg == "--print-port") {
      print_port = true;
    } else {
      std::fprintf(stderr, "ode_server: unknown flag %s\n%s", arg.c_str(),
                   kUsage);
      return 2;
    }
  }

  ode::DatabaseOptions db_options;
  db_options.storage.path = path;
  auto db = ode::Database::Open(db_options);
  if (!db.ok()) {
    std::fprintf(stderr, "ode_server: %s\n", db.status().ToString().c_str());
    return 1;
  }

  auto server = ode::net::Server::Start(**db, options);
  if (!server.ok()) {
    std::fprintf(stderr, "ode_server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  if (print_port) {
    std::printf("%u\n", (*server)->port());
    std::fflush(stdout);
  }
  std::fprintf(stderr,
               "ode_server: serving %s on %s:%u (%d event loops)\n",
               path.c_str(), options.host.c_str(), (*server)->port(),
               options.workers);

  sem_init(&g_shutdown, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (sem_wait(&g_shutdown) != 0 && errno == EINTR) {
  }

  std::fprintf(stderr, "ode_server: shutting down\n");
  (*server)->Stop();
  return 0;
}
