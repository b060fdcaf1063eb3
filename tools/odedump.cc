// odedump: inspect an Ode database from the command line.
//
// Usage:
//   odedump <db-path> [command]
//
// Commands:
//   summary   (default) object/version/type counts and storage stats
//   objects   every object with header fields
//   graph     the version graph of every object (derived-from + temporal)
//   types     the registered type table
//   check     run the full consistency check (exit 1 on violations)
//   verify    recovery-time verification of a closed database: report what
//             WAL recovery did, then cross-check headers, version metadata,
//             and the temporal/derived-from chains (exit 1 on violations)
//   vacuum    compact the catalog B+trees
//   storage   physical page/record statistics + cache counters
//   caches    read every version twice, report read-cache hit rates
//   stats     read every version once, dump the full metrics registry
//             (--format=text|json|prom selects the rendering)
//   trace     read every version once, emit Chrome trace_event JSON
//             (--out <file> writes to a file instead of stdout)
//   diag      list the flight-recorder dumps (DIAGNOSTICS-<seq>.json) and
//             pretty-print the newest (or --file <name>); works without
//             opening the database, so it runs even when opening cannot
//   health    health verdict; exit code IS the state (0 ok, 1 degraded,
//             2 poisoned/unopenable)

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include <algorithm>
#include <map>

#include "core/check.h"
#include "core/cursor.h"
#include "core/database.h"
#include "core/diagnostics.h"
#include "policy/history.h"
#include "storage/env.h"
#include "storage/payload_store.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace {

constexpr char kUsage[] =
    "usage: odedump <db-path> "
    "[summary|objects|graph|types|check|verify|vacuum|storage|caches"
    "|stats [--format=text|json|prom]|trace [--out <file>]"
    "|diag [--file <name>]|health]\n"
    "<db-path> must be an existing Ode database directory (containing "
    "data.odb)\n";

int Fail(const ode::Status& status) {
  std::fprintf(stderr, "odedump: %s\n", status.ToString().c_str());
  return 1;
}

int Summary(ode::Database& db) {
  uint64_t objects = 0, versions = 0, full = 0, deltas = 0;
  uint64_t logical_bytes = 0;
  ode::ObjectCursor objs(db);
  for (; objs.Valid(); objs.Next()) {
    ++objects;
    versions += objs.header().version_count;
    ode::VersionCursor vers(db, objs.oid());
    for (; vers.Valid(); vers.Next()) {
      if (vers.meta().kind == ode::PayloadKind::kFull) {
        ++full;
      } else {
        ++deltas;
      }
      logical_bytes += vers.meta().logical_size;
    }
    if (!vers.status().ok()) {
      std::fprintf(stderr, "warning: %s\n",
                   vers.status().ToString().c_str());
    }
  }
  if (!objs.status().ok()) return Fail(objs.status());
  uint64_t types = 0;
  ode::TypeCursor type_cursor(db);
  for (; type_cursor.Valid(); type_cursor.Next()) ++types;
  if (!type_cursor.status().ok()) return Fail(type_cursor.status());
  std::printf("objects:        %" PRIu64 "\n", objects);
  std::printf("versions:       %" PRIu64 "\n", versions);
  std::printf("  full:         %" PRIu64 "\n", full);
  std::printf("  delta:        %" PRIu64 "\n", deltas);
  std::printf("logical bytes:  %" PRIu64 "\n", logical_bytes);
  std::printf("types:          %" PRIu64 "\n", types);
  return 0;
}

int Objects(ode::Database& db) {
  ode::ObjectCursor objs(db);
  for (; objs.Valid(); objs.Next()) {
    const ode::ObjectHeader& header = objs.header();
    std::printf("object %-8" PRIu64 " type=%-4u versions=%-4u latest=v%-4u"
                " created_ts=%" PRIu64 "\n",
                objs.oid().value, header.type_id, header.version_count,
                header.latest, header.created_ts);
  }
  return objs.status().ok() ? 0 : Fail(objs.status());
}

int Graph(ode::Database& db) {
  ode::ObjectCursor objs(db);
  for (; objs.Valid(); objs.Next()) {
    const ode::ObjectId oid = objs.oid();
    auto rendered = ode::history::RenderGraph(db, oid);
    if (rendered.ok()) {
      std::printf("%s\n", rendered->c_str());
    } else {
      std::fprintf(stderr, "object %" PRIu64 ": %s\n", oid.value,
                   rendered.status().ToString().c_str());
    }
  }
  return objs.status().ok() ? 0 : Fail(objs.status());
}

int Types(ode::Database& db) {
  ode::TypeCursor types(db);
  for (; types.Valid(); types.Next()) {
    std::printf("type %-4u %s\n", types.id(), types.name().c_str());
  }
  return types.status().ok() ? 0 : Fail(types.status());
}

int Check(ode::Database& db) {
  auto report = ode::CheckDatabase(db);
  if (!report.ok()) return Fail(report.status());
  std::printf("checked %" PRIu64 " objects, %" PRIu64 " versions, %" PRIu64
              " payload bytes\n",
              report->objects_checked, report->versions_checked,
              report->payload_bytes);
  if (report->errors.empty()) {
    std::printf("database is consistent\n");
    return 0;
  }
  for (const std::string& error : report->errors) {
    std::printf("VIOLATION: %s\n", error.c_str());
  }
  return 1;
}

// Recovery-time verification of a (previously closed) database.  Opening
// already ran WAL recovery; report what it did, then cross-check the catalog
// through the cursor API: every header against its version entries, every
// version's metadata against the temporal (Tprevious/Tnext) and derived-from
// (Dprevious/Dnext) traversals, and finally the full fsck (CheckDatabase,
// which additionally materializes every payload and checks clusters).
int Verify(ode::Database& db) {
  const ode::RecoveryStats& rec = db.storage().last_recovery();
  std::printf("recovery: %" PRIu64 " committed txns replayed, %" PRIu64
              " uncommitted discarded, %" PRIu64 " page images, %" PRIu64
              " page deltas, %" PRIu64 " records scanned%s\n",
              rec.committed_txns, rec.discarded_txns, rec.images_replayed,
              rec.deltas_replayed, rec.records_scanned,
              rec.tail_truncated ? ", torn WAL tail truncated" : "");

  uint64_t violations = 0;
  const auto violation = [&](const std::string& what) {
    std::printf("VIOLATION: %s\n", what.c_str());
    ++violations;
  };

  uint64_t objects = 0, versions = 0;
  ode::ObjectCursor objs(db);
  for (; objs.Valid(); objs.Next()) {
    const ode::ObjectId oid = objs.oid();
    const ode::ObjectHeader& header = objs.header();
    ++objects;
    const std::string label = "object " + std::to_string(oid.value);

    // Header vs. the generic-reference resolution path.
    auto latest = db.Latest(oid);
    if (!latest.ok()) {
      violation(label + ": Latest() failed: " + latest.status().ToString());
    } else if (latest->vnum != header.latest) {
      violation(label + ": header.latest v" + std::to_string(header.latest) +
                " but Latest() resolves v" + std::to_string(latest->vnum));
    }

    // Walk the version entries, re-deriving the temporal chain.
    uint64_t count = 0;
    std::optional<ode::VersionId> prev;
    ode::VersionCursor vers(db, oid);
    for (; vers.Valid(); vers.Next()) {
      const ode::VersionId vid = vers.vid();
      const ode::VersionMeta& meta = vers.meta();
      ++versions;
      ++count;
      const std::string vlabel =
          label + " v" + std::to_string(vid.vnum);
      if (meta.vnum != vid.vnum) {
        violation(vlabel + ": key/meta vnum mismatch (meta says v" +
                  std::to_string(meta.vnum) + ")");
      }
      // Temporal chain: Tprevious must name the preceding live entry, and
      // the edge must invert (Tnext of the predecessor is this version).
      auto tprev = db.Tprevious(vid);
      if (!tprev.ok()) {
        violation(vlabel + ": Tprevious failed: " + tprev.status().ToString());
      } else if (*tprev != prev) {
        violation(vlabel + ": broken Tprevious link");
      } else if (prev.has_value()) {
        auto tnext = db.Tnext(*prev);
        if (!tnext.ok() || !tnext->has_value() || !(**tnext == vid)) {
          violation(vlabel + ": broken Tnext link from v" +
                    std::to_string(prev->vnum));
        }
      }
      // Derived-from tree: Dprevious must mirror the metadata, and this
      // version must appear among its parent's Dnext children.
      auto dprev = db.Dprevious(vid);
      if (!dprev.ok()) {
        violation(vlabel + ": Dprevious failed: " + dprev.status().ToString());
      } else {
        const ode::VersionNum want = meta.derived_from;
        if (want == ode::kNoVersion) {
          if (dprev->has_value()) violation(vlabel + ": spurious Dprevious");
        } else if (!dprev->has_value() || (*dprev)->vnum != want) {
          violation(vlabel + ": broken Dprevious link (expected v" +
                    std::to_string(want) + ")");
        } else {
          auto children = db.Dnext(**dprev);
          bool found = false;
          if (children.ok()) {
            for (const ode::VersionId& child : *children) {
              if (child == vid) { found = true; break; }
            }
          }
          if (!found) {
            violation(vlabel + ": missing from Dnext of v" +
                      std::to_string(want));
          }
        }
      }
      prev = vid;
    }
    if (!vers.status().ok()) return Fail(vers.status());
    if (count != header.version_count) {
      violation(label + ": header.version_count " +
                std::to_string(header.version_count) + " but " +
                std::to_string(count) + " version entries");
    }
    if (!prev.has_value()) {
      violation(label + ": no version entries at all");
    } else if (prev->vnum != header.latest) {
      violation(label + ": temporally last entry v" +
                std::to_string(prev->vnum) + " != header.latest v" +
                std::to_string(header.latest));
    }
  }
  if (!objs.status().ok()) return Fail(objs.status());
  std::printf("chains:   %" PRIu64 " objects, %" PRIu64
              " versions cross-checked\n",
              objects, versions);

  // The payload/cluster half of the story: materialize everything.  The
  // check includes the content-addressed store audit (pass 3): refcounts
  // against referencing metas, no orphan blobs, no dangling references.
  auto report = ode::CheckDatabase(db);
  if (!report.ok()) return Fail(report.status());
  for (const std::string& error : report->errors) violation(error);
  std::printf("payloads: %" PRIu64 " bytes materialized\n",
              report->payload_bytes);
  std::printf("refcounts: %" PRIu64 " blobs audited against %" PRIu64
              " version references\n",
              report->payload_blobs_checked, report->payload_refs_checked);

  if (violations > 0) {
    std::printf("verify FAILED: %" PRIu64 " violations\n", violations);
    return 1;
  }
  std::printf("verify OK\n");
  return 0;
}

int Vacuum(ode::Database& db) {
  if (ode::Status s = db.Vacuum(); !s.ok()) return Fail(s);
  std::printf("vacuum complete\n");
  return 0;
}

double HitRate(uint64_t hits, uint64_t misses) {
  const uint64_t total = hits + misses;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                static_cast<double>(total);
}

/// Counters are cumulative for this process, so for the read caches they
/// cover whatever command ran before the report (e.g. `summary` touches
/// every version).  A freshly opened database reports mostly zeros.  Each
/// stats() call below returns a coherent snapshot of the component's atomic
/// counters (pool and caches are lock-striped; the shard counts are shown).
void PrintCacheStats(ode::Database& db) {
  const ode::BufferPoolStats pool = db.storage().cache_stats();
  std::printf("buffer pool:    %" PRIu64 " hits, %" PRIu64
              " misses (%.1f%% hit rate), %" PRIu64 " evictions, %zu shards\n",
              pool.hits, pool.misses, HitRate(pool.hits, pool.misses),
              pool.evictions, db.storage().buffer_pool().shard_count());
  const ode::VersionPayloadCache& payload = db.payload_cache();
  const ode::PayloadCacheStats ps = payload.stats();
  std::printf("payload cache:  %" PRIu64 " hits, %" PRIu64
              " misses (%.1f%% hit rate), %zu shards\n",
              ps.hits, ps.misses, HitRate(ps.hits, ps.misses),
              payload.shard_count());
  std::printf("  entries:      %zu (%" PRIu64 " / %" PRIu64 " bytes)\n",
              payload.entries(), payload.bytes_in_use(),
              payload.byte_budget());
  std::printf("  evictions:    %" PRIu64 "  invalidations: %" PRIu64
              "  epoch discards: %" PRIu64 "\n",
              ps.evictions, ps.invalidations, ps.epoch_discards);
  const ode::PayloadCacheStats ls = db.latest_cache().stats();
  std::printf("latest cache:   %" PRIu64 " hits, %" PRIu64
              " misses (%.1f%% hit rate), %zu entries, %zu shards\n",
              ls.hits, ls.misses, HitRate(ls.hits, ls.misses),
              db.latest_cache().entries(), db.latest_cache().shard_count());
}

int Storage(ode::Database& db) {
  auto stats = db.GatherStorageStats();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("total pages:    %u (%u KiB)\n", stats->total_pages,
              stats->total_pages * 4);
  std::printf("  free:         %u\n", stats->free_pages);
  std::printf("  heap:         %u\n", stats->heap_pages);
  std::printf("  overflow:     %u\n", stats->overflow_pages);
  std::printf("  btree:        %u\n", stats->btree_pages);
  std::printf("live records:   %" PRIu64 "\n", stats->live_records);
  std::printf("wal bytes:      %" PRIu64 "\n", stats->wal_bytes);
  PrintCacheStats(db);
  return 0;
}

// Dereferences every version of every object once, so the metrics and trace
// commands have representative read traffic to report on.
ode::Status ReadPass(ode::Database& db) {
  ode::ObjectCursor objs(db);
  for (; objs.Valid(); objs.Next()) {
    ode::VersionCursor vers(db, objs.oid());
    for (; vers.Valid(); vers.Next()) {
      const ode::VersionId vid = vers.vid();
      auto bytes = db.ReadVersion(vid);
      if (!bytes.ok()) {
        std::fprintf(stderr, "warning: v%u of object %" PRIu64 ": %s\n",
                     vid.vnum, vid.oid.value,
                     bytes.status().ToString().c_str());
      }
    }
    if (!vers.status().ok()) {
      std::fprintf(stderr, "warning: %s\n",
                   vers.status().ToString().c_str());
    }
  }
  return objs.status();
}

// Reads every version once, then again, and reports the cache counters —
// the second pass should be served almost entirely from the payload cache.
int Caches(ode::Database& db) {
  for (int pass = 0; pass < 2; ++pass) {
    if (ode::Status s = ReadPass(db); !s.ok()) return Fail(s);
  }
  PrintCacheStats(db);
  return 0;
}

// Physical payload topology: dedupe effectiveness of the content-addressed
// store plus the shape of the delta graph.
int PrintPayloadSection(ode::Database& db) {
  // Version-side tally: chain depths and how many metas reference the store.
  uint64_t versions = 0, delta_versions = 0, hashed_refs = 0;
  uint64_t chain_depth_sum = 0, chain_depth_max = 0;
  uint64_t logical_bytes = 0;
  ode::ObjectCursor objs(db);
  for (; objs.Valid(); objs.Next()) {
    ode::VersionCursor vers(db, objs.oid());
    for (; vers.Valid(); vers.Next()) {
      const ode::VersionMeta& meta = vers.meta();
      ++versions;
      logical_bytes += meta.logical_size;
      if (meta.kind == ode::PayloadKind::kDelta) {
        ++delta_versions;
        chain_depth_sum += meta.delta_chain_len;
        chain_depth_max =
            std::max<uint64_t>(chain_depth_max, meta.delta_chain_len);
      }
      if (!meta.content_hash.IsZero()) ++hashed_refs;
    }
    if (!vers.status().ok()) return Fail(vers.status());
  }
  if (!objs.status().ok()) return Fail(objs.status());
  // Store-side tally: unique blobs, stored bytes, refcount distribution.
  uint64_t blobs = 0, stored_bytes = 0, total_refs = 0;
  std::map<uint64_t, uint64_t> refcount_histogram;
  ode::Status s = db.storage().WithReadTxn([&](ode::ReadTxn& txn) -> ode::Status {
    return db.storage().payload_store().ForEach(
        &txn,
        [&](const ode::Hash128&, const ode::PayloadStoreEntry& entry) {
          ++blobs;
          stored_bytes += entry.size;
          total_refs += entry.refcount;
          ++refcount_histogram[entry.refcount];
          return true;
        });
  });
  if (!s.ok()) return Fail(s);
  std::printf("--- payloads ---\n");
  std::printf("versions:       %" PRIu64 " (%" PRIu64 " delta, %" PRIu64
              " content-addressed)\n",
              versions, delta_versions, hashed_refs);
  std::printf("unique blobs:   %" PRIu64 " holding %" PRIu64
              " bytes (logical %" PRIu64 " bytes)\n",
              blobs, stored_bytes, logical_bytes);
  std::printf("dedupe ratio:   %.2f references/blob\n",
              blobs == 0 ? 0.0 : static_cast<double>(total_refs) /
                                     static_cast<double>(blobs));
  std::printf("chain depth:    mean %.2f, max %" PRIu64 "\n",
              delta_versions == 0
                  ? 0.0
                  : static_cast<double>(chain_depth_sum) /
                        static_cast<double>(delta_versions),
              chain_depth_max);
  std::printf("refcounts:      ");
  bool first = true;
  for (const auto& [refcount, count] : refcount_histogram) {
    std::printf("%s%" PRIu64 "x%" PRIu64, first ? "" : ", ", count, refcount);
    first = false;
  }
  std::printf("%s\n", first ? "(store empty)" : "");
  return 0;
}

// Runs one read pass, then renders the whole metrics registry: counters,
// gauges, and histogram percentiles, sorted by name.  `format` selects
// "text" (the human table below), "json" (MetricsRegistry::RenderJson), or
// "prom" (Prometheus text exposition) — the latter two reuse the library
// renderers, so scraping odedump and scraping a live process agree.
int Stats(ode::Database& db, const std::string& format) {
  if (ode::Status s = ReadPass(db); !s.ok()) return Fail(s);
  if (format == "json") {
    std::printf("%s\n", ode::MetricsRegistry::RenderJson(db.MetricsSnapshot())
                            .c_str());
    return 0;
  }
  if (format == "prom") {
    std::fputs(
        ode::MetricsRegistry::RenderPrometheusText(db.MetricsSnapshot())
            .c_str(),
        stdout);
    return 0;
  }
  if (int rc = PrintPayloadSection(db); rc != 0) return rc;
  // Group-commit health up front: the commits/fsync ratio is THE number
  // that says whether concurrent writers are actually sharing fsyncs
  // (1.00 = solo-writer discipline; higher = batching is working), and a
  // non-zero async-pending gauge means acked-but-not-yet-durable commits
  // are still in flight.
  {
    const ode::VersionStats vs = db.stats();
    const double ratio =
        vs.group_commit_fsyncs == 0
            ? 0.0
            : static_cast<double>(vs.group_commit_commits) /
                  static_cast<double>(vs.group_commit_fsyncs);
    std::printf("--- group commit ---\n");
    std::printf("batches:        %" PRIu64 "\n", vs.group_commit_batches);
    std::printf("commits:        %" PRIu64 "\n", vs.group_commit_commits);
    std::printf("fsyncs:         %" PRIu64 " (%.2f commits/fsync)\n",
                vs.group_commit_fsyncs, ratio);
    std::printf("async pending:  %" PRIu64 "\n", vs.async_pending);
  }
  const ode::MetricsRegistry::Snapshot snap = db.MetricsSnapshot();
  std::printf("--- counters ---\n");
  for (const auto& [name, value] : snap.counters) {
    std::printf("%-32s %12" PRIu64 "\n", name.c_str(), value);
  }
  std::printf("--- gauges ---\n");
  for (const auto& [name, value] : snap.gauges) {
    std::printf("%-32s %12" PRId64 "\n", name.c_str(), value);
  }
  std::printf("--- histograms (ns) ---\n");
  std::printf("%-32s %10s %10s %10s %10s %10s\n", "name", "count", "p50",
              "p90", "p99", "max");
  for (const auto& [name, h] : snap.histograms) {
    std::printf("%-32s %10" PRIu64 " %10.0f %10.0f %10.0f %10" PRIu64 "\n",
                name.c_str(), h.count, h.p50, h.p90, h.p99, h.max);
  }
  return 0;
}

// Runs one read pass with trace sampling forced on (main() opened the
// database with trace_sample_every = 1), then drains every thread's ring
// buffer into Chrome trace_event JSON (load via chrome://tracing or
// https://ui.perfetto.dev).
int Trace(ode::Database& db, const std::string& out_path) {
  if (ode::Status s = ReadPass(db); !s.ok()) return Fail(s);
  const std::string json = db.tracer().DrainToChromeJson();
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "odedump: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.put('\n');
  out.close();
  if (!out) {
    std::fprintf(stderr, "odedump: short write to %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu bytes of trace JSON to %s\n",
               json.size() + 1, out_path.c_str());
  return 0;
}

// Structural JSON re-indenter (no parse, no validation): newline + indent
// after every container open and comma, matching un-indent before close.
// String contents (with escapes) pass through untouched.
std::string PrettyPrintJson(const std::string& json) {
  std::string out;
  out.reserve(json.size() * 2);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  const auto newline = [&] {
    out.push_back('\n');
    out.append(static_cast<size_t>(depth) * 2, ' ');
  };
  for (char c : json) {
    if (in_string) {
      out.push_back(c);
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        out.push_back(c);
        break;
      case '{':
      case '[':
        out.push_back(c);
        ++depth;
        newline();
        break;
      case '}':
      case ']':
        --depth;
        newline();
        out.push_back(c);
        break;
      case ',':
        out.push_back(c);
        newline();
        break;
      case ':':
        out.append(": ");
        break;
      default:
        out.push_back(c);
        break;
    }
  }
  return out;
}

// Lists the flight-recorder dumps and pretty-prints one (the newest, or
// --file <name>).  Deliberately does NOT open the database: the dumps are
// post-mortem artifacts and must stay readable when opening cannot.
int Diag(const std::string& path, const std::string& file) {
  ode::Env* env = ode::Env::Posix();
  auto dumps = ode::ListDiagnosticsDumps(env, path);
  if (!dumps.ok()) return Fail(dumps.status());
  if (dumps->empty() && file.empty()) {
    std::printf("no diagnostics dumps in %s\n", path.c_str());
    return 0;
  }
  std::printf("--- dumps ---\n");
  for (const auto& [seq, name] : *dumps) {
    uint64_t size = 0;
    if (auto f = env->OpenFile(path + "/" + name); f.ok()) {
      if (auto sz = (*f)->Size(); sz.ok()) size = *sz;
    }
    std::printf("seq %-6" PRIu64 " %-28s %8" PRIu64 " bytes\n", seq,
                name.c_str(), size);
  }
  const std::string chosen = file.empty() ? dumps->back().second : file;
  auto contents = ode::ReadDiagnosticsFile(env, path + "/" + chosen);
  if (!contents.ok()) return Fail(contents.status());
  std::printf("--- %s ---\n%s\n", chosen.c_str(),
              PrettyPrintJson(*contents).c_str());
  return 0;
}

// Health verdict with the state as the exit code (0 ok / 1 degraded /
// 2 poisoned; main() returns 2 itself when the database cannot be opened).
// Poison is runtime state — a freshly opened database is never poisoned —
// so a dump whose trigger was "poison" reports the PREVIOUS run's failure
// as a degradation until the dumps are cleared.
int Health(ode::Database& db, const std::string& path) {
  ode::HealthReport report = db.HealthCheck();
  ode::Env* env = ode::Env::Posix();
  if (auto dumps = ode::ListDiagnosticsDumps(env, path); dumps.ok()) {
    for (const auto& [seq, name] : *dumps) {
      auto contents = ode::ReadDiagnosticsFile(env, path + "/" + name);
      if (contents.ok() &&
          contents->find("\"trigger\":\"poison\"") != std::string::npos) {
        if (report.state == ode::HealthState::kOk) {
          report.state = ode::HealthState::kDegraded;
        }
        report.reasons.push_back("previous run poisoned (see " + name + ")");
      }
    }
  }
  std::printf("state:           %s\n", ode::HealthStateName(report.state));
  std::printf("checkpointer lag: %" PRIu64 " us\n", report.checkpointer_lag_us);
  std::printf("wal backlog:     %" PRIu64 " bytes\n", report.wal_backlog_bytes);
  std::printf("async pending:   %" PRId64 "\n", report.async_pending);
  for (const std::string& reason : report.reasons) {
    std::printf("reason: %s\n", reason.c_str());
  }
  return static_cast<int>(report.state);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  // Validate the command (and its flags) before opening anything: opening
  // would CREATE a database at a mistyped path, and the trace command needs
  // every event sampled, which is an open-time option.
  const std::string command = argc >= 3 ? argv[2] : "summary";
  const bool known_command =
      command == "summary" || command == "objects" || command == "graph" ||
      command == "types" || command == "check" || command == "verify" ||
      command == "vacuum" || command == "storage" || command == "caches" ||
      command == "stats" || command == "trace" || command == "diag" ||
      command == "health";
  if (!known_command) {
    std::fprintf(stderr, "odedump: unknown command '%s'\n", command.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  std::string trace_out;
  std::string stats_format = "text";
  std::string diag_file;
  for (int i = 3; i < argc; ++i) {
    if (command == "trace" && std::strcmp(argv[i], "--out") == 0 &&
        i + 1 < argc) {
      trace_out = argv[++i];
    } else if (command == "stats" &&
               std::strncmp(argv[i], "--format=", 9) == 0) {
      stats_format = argv[i] + 9;
      if (stats_format != "text" && stats_format != "json" &&
          stats_format != "prom") {
        std::fprintf(stderr, "odedump: unknown format '%s'\n",
                     stats_format.c_str());
        std::fputs(kUsage, stderr);
        return 2;
      }
    } else if (command == "diag" && std::strcmp(argv[i], "--file") == 0 &&
               i + 1 < argc) {
      diag_file = argv[++i];
    } else {
      std::fprintf(stderr, "odedump: unknown flag '%s'\n", argv[i]);
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  const std::string path = argv[1];
  // diag never opens the database: dumps must stay readable post-mortem.
  if (command == "diag") return Diag(path, diag_file);
  if (!ode::Env::Posix()->FileExists(path + "/data.odb")) {
    std::fprintf(stderr, "odedump: no Ode database at '%s' (missing %s)\n",
                 path.c_str(), (path + "/data.odb").c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }

  ode::DatabaseOptions options;
  options.storage.path = path;
  if (command == "stats") {
    // Sample every dereference so the latency histograms reflect the whole
    // read pass, not 1-in-64 of it.
    options.metrics_sample_every = 1;
  }
  if (command == "trace") {
    options.trace_sample_every = 1;
    options.trace_buffer_events = 1 << 16;
    // Dereference spans ride the metrics sampler's decision (see
    // Database::ReadLatest), so sample every call here too.
    options.metrics_sample_every = 1;
  }
  auto db = ode::Database::Open(options);
  if (!db.ok()) {
    // For the health verdict an unopenable database is the worst state.
    if (command == "health") {
      std::fprintf(stderr, "odedump: %s\n", db.status().ToString().c_str());
      std::printf("state:           unopenable\n");
      return 2;
    }
    return Fail(db.status());
  }

  if (command == "health") return Health(**db, path);
  if (command == "summary") return Summary(**db);
  if (command == "objects") return Objects(**db);
  if (command == "graph") return Graph(**db);
  if (command == "types") return Types(**db);
  if (command == "check") return Check(**db);
  if (command == "verify") return Verify(**db);
  if (command == "vacuum") return Vacuum(**db);
  if (command == "storage") return Storage(**db);
  if (command == "caches") return Caches(**db);
  if (command == "stats") return Stats(**db, stats_format);
  return Trace(**db, trace_out);
}
