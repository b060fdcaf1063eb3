#include "core/diagnostics.h"

#include <algorithm>
#include <cstdio>

#include "core/database.h"
#include "storage/env.h"
#include "util/event_log.h"
#include "util/json.h"
#include "util/logging.h"

namespace ode {

std::string DiagnosticsFileName(uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "DIAGNOSTICS-%06llu.json",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool ParseDiagnosticsFileName(std::string_view name, uint64_t* seq) {
  constexpr std::string_view kSuffix = ".json";
  const size_t prefix = kDiagnosticsFilePrefix.size();
  if (name.size() <= prefix + kSuffix.size()) return false;
  if (name.substr(0, prefix) != kDiagnosticsFilePrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  const std::string_view digits =
      name.substr(prefix, name.size() - prefix - kSuffix.size());
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListDiagnosticsDumps(
    Env* env, const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> dumps;
  auto names = env->ListDir(dir);
  // A directory that does not exist yet (first dump ever) is an empty list;
  // there is no portable missing-vs-error distinction across Envs, and the
  // dump writer creates the file regardless.
  if (!names.ok()) return dumps;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseDiagnosticsFileName(name, &seq)) dumps.emplace_back(seq, name);
  }
  std::sort(dumps.begin(), dumps.end());
  return dumps;
}

StatusOr<std::string> ReadDiagnosticsFile(Env* env, const std::string& path) {
  auto file = env->OpenFile(path);
  if (!file.ok()) return file.status();
  auto size = (*file)->Size();
  if (!size.ok()) return size.status();
  std::string scratch;
  Slice result;
  ODE_RETURN_IF_ERROR((*file)->Read(0, *size, &scratch, &result));
  return std::string(result.data(), result.size());
}

namespace {

/// Writes `contents` to `path` atomically: temp file, sync, rename.  Readers
/// (odedump, ode_top) never observe a torn document.
Status WriteFileAtomic(Env* env, const std::string& path,
                       const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    auto file = env->OpenFile(tmp);
    if (!file.ok()) return file.status();
    ODE_RETURN_IF_ERROR((*file)->Truncate(0));
    ODE_RETURN_IF_ERROR((*file)->Append(Slice(contents)));
    ODE_RETURN_IF_ERROR((*file)->Sync());
  }
  return env->RenameFile(tmp, path);
}

void AppendHealthJson(JsonWriter& w, const HealthReport& health) {
  w.BeginObject();
  w.KV("state", HealthStateName(health.state));
  w.Key("reasons");
  w.BeginArray();
  for (const std::string& reason : health.reasons) w.Value(reason);
  w.EndArray();
  w.KV("checkpointer_lag_us", health.checkpointer_lag_us);
  w.KV("wal_backlog_bytes", health.wal_backlog_bytes);
  w.KV("async_pending", health.async_pending);
  w.EndObject();
}

}  // namespace

// Defined here (not database.cc) with the rest of the dump machinery; the
// declaration lives on Database because the document reaches into every
// layer the database owns.
StatusOr<std::string> Database::DumpDiagnostics(std::string_view trigger) {
  // One dump at a time: seq allocation scans the directory, and interleaved
  // writers would race the retention sweep.
  MutexLock lock(diag_mu_);
  Env* env = options_.storage.env != nullptr ? options_.storage.env
                                             : Env::Posix();
  const std::string& dir = options_.storage.path;
  auto existing = ListDiagnosticsDumps(env, dir);
  if (!existing.ok()) return existing.status();
  const uint64_t seq = existing->empty() ? 1 : existing->back().first + 1;

  // Journal the dump itself first: the snapshot below then carries the
  // trigger and the dump's own timestamp as its newest record, so even a
  // reader with only the journal knows why the dump exists.
  const HealthReport health = engine_->HealthCheck();
  event_log_->Record(EventType::kHealth, EventSeverity::kInfo,
                     static_cast<uint64_t>(health.state), seq, 0, trigger);
  std::vector<EventRecord> events;
  event_log_->Snapshot(&events);
  const uint64_t ts_micros = events.empty() ? 0 : events.back().ts_micros;

  JsonWriter w;
  w.BeginObject();
  w.KV("schema", uint64_t{1});
  w.KV("seq", seq);
  w.KV("trigger", trigger);
  w.KV("ts_micros", ts_micros);

  w.Key("health");
  AppendHealthJson(w, health);

  w.Key("poison");
  w.BeginObject();
  w.KV("poisoned", engine_->poisoned());
  w.KV("status", engine_->poison_status().ToString());
  w.EndObject();

  const WalWatermarks marks = engine_->wal_watermarks();
  w.Key("wal");
  w.BeginObject();
  w.KV("enqueued_txn", marks.enqueued_txn);
  w.KV("appended_txn", marks.appended_txn);
  w.KV("durable_txn", marks.durable_txn);
  w.KV("acked_txn", marks.acked_txn);
  w.KV("wal_bytes", engine_->wal_bytes());
  w.KV("wal_total_bytes", engine_->wal_total_bytes());
  w.KV("commit_count", engine_->commit_count());
  w.KV("checkpoint_count", engine_->checkpoint_count());
  w.EndObject();

  const RecoveryStats& recovery = engine_->last_recovery();
  w.Key("recovery");
  w.BeginObject();
  w.KV("committed_txns", recovery.committed_txns);
  w.KV("discarded_txns", recovery.discarded_txns);
  w.KV("images_replayed", recovery.images_replayed);
  w.KV("deltas_replayed", recovery.deltas_replayed);
  w.KV("records_scanned", recovery.records_scanned);
  w.KV("tail_truncated", recovery.tail_truncated);
  w.EndObject();

  w.Key("latches");
  w.BeginObject();
  w.KV("write_latch_stripes",
       static_cast<uint64_t>(engine_->write_latches().stripe_count()));
  w.KV("write_latch_acquisitions", engine_->write_latches().acquisitions());
  w.EndObject();

  const BufferPoolStats pool = engine_->cache_stats();
  w.Key("buffer_pool");
  w.BeginObject();
  w.KV("hits", pool.hits);
  w.KV("misses", pool.misses);
  w.KV("evictions", pool.evictions);
  w.KV("flushes", pool.flushes);
  w.KV("resident_pages",
       static_cast<uint64_t>(engine_->buffer_pool().resident_pages()));
  w.EndObject();

  w.Key("caches");
  w.BeginObject();
  for (const auto& [name, stats] :
       {std::pair<const char*, PayloadCacheStats>{"payload",
                                                  payload_cache_->stats()},
        std::pair<const char*, PayloadCacheStats>{"latest",
                                                  latest_cache_->stats()}}) {
    w.Key(name);
    w.BeginObject();
    w.KV("hits", stats.hits);
    w.KV("misses", stats.misses);
    w.KV("evictions", stats.evictions);
    w.KV("invalidations", stats.invalidations);
    w.KV("epoch_discards", stats.epoch_discards);
    w.EndObject();
  }
  w.EndObject();

  {
    MutexLock vacuum_lock(vacuum_mu_);
    w.Key("vacuum");
    w.BeginObject();
    w.KV("pass_active", vacuum_state_.has_value());
    w.KV("tree_index",
         static_cast<uint64_t>(vacuum_state_ ? vacuum_state_->tree_index : 0));
    w.KV("shadow_active",
         vacuum_state_ ? vacuum_state_->shadow_active : false);
    w.KV("steps_done",
         vacuum_state_ ? vacuum_state_->steps_done : uint64_t{0});
    w.EndObject();
  }

  w.Key("tracer");
  w.BeginObject();
  w.KV("pending_events", static_cast<uint64_t>(tracer_->pending_events()));
  w.KV("dropped_events", tracer_->dropped_events());
  w.KV("sample_every", tracer_->sample_every());
  w.EndObject();

  w.Key("event_log");
  w.BeginObject();
  w.KV("dropped_events", event_log_->dropped_events());
  w.KV("total_recorded", event_log_->total_recorded());
  w.Key("events");
  w.BeginArray();
  for (const EventRecord& e : events) EventLog::AppendJson(&w, e);
  w.EndArray();
  w.EndObject();

  w.Key("metrics");
  MetricsRegistry::AppendJson(&w, MetricsSnapshot());

  w.EndObject();

  const std::string path = dir + "/" + DiagnosticsFileName(seq);
  ODE_RETURN_IF_ERROR(WriteFileAtomic(env, path, w.str()));

  // Retention: the newest diagnostics_retain dumps survive (this one
  // included).  Deletion failures are reported, not fatal — the dump that
  // was just written is the valuable artifact.
  existing->emplace_back(seq, DiagnosticsFileName(seq));
  if (existing->size() > options_.diagnostics_retain) {
    const size_t excess = existing->size() - options_.diagnostics_retain;
    for (size_t i = 0; i < excess; ++i) {
      Status s = env->DeleteFile(dir + "/" + (*existing)[i].second);
      if (!s.ok()) {
        ODE_LOG_WARN << "diagnostics retention delete failed: " << s;
      }
    }
  }
  return path;
}

Status Database::ExportMetricsFile() {
  Env* env = options_.storage.env != nullptr ? options_.storage.env
                                             : Env::Posix();
  JsonWriter w;
  w.BeginObject();
  w.KV("ts_micros", event_log_->NowMicros());
  w.Key("metrics");
  MetricsRegistry::AppendJson(&w, MetricsSnapshot());
  w.EndObject();
  return WriteFileAtomic(
      env, options_.storage.path + "/" + std::string(kMetricsExportFileName),
      w.str());
}

}  // namespace ode
