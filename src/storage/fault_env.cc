#include "storage/fault_env.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "util/event_log.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ode {

namespace {

/// Per-file shadow state: `synced` is what survives a crash, `current` is
/// what readers see now.  Guarded by the owning FaultState's mutex — a
/// cross-object guard the capability analysis cannot name, so every access
/// below sits inside a MutexLock on FaultState::mu.
struct FaultFileState {
  std::string synced;
  std::string current;
  uint64_t generation = 0;  // Bumped on crash to invalidate open handles.
};

/// What a file looks like after a crash: the synced image with a prefix of
/// the unsynced modification region overlaid (see CrashTear).
std::string ApplyTear(const std::string& synced, const std::string& current,
                      CrashTear tear) {
  if (tear == CrashTear::kLoseAll) return synced;
  if (tear == CrashTear::kKeepAll) return current;
  // The unsynced region starts at the first byte where current diverges from
  // the synced image and runs to current EOF.
  size_t d = 0;
  const size_t common = std::min(synced.size(), current.size());
  while (d < common && synced[d] == current[d]) ++d;
  if (d >= current.size()) return synced;  // Only an unsynced truncate; lose it.
  const size_t region = current.size() - d;
  size_t keep = 0;
  switch (tear) {
    case CrashTear::kTearHalf:
      keep = region / 2;
      break;
    case CrashTear::kTornByte:
      keep = region - 1;
      break;
    case CrashTear::kCorruptLast:
      keep = region;
      break;
    default:
      break;
  }
  std::string out = synced;
  if (keep > 0) {
    if (out.size() < d + keep) out.resize(d + keep, '\0');
    out.replace(d, keep, current, d, keep);
    if (tear == CrashTear::kCorruptLast) out[d + keep - 1] ^= 0x01;
  }
  return out;
}

struct FailurePlan {
  FaultOp op;
  uint64_t remaining;  // Matching ops to let through before failing.
  Status error;
  bool sticky;
};

/// All of the env's state behind one mutex: file contents, accounting and
/// the injection plans.  Every file operation and every public method takes
/// it, so concurrent engine threads (checkpoint page writes, buffer-pool
/// miss reads, group-commit appends) see one total order of operations —
/// which is also what makes a scheduled crash step deterministic.
struct FaultState {
  mutable Mutex mu;
  std::map<std::string, std::shared_ptr<FaultFileState>> files
      ODE_GUARDED_BY(mu);

  // Accounting.
  IoCounts counts ODE_GUARDED_BY(mu);
  uint64_t successful_syncs ODE_GUARDED_BY(mu) = 0;  // Legacy sync_count().

  // Dying-disk state: once failing, every mutating op returns failing_error.
  bool failing ODE_GUARDED_BY(mu) = false;
  Status failing_error ODE_GUARDED_BY(mu) =
      Status::IOError("simulated disk failure");
  // < 0: disabled (legacy FailAfterSyncs).
  int syncs_until_failure ODE_GUARDED_BY(mu) = -1;
  std::optional<FailurePlan> plan ODE_GUARDED_BY(mu);

  // Scheduled crash.
  bool crash_armed ODE_GUARDED_BY(mu) = false;
  uint64_t crash_at_op ODE_GUARDED_BY(mu) = 0;  // Mutating ops since arming.
  uint64_t ops_since_arm ODE_GUARDED_BY(mu) = 0;
  CrashTear crash_tear ODE_GUARDED_BY(mu) = CrashTear::kLoseAll;
  bool crash_fired ODE_GUARDED_BY(mu) = false;

  // Optional journal for fired injections (see set_event_log).
  EventLog* events ODE_GUARDED_BY(mu) = nullptr;

  void CrashNow(CrashTear tear) ODE_REQUIRES(mu) {
    for (auto& [name, state] : files) {
      (void)name;
      state->current = ApplyTear(state->synced, state->current, tear);
      state->synced = state->current;  // Post-reboot, disk content is the baseline.
      ++state->generation;
    }
    failing = false;
    syncs_until_failure = -1;
    plan.reset();
    crash_armed = false;
    crash_fired = true;
  }

  /// Runs the injection pipeline for one attempted operation.  Returns the
  /// error the op must fail with, or OK to let it execute.
  Status CheckOp(FaultOp op) ODE_REQUIRES(mu) {
    const bool mutating = op != FaultOp::kRead && op != FaultOp::kOpen;
    ++counts.ops[static_cast<int>(op)];
    if (mutating) {
      if (crash_armed) {
        if (ops_since_arm == crash_at_op) {
          CrashNow(crash_tear);
          if (events != nullptr) {
            events->Record(EventType::kFaultInjection, EventSeverity::kWarn,
                           static_cast<uint64_t>(op), /*b=*/1, crash_at_op,
                           "simulated crash");
          }
          return Status::IOError("simulated crash");
        }
        ++ops_since_arm;
      }
    }
    if (plan.has_value() && plan->op == op) {
      if (plan->remaining == 0) {
        const Status error = plan->error;
        if (plan->sticky) {
          failing = true;
          failing_error = error;
        }
        plan.reset();
        if (events != nullptr) {
          events->Record(EventType::kFaultInjection, EventSeverity::kWarn,
                         static_cast<uint64_t>(op), /*b=*/0, 0,
                         error.ToString());
        }
        return error;
      }
      --plan->remaining;
    }
    if (op == FaultOp::kSync && syncs_until_failure == 0) failing = true;
    if (mutating && failing) return failing_error;
    if (op == FaultOp::kSync && syncs_until_failure > 0) --syncs_until_failure;
    return Status::OK();
  }
};

class FaultFile : public File {
 public:
  FaultFile(std::shared_ptr<FaultFileState> state, FaultState* global)
      : state_(std::move(state)),
        global_(global),
        generation_(state_->generation) {}

  Status Read(uint64_t offset, size_t n, std::string* scratch,
              Slice* result) override {
    MutexLock lock(global_->mu);
    ODE_RETURN_IF_ERROR(CheckAlive());
    ODE_RETURN_IF_ERROR(global_->CheckOp(FaultOp::kRead));
    const std::string& c = state_->current;
    if (offset >= c.size()) {
      *result = Slice();
      return Status::OK();
    }
    size_t avail = std::min<size_t>(n, c.size() - offset);
    scratch->assign(c.data() + offset, avail);
    *result = Slice(*scratch);
    global_->counts.bytes_read += avail;
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    MutexLock lock(global_->mu);
    ODE_RETURN_IF_ERROR(CheckAlive());
    ODE_RETURN_IF_ERROR(global_->CheckOp(FaultOp::kWrite));
    std::string& c = state_->current;
    if (offset + data.size() > c.size()) c.resize(offset + data.size());
    std::memcpy(c.data() + offset, data.data(), data.size());
    global_->counts.bytes_written += data.size();
    return Status::OK();
  }

  Status Append(const Slice& data) override {
    MutexLock lock(global_->mu);
    ODE_RETURN_IF_ERROR(CheckAlive());
    ODE_RETURN_IF_ERROR(global_->CheckOp(FaultOp::kAppend));
    state_->current.append(data.data(), data.size());
    global_->counts.bytes_written += data.size();
    return Status::OK();
  }

  Status Sync() override {
    MutexLock lock(global_->mu);
    ODE_RETURN_IF_ERROR(CheckAlive());
    ODE_RETURN_IF_ERROR(global_->CheckOp(FaultOp::kSync));
    state_->synced = state_->current;
    ++global_->successful_syncs;
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    MutexLock lock(global_->mu);
    ODE_RETURN_IF_ERROR(CheckAlive());
    ODE_RETURN_IF_ERROR(global_->CheckOp(FaultOp::kTruncate));
    state_->current.resize(size);
    return Status::OK();
  }

  StatusOr<uint64_t> Size() override {
    MutexLock lock(global_->mu);
    ODE_RETURN_IF_ERROR(CheckAlive());
    return static_cast<uint64_t>(state_->current.size());
  }

 private:
  Status CheckAlive() const ODE_REQUIRES(global_->mu) {
    if (generation_ != state_->generation) {
      return Status::IOError("file handle invalidated by simulated crash");
    }
    return Status::OK();
  }

  std::shared_ptr<FaultFileState> state_;
  FaultState* global_;
  uint64_t generation_;
};

}  // namespace

struct FaultInjectionEnv::Impl {
  Env* base;  // Unused beyond construction; fault env keeps its own store.
  FaultState state;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base) : impl_(new Impl()) {
  impl_->base = base;
}
FaultInjectionEnv::~FaultInjectionEnv() = default;

StatusOr<std::unique_ptr<File>> FaultInjectionEnv::OpenFile(
    const std::string& path) {
  MutexLock lock(impl_->state.mu);
  ODE_RETURN_IF_ERROR(impl_->state.CheckOp(FaultOp::kOpen));
  auto it = impl_->state.files.find(path);
  if (it == impl_->state.files.end()) {
    it = impl_->state.files.emplace(path, std::make_shared<FaultFileState>())
             .first;
  }
  return std::unique_ptr<File>(new FaultFile(it->second, &impl_->state));
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  MutexLock lock(impl_->state.mu);
  return impl_->state.files.count(path) > 0;
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  MutexLock lock(impl_->state.mu);
  ODE_RETURN_IF_ERROR(impl_->state.CheckOp(FaultOp::kDelete));
  if (impl_->state.files.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::OK();
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  MutexLock lock(impl_->state.mu);
  ODE_RETURN_IF_ERROR(impl_->state.CheckOp(FaultOp::kRename));
  auto it = impl_->state.files.find(from);
  if (it == impl_->state.files.end()) {
    return Status::NotFound("no such file: " + from);
  }
  impl_->state.files[to] = it->second;
  impl_->state.files.erase(it);
  return Status::OK();
}

Status FaultInjectionEnv::CreateDir(const std::string&) { return Status::OK(); }

StatusOr<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& path) {
  std::vector<std::string> names;
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  MutexLock lock(impl_->state.mu);
  for (const auto& [name, state] : impl_->state.files) {
    (void)state;
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      names.push_back(name.substr(prefix.size()));
    }
  }
  return names;
}

void FaultInjectionEnv::CrashAndLoseUnsynced() { Crash(CrashTear::kLoseAll); }

void FaultInjectionEnv::Crash(CrashTear tear) {
  MutexLock lock(impl_->state.mu);
  impl_->state.CrashNow(tear);
  // An explicit Crash() is the start of the next experiment, not a pending
  // result to poll; leave crash_fired for ScheduleCrash sweeps.
  impl_->state.crash_fired = false;
}

void FaultInjectionEnv::ScheduleCrash(uint64_t nth_mutating_op,
                                      CrashTear tear) {
  FaultState& s = impl_->state;
  MutexLock lock(s.mu);
  s.crash_armed = true;
  s.crash_at_op = nth_mutating_op;
  s.ops_since_arm = 0;
  s.crash_tear = tear;
  s.crash_fired = false;
}

bool FaultInjectionEnv::crash_fired() const {
  MutexLock lock(impl_->state.mu);
  return impl_->state.crash_fired;
}

void FaultInjectionEnv::FailNth(FaultOp op, uint64_t nth, Status error,
                                bool sticky) {
  MutexLock lock(impl_->state.mu);
  impl_->state.plan = FailurePlan{op, nth, std::move(error), sticky};
}

void FaultInjectionEnv::FailAfterSyncs(int n) {
  MutexLock lock(impl_->state.mu);
  impl_->state.syncs_until_failure = n;
  impl_->state.failing = (n == 0);
  impl_->state.failing_error = Status::IOError("simulated disk failure");
}

void FaultInjectionEnv::ClearFaults() {
  FaultState& s = impl_->state;
  MutexLock lock(s.mu);
  s.failing = false;
  s.syncs_until_failure = -1;
  s.plan.reset();
  s.crash_armed = false;
  s.crash_fired = false;
}

void FaultInjectionEnv::set_event_log(EventLog* log) {
  MutexLock lock(impl_->state.mu);
  impl_->state.events = log;
}

IoCounts FaultInjectionEnv::counts() const {
  MutexLock lock(impl_->state.mu);
  return impl_->state.counts;
}

uint64_t FaultInjectionEnv::mutating_op_count() const {
  MutexLock lock(impl_->state.mu);
  return impl_->state.counts.mutating();
}

int FaultInjectionEnv::sync_count() const {
  MutexLock lock(impl_->state.mu);
  return static_cast<int>(impl_->state.successful_syncs);
}

void FaultInjectionEnv::ResetCounts() {
  MutexLock lock(impl_->state.mu);
  impl_->state.counts = IoCounts{};
  impl_->state.successful_syncs = 0;
}

}  // namespace ode
