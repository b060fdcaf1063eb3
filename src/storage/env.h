#ifndef ODE_STORAGE_ENV_H_
#define ODE_STORAGE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ode {

/// Random-access file handle.
///
/// All storage-layer I/O flows through this interface so tests can run on an
/// in-memory filesystem and fault-injection wrappers can simulate crashes.
/// Offsets are absolute; files grow automatically on writes past EOF.
class File {
 public:
  virtual ~File() = default;

  /// Reads up to `n` bytes at `offset` into `scratch`; `*result` points into
  /// scratch (or an internal buffer) and may be shorter than `n` at EOF.
  virtual Status Read(uint64_t offset, size_t n, std::string* scratch,
                      Slice* result) = 0;

  /// Writes `data` at `offset`, extending the file if needed.
  virtual Status Write(uint64_t offset, const Slice& data) = 0;

  /// Appends `data` at the current end of file.
  virtual Status Append(const Slice& data) = 0;

  /// Durably flushes all written data (fsync).
  virtual Status Sync() = 0;

  /// Truncates the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Current size in bytes.
  virtual StatusOr<uint64_t> Size() = 0;
};

/// Filesystem abstraction (the RocksDB Env idiom).
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` read-write, creating it if absent.
  virtual StatusOr<std::unique_ptr<File>> OpenFile(const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status CreateDir(const std::string& path) = 0;
  virtual StatusOr<std::vector<std::string>> ListDir(
      const std::string& path) = 0;

  /// Process-wide POSIX environment (never deleted).
  static Env* Posix();
};

/// Fully in-memory Env for unit tests and benchmarks: identical semantics to
/// the POSIX Env, no disk I/O.  Thread-safe like the POSIX Env: every file
/// operation takes that file's mutex and every Env-level operation takes the
/// Env's, so a checkpoint's data-file writes may overlap buffer-pool miss
/// reads of the same file and group-commit appends to the WAL.
class MemEnv : public Env {
 public:
  MemEnv();
  ~MemEnv() override;

  StatusOr<std::unique_ptr<File>> OpenFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status CreateDir(const std::string& path) override;
  StatusOr<std::vector<std::string>> ListDir(const std::string& path) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// The crash / fault-injection Env wrapper lives in storage/fault_env.h.

}  // namespace ode

#endif  // ODE_STORAGE_ENV_H_
