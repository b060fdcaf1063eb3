#ifndef ODE_BENCH_COUNTING_ENV_H_
#define ODE_BENCH_COUNTING_ENV_H_

// Env wrapper for the traced run: forwards every call to a real Env (the
// POSIX one) and counts what reaches the device.  The engine's own
// FaultInjectionEnv counts too, but keeps files in memory, which would hide
// the very fsync cost this benchmark exists to show.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/env.h"

namespace ode_bench {

/// Device traffic seen through a CountingEnv.
struct IoTally {
  uint64_t write_bytes = 0;  ///< Through File::Write and File::Append.
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t reads = 0;
  uint64_t syncs = 0;
};

class CountingEnv : public ode::Env {
 public:
  explicit CountingEnv(ode::Env* base) : base_(base) {}

  ode::StatusOr<std::unique_ptr<ode::File>> OpenFile(
      const std::string& path) override {
    auto file = base_->OpenFile(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<ode::File>(
        std::make_unique<CountingFile>(std::move(*file), this));
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  ode::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  ode::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  ode::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  ode::StatusOr<std::vector<std::string>> ListDir(
      const std::string& path) override {
    return base_->ListDir(path);
  }

  IoTally Snapshot() const {
    IoTally t;
    t.write_bytes = write_bytes_.load(std::memory_order_relaxed);
    t.writes = writes_.load(std::memory_order_relaxed);
    t.read_bytes = read_bytes_.load(std::memory_order_relaxed);
    t.reads = reads_.load(std::memory_order_relaxed);
    t.syncs = syncs_.load(std::memory_order_relaxed);
    return t;
  }

 private:
  class CountingFile : public ode::File {
   public:
    CountingFile(std::unique_ptr<ode::File> base, CountingEnv* env)
        : base_(std::move(base)), env_(env) {}

    ode::Status Read(uint64_t offset, size_t n, std::string* scratch,
                     ode::Slice* result) override {
      ode::Status s = base_->Read(offset, n, scratch, result);
      env_->reads_.fetch_add(1, std::memory_order_relaxed);
      if (s.ok()) {
        env_->read_bytes_.fetch_add(result->size(), std::memory_order_relaxed);
      }
      return s;
    }
    ode::Status Write(uint64_t offset, const ode::Slice& data) override {
      env_->CountWrite(data.size());
      return base_->Write(offset, data);
    }
    ode::Status Append(const ode::Slice& data) override {
      env_->CountWrite(data.size());
      return base_->Append(data);
    }
    ode::Status Sync() override {
      env_->syncs_.fetch_add(1, std::memory_order_relaxed);
      return base_->Sync();
    }
    ode::Status Truncate(uint64_t size) override { return base_->Truncate(size); }
    ode::StatusOr<uint64_t> Size() override { return base_->Size(); }

   private:
    std::unique_ptr<ode::File> base_;
    CountingEnv* env_;
  };

  void CountWrite(size_t bytes) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  ode::Env* base_;
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace ode_bench

#endif  // ODE_BENCH_COUNTING_ENV_H_
