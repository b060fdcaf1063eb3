#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <dirent.h>
#include <map>
#include <memory>
#include <set>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ode {

namespace {

Status PosixError(const std::string& context, int err) {
  return Status::IOError(context + ": " + std::strerror(err));
}

// ---------------------------------------------------------------------------
// POSIX implementation
// ---------------------------------------------------------------------------

class PosixFile : public File {
 public:
  PosixFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, std::string* scratch,
              Slice* result) override {
    scratch->resize(n);
    ssize_t r = ::pread(fd_, scratch->data(), n, static_cast<off_t>(offset));
    if (r < 0) return PosixError("pread " + path_, errno);
    *result = Slice(scratch->data(), static_cast<size_t>(r));
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    const char* p = data.data();
    size_t left = data.size();
    uint64_t off = offset;
    while (left > 0) {
      ssize_t w = ::pwrite(fd_, p, left, static_cast<off_t>(off));
      if (w < 0) {
        if (errno == EINTR) continue;
        return PosixError("pwrite " + path_, errno);
      }
      p += w;
      left -= static_cast<size_t>(w);
      off += static_cast<uint64_t>(w);
    }
    return Status::OK();
  }

  Status Append(const Slice& data) override {
    auto size = Size();
    if (!size.ok()) return size.status();
    return Write(*size, data);
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return PosixError("fsync " + path_, errno);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return PosixError("ftruncate " + path_, errno);
    }
    return Status::OK();
  }

  StatusOr<uint64_t> Size() override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return PosixError("fstat " + path_, errno);
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  std::string path_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  StatusOr<std::unique_ptr<File>> OpenFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) return PosixError("open " + path, errno);
    return std::unique_ptr<File>(new PosixFile(path, fd));
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return PosixError("unlink " + path, errno);
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError("rename " + from, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError("mkdir " + path, errno);
    }
    return Status::OK();
  }

  StatusOr<std::vector<std::string>> ListDir(const std::string& path) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) return PosixError("opendir " + path, errno);
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(dir)) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(std::move(name));
    }
    ::closedir(dir);
    return names;
  }
};

}  // namespace

Env* Env::Posix() {
  static PosixEnv* env = new PosixEnv();  // Intentionally leaked singleton.
  return env;
}

// ---------------------------------------------------------------------------
// In-memory implementation
// ---------------------------------------------------------------------------

namespace {

struct MemFileData {
  Mutex mu;
  std::string contents ODE_GUARDED_BY(mu);
};

class MemFile : public File {
 public:
  explicit MemFile(std::shared_ptr<MemFileData> data)
      : data_(std::move(data)) {}

  Status Read(uint64_t offset, size_t n, std::string* scratch,
              Slice* result) override {
    MutexLock lock(data_->mu);
    const std::string& c = data_->contents;
    if (offset >= c.size()) {
      *result = Slice();
      return Status::OK();
    }
    size_t avail = std::min<size_t>(n, c.size() - offset);
    scratch->assign(c.data() + offset, avail);
    *result = Slice(*scratch);
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    MutexLock lock(data_->mu);
    std::string& c = data_->contents;
    if (offset + data.size() > c.size()) c.resize(offset + data.size());
    std::memcpy(c.data() + offset, data.data(), data.size());
    return Status::OK();
  }

  Status Append(const Slice& data) override {
    MutexLock lock(data_->mu);
    data_->contents.append(data.data(), data.size());
    return Status::OK();
  }

  Status Sync() override { return Status::OK(); }

  Status Truncate(uint64_t size) override {
    MutexLock lock(data_->mu);
    data_->contents.resize(size);
    return Status::OK();
  }

  StatusOr<uint64_t> Size() override {
    MutexLock lock(data_->mu);
    return static_cast<uint64_t>(data_->contents.size());
  }

 private:
  std::shared_ptr<MemFileData> data_;
};

}  // namespace

struct MemEnv::Impl {
  Mutex mu;
  std::map<std::string, std::shared_ptr<MemFileData>> files ODE_GUARDED_BY(mu);
  std::set<std::string> dirs ODE_GUARDED_BY(mu);
};

MemEnv::MemEnv() : impl_(new Impl()) {}
MemEnv::~MemEnv() = default;

StatusOr<std::unique_ptr<File>> MemEnv::OpenFile(const std::string& path) {
  MutexLock lock(impl_->mu);
  auto it = impl_->files.find(path);
  if (it == impl_->files.end()) {
    it = impl_->files.emplace(path, std::make_shared<MemFileData>()).first;
  }
  return std::unique_ptr<File>(new MemFile(it->second));
}

bool MemEnv::FileExists(const std::string& path) {
  MutexLock lock(impl_->mu);
  return impl_->files.count(path) > 0;
}

Status MemEnv::DeleteFile(const std::string& path) {
  MutexLock lock(impl_->mu);
  if (impl_->files.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  MutexLock lock(impl_->mu);
  auto it = impl_->files.find(from);
  if (it == impl_->files.end()) {
    return Status::NotFound("no such file: " + from);
  }
  impl_->files[to] = it->second;
  impl_->files.erase(it);
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string& path) {
  MutexLock lock(impl_->mu);
  impl_->dirs.insert(path);
  return Status::OK();
}

StatusOr<std::vector<std::string>> MemEnv::ListDir(const std::string& path) {
  std::vector<std::string> names;
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  MutexLock lock(impl_->mu);
  for (const auto& [name, data] : impl_->files) {
    (void)data;
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
      names.push_back(name.substr(prefix.size()));
    }
  }
  return names;
}

}  // namespace ode
