#include "common/fsutil.h"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace sword {

namespace fs = std::filesystem;

namespace {

Status StatusFromErrno(int err, const std::string& what,
                       const std::string& path) {
  std::string msg = what + ": " + path + " (" + std::strerror(err) + ")";
  switch (err) {
    case EINTR:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      return Status::Unavailable(std::move(msg));
    case ENOSPC:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return Status::NoSpace(std::move(msg));
    default:
      return Status::Io(std::move(msg));
  }
}

/// The real-filesystem backend: POSIX open/write so errno survives to be
/// classified (stdio folds everything into ferror).
class PosixFileBackend final : public FileBackend {
 public:
  Status Append(const std::string& path, const uint8_t* data, size_t n,
                size_t* written) override {
    *written = 0;
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return StatusFromErrno(errno, "open for append", path);
    Status st = Status::Ok();
    while (*written < n) {
      const ssize_t got = ::write(fd, data + *written, n - *written);
      if (got < 0) {
        st = StatusFromErrno(errno, "append", path);
        break;
      }
      *written += static_cast<size_t>(got);
      // A zero-byte write would loop forever; treat it as transient.
      if (got == 0) {
        st = Status::Unavailable("zero-byte write: " + path);
        break;
      }
    }
    ::close(fd);
    return st;
  }

  Status WriteWhole(const std::string& path, const Bytes& data) override {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return StatusFromErrno(errno, "open for write", path);
    size_t written = 0;
    Status st = Status::Ok();
    while (written < data.size()) {
      const ssize_t got =
          ::write(fd, data.data() + written, data.size() - written);
      if (got < 0) {
        if (errno == EINTR) continue;  // whole-file writes just retry inline
        st = StatusFromErrno(errno, "write", path);
        break;
      }
      written += static_cast<size_t>(got);
    }
    ::close(fd);
    return st;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return StatusFromErrno(errno, "rename to " + to, from);
    }
    return Status::Ok();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return StatusFromErrno(errno, "truncate", path);
    }
    return Status::Ok();
  }

  Status Sync(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return StatusFromErrno(errno, "open for fsync", path);
    Status st = Status::Ok();
    if (::fsync(fd) != 0) st = StatusFromErrno(errno, "fsync", path);
    // close is NOT retried on EINTR: Linux frees the descriptor either way,
    // and a retry could close a descriptor another thread just opened.
    ::close(fd);
    return st;
  }

  Result<Bytes> ReadWhole(const std::string& path) override {
    return ReadFileBytes(path);
  }

  Result<uint64_t> Size(const std::string& path) override {
    return FileSize(path);
  }

  bool Exists(const std::string& path) override { return FileExists(path); }
};

}  // namespace

FileBackend& RealFileBackend() {
  static PosixFileBackend backend;
  return backend;
}

bool TransientRetry::ShouldRetry(const Status& status) {
  ++attempts_;
  if (status.code() != ErrorCode::kUnavailable) return false;
  if (attempts_ >= policy_.max_attempts) return false;
  ++retries_;
  if (policy_.backoff_us > 0) {
    if (backoff_us_ == 0) {
      backoff_us_ = policy_.backoff_us;
    } else {
      backoff_us_ = backoff_us_ * 2 > policy_.max_backoff_us
                        ? policy_.max_backoff_us
                        : backoff_us_ * 2;
    }
    ::usleep(backoff_us_);
  }
  return true;
}

AppendOutcome AppendWithRetry(FileBackend& backend, const std::string& path,
                              const uint8_t* data, size_t n,
                              const RetryPolicy& policy) {
  // An absent file is created by the append, so it rolls back to empty.
  const auto before = backend.Size(path);
  AppendOutcome out;
  TransientRetry retry(policy);
  while (true) {
    size_t got = 0;
    out.status =
        backend.Append(path, data + out.written, n - out.written, &got);
    out.written += got;
    if (out.status.ok() && out.written < n) {
      // Successful short write: keep going from the written prefix without
      // burning an attempt (the backend made progress).
      continue;
    }
    if (out.status.ok() || !retry.ShouldRetry(out.status)) break;
  }
  out.retries = retry.retries();
  if (!out.status.ok() && out.written > 0) {
    (void)backend.Truncate(path, before.ok() ? before.value() : 0);
  }
  return out;
}

SyncOutcome SyncWithRetry(FileBackend& backend, const std::string& path,
                          const RetryPolicy& policy) {
  SyncOutcome out;
  TransientRetry retry(policy);
  do {
    out.status = backend.Sync(path);
  } while (!out.status.ok() && retry.ShouldRetry(out.status));
  out.retries = retry.retries();
  return out;
}

Status WriteFileAtomic(const std::string& path, const Bytes& data,
                       FileBackend* backend) {
  FileBackend& b = backend ? *backend : RealFileBackend();
  const std::string tmp = path + ".tmp";
  SWORD_RETURN_IF_ERROR(b.WriteWhole(tmp, data));
  return b.Rename(tmp, path);
}

Status WriteFile(const std::string& path, const Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::Io("cannot open for write: " + path);
  size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  const int rc = std::fclose(f);
  if (written != data.size() || rc != 0) {
    return Status::Io("short write: " + path);
  }
  return Status::Ok();
}

Status AppendFile(const std::string& path, const uint8_t* data, size_t n) {
  size_t written = 0;
  return RealFileBackend().Append(path, data, n, &written);
}

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::Io("cannot open for read: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes out(static_cast<size_t>(size));
  size_t got = out.empty() ? 0 : std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) return Status::Io("short read: " + path);
  return out;
}

Result<Bytes> ReadFileRange(const std::string& path, uint64_t offset, uint64_t n) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::Io("cannot open for read: " + path);
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::Io("seek failed: " + path);
  }
  Bytes out(static_cast<size_t>(n));
  size_t got = out.empty() ? 0 : std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) {
    return Status::Io("range read past EOF: " + path);
  }
  return out;
}

Result<uint64_t> FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return Status::Io("file_size failed: " + path);
  return static_cast<uint64_t>(size);
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::Io("remove failed: " + path);
  return Status::Ok();
}

Status MakeDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::Io("mkdir failed: " + path + " (" + ec.message() + ")");
  return Status::Ok();
}

Status TruncateFile(const std::string& path, uint64_t n) {
  return RealFileBackend().Truncate(path, n);
}

TempDir::TempDir(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  const auto base = fs::temp_directory_path();
  // PID + counter keeps concurrently running test binaries apart.
  path_ = (base / (prefix + "-" + std::to_string(::getpid()) + "-" +
                   std::to_string(counter.fetch_add(1))))
              .string();
  fs::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

}  // namespace sword
