#include "io/backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/uring_backend.h"
#include "util/logging.h"

namespace demsort::io {

namespace {

constexpr uint64_t kSyncUserData = ~uint64_t{0};

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status NeverWritten(uint64_t block) {
  return Status::NotFound("read of never-written block " +
                          std::to_string(block));
}

}  // namespace

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMemory: return "memory";
    case BackendKind::kFile: return "file";
    case BackendKind::kDirect: return "direct";
    case BackendKind::kUring: return "uring";
  }
  return "?";
}

StatusOr<BackendKind> ParseBackendKind(const std::string& name) {
  for (BackendKind kind :
       {BackendKind::kMemory, BackendKind::kFile, BackendKind::kDirect,
        BackendKind::kUring}) {
    if (name == BackendKindName(kind)) return kind;
  }
  return Status::InvalidArgument(
      "unknown storage backend '" + name +
      "' (want memory|file|direct|uring)");
}

bool IsFileBacked(BackendKind kind) { return kind != BackendKind::kMemory; }

// ------------------------------------------------------- sync convenience ---

Status StorageBackend::ReadBlock(uint64_t index, void* buf) {
  IoOp op;
  op.is_write = false;
  op.block = index;
  op.read_buf = buf;
  op.user_data = kSyncUserData;
  if (!Submit(op)) {
    return Status::Internal("sync ReadBlock with a full device queue");
  }
  std::vector<IoCompletion> done;
  while (true) {
    done.clear();
    if (Reap(&done, /*wait=*/true) == 0) {
      return Status::Internal("sync ReadBlock: completion never arrived");
    }
    for (IoCompletion& c : done) {
      if (c.user_data == kSyncUserData) return std::move(c.status);
    }
  }
}

Status StorageBackend::WriteBlock(uint64_t index, const void* buf) {
  IoOp op;
  op.is_write = true;
  op.block = index;
  op.write_buf = buf;
  op.user_data = kSyncUserData;
  if (!Submit(op)) {
    return Status::Internal("sync WriteBlock with a full device queue");
  }
  std::vector<IoCompletion> done;
  while (true) {
    done.clear();
    if (Reap(&done, /*wait=*/true) == 0) {
      return Status::Internal("sync WriteBlock: completion never arrived");
    }
    for (IoCompletion& c : done) {
      if (c.user_data == kSyncUserData) return std::move(c.status);
    }
  }
}

// ---------------------------------------------------------- InlineBackend ---

bool InlineBackend::Submit(const IoOp& op) {
  IoCompletion c;
  c.user_data = op.user_data;
  c.status = op.is_write ? DoWrite(op.block, op.write_buf)
                         : DoRead(op.block, op.read_buf);
  ready_.push_back(std::move(c));
  return true;
}

size_t InlineBackend::Reap(std::vector<IoCompletion>* out, bool wait) {
  (void)wait;  // Inline completion: everything submitted is already done.
  size_t n = ready_.size();
  for (IoCompletion& c : ready_) out->push_back(std::move(c));
  ready_.clear();
  return n;
}

// ---------------------------------------------------------- MemoryBackend ---

MemoryBackend::MemoryBackend(size_t block_size) : InlineBackend(block_size) {}

Status MemoryBackend::DoRead(uint64_t block, void* buf) {
  std::lock_guard<std::mutex> lock(mu_);
  if (block >= blocks_.size() || blocks_[block] == nullptr) {
    return NeverWritten(block);
  }
  std::memcpy(buf, blocks_[block].get(), block_size_);
  return Status::OK();
}

Status MemoryBackend::DoWrite(uint64_t block, const void* buf) {
  std::lock_guard<std::mutex> lock(mu_);
  if (block >= blocks_.size()) blocks_.resize(block + 1);
  if (blocks_[block] == nullptr) {
    blocks_[block] = std::make_unique_for_overwrite<uint8_t[]>(block_size_);
  }
  std::memcpy(blocks_[block].get(), buf, block_size_);
  return Status::OK();
}

// ------------------------------------------------------------ FileBackend ---

StatusOr<std::unique_ptr<FileBackend>> FileBackend::Create(
    const std::string& path, size_t block_size, bool unlink_on_close) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open(" + path + ")");
  return std::unique_ptr<FileBackend>(
      new FileBackend(fd, path, block_size, unlink_on_close));
}

StatusOr<std::unique_ptr<FileBackend>> FileBackend::Open(
    const std::string& path, size_t block_size) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return errno == ENOENT
               ? Status::NotFound("open(" + path + "): no such file")
               : Errno("open(" + path + ")");
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Errno("lseek(" + path + ")");
  }
  auto backend = std::unique_ptr<FileBackend>(
      new FileBackend(fd, path, block_size, /*unlink_on_close=*/false));
  // Round UP: a partial trailing block still holds data — reading it then
  // surfaces an honest short-read IoError instead of a false NotFound.
  backend->written_.MarkThrough(
      (static_cast<uint64_t>(size) + block_size - 1) / block_size);
  return backend;
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) {
    ::close(fd_);
    if (unlink_on_close_) ::unlink(path_.c_str());
  }
}

Status FileBackend::DoRead(uint64_t block, void* buf) {
  if (!written_.Contains(block)) return NeverWritten(block);
  ssize_t n = ::pread(fd_, buf, block_size_,
                      static_cast<off_t>(block * block_size_));
  if (n != static_cast<ssize_t>(block_size_)) {
    return Status::IoError("pread block " + std::to_string(block) + ": " +
                           (n < 0 ? std::strerror(errno) : "short read"));
  }
  return Status::OK();
}

Status FileBackend::DoWrite(uint64_t block, const void* buf) {
  ssize_t n = ::pwrite(fd_, buf, block_size_,
                       static_cast<off_t>(block * block_size_));
  if (n != static_cast<ssize_t>(block_size_)) {
    return Status::IoError("pwrite block " + std::to_string(block) + ": " +
                           (n < 0 ? std::strerror(errno) : "short write"));
  }
  written_.Mark(block);
  return Status::OK();
}

Status FileBackend::Flush() {
  if (::fsync(fd_) != 0) return Errno("fsync(" + path_ + ")");
  return Status::OK();
}

// ---------------------------------------------------------- DirectBackend ---

StatusOr<std::unique_ptr<DirectBackend>> DirectBackend::Create(
    const std::string& path, size_t block_size, bool unlink_on_close) {
  if (block_size % kBlockAlign != 0) {
    return Status::InvalidArgument(
        "O_DIRECT block_size " + std::to_string(block_size) +
        " is not a multiple of kBlockAlign " + std::to_string(kBlockAlign));
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_DIRECT, 0644);
  if (fd < 0) return Errno("open(O_DIRECT, " + path + ")");
  return std::unique_ptr<DirectBackend>(
      new DirectBackend(fd, path, block_size, unlink_on_close));
}

StatusOr<std::unique_ptr<DirectBackend>> DirectBackend::Open(
    const std::string& path, size_t block_size) {
  if (block_size % kBlockAlign != 0) {
    return Status::InvalidArgument(
        "O_DIRECT block_size " + std::to_string(block_size) +
        " is not a multiple of kBlockAlign " + std::to_string(kBlockAlign));
  }
  int fd = ::open(path.c_str(), O_RDWR | O_DIRECT);
  if (fd < 0) {
    return errno == ENOENT
               ? Status::NotFound("open(" + path + "): no such file")
               : Errno("open(O_DIRECT, " + path + ")");
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Errno("lseek(" + path + ")");
  }
  auto backend = std::unique_ptr<DirectBackend>(
      new DirectBackend(fd, path, block_size, /*unlink_on_close=*/false));
  backend->written_.MarkThrough(
      (static_cast<uint64_t>(size) + block_size - 1) / block_size);
  return backend;
}

DirectBackend::~DirectBackend() {
  if (fd_ >= 0) {
    ::close(fd_);
    if (unlink_on_close_) ::unlink(path_.c_str());
  }
}

Status DirectBackend::DoRead(uint64_t block, void* buf) {
  DEMSORT_CHECK_EQ(reinterpret_cast<uintptr_t>(buf) % kBlockAlign, 0u)
      << "unaligned buffer entered the O_DIRECT seam";
  if (!written_.Contains(block)) return NeverWritten(block);
  ssize_t n = ::pread(fd_, buf, block_size_,
                      static_cast<off_t>(block * block_size_));
  if (n != static_cast<ssize_t>(block_size_)) {
    return Status::IoError("O_DIRECT pread block " + std::to_string(block) +
                           ": " +
                           (n < 0 ? std::strerror(errno) : "short read"));
  }
  return Status::OK();
}

Status DirectBackend::DoWrite(uint64_t block, const void* buf) {
  DEMSORT_CHECK_EQ(reinterpret_cast<uintptr_t>(buf) % kBlockAlign, 0u)
      << "unaligned buffer entered the O_DIRECT seam";
  ssize_t n = ::pwrite(fd_, buf, block_size_,
                       static_cast<off_t>(block * block_size_));
  if (n != static_cast<ssize_t>(block_size_)) {
    return Status::IoError("O_DIRECT pwrite block " + std::to_string(block) +
                           ": " +
                           (n < 0 ? std::strerror(errno) : "short write"));
  }
  written_.Mark(block);
  return Status::OK();
}

Status DirectBackend::Flush() {
  // O_DIRECT writes bypass the page cache but not the drive cache; fsync is
  // still the durability barrier (and flushes the inode size update).
  if (::fsync(fd_) != 0) return Errno("fsync(" + path_ + ")");
  return Status::OK();
}

// ---------------------------------------------------------------- factory ---

StatusOr<std::unique_ptr<StorageBackend>> MakeBackend(
    BackendKind kind, size_t block_size, const BackendFileOptions& options) {
  if (IsFileBacked(kind) && options.path.empty()) {
    return Status::InvalidArgument("file-backed backend requires a path");
  }
  switch (kind) {
    case BackendKind::kMemory:
      return std::unique_ptr<StorageBackend>(
          std::make_unique<MemoryBackend>(block_size));
    case BackendKind::kFile: {
      auto made = options.reuse_existing
                      ? FileBackend::Open(options.path, block_size)
                      : FileBackend::Create(options.path, block_size,
                                            options.unlink_on_close);
      if (!made.ok()) return made.status();
      return std::unique_ptr<StorageBackend>(std::move(made).value());
    }
    case BackendKind::kDirect: {
      auto made = options.reuse_existing
                      ? DirectBackend::Open(options.path, block_size)
                      : DirectBackend::Create(options.path, block_size,
                                              options.unlink_on_close);
      if (!made.ok()) return made.status();
      return std::unique_ptr<StorageBackend>(std::move(made).value());
    }
    case BackendKind::kUring:
      return MakeUringBackend(options.path, block_size, options.queue_depth,
                              options.unlink_on_close,
                              options.reuse_existing);
  }
  return Status::InvalidArgument("unknown backend kind");
}

}  // namespace demsort::io
