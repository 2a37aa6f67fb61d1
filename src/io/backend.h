// Storage backends: where a virtual disk's blocks physically live, behind an
// asynchronous submit/complete seam. Each disk is one backend over one file
// (or, for memory, one block table).
//
// The contract mirrors the net::Transport refactor: callers Submit() batches
// of block operations tagged with opaque user_data, the backend completes
// them at its own queue depth, and Reap() returns finished operations with
// their status. Flush() is a real durability barrier. Four backends:
//
//   MemoryBackend  blocks in RAM; deterministic, the default for tests.
//   FileBackend    buffered pread/pwrite against one file per disk.
//   DirectBackend  O_DIRECT pread/pwrite — page cache bypassed, so buffers
//                  and block size must be kBlockAlign-aligned (CHECKed).
//   UringBackend   a real io_uring submission/completion ring with
//                  registered buffers and configurable SQ depth (see
//                  uring_backend.h; compiled when the kernel headers exist).
//
// Memory/file/direct complete inside Submit() (queue capacity 1) — they are
// inline adapters, so every pre-existing test and the seek-model benches run
// unchanged. Of those, memory and file complete in memory (RAM or the page
// cache) and never wait on a device; VirtualDisk serves them on the caller's
// thread. UringBackend reports its SQ depth and completes out of line.
#ifndef DEMSORT_IO_BACKEND_H_
#define DEMSORT_IO_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/status.h"

namespace demsort::io {

/// THE I/O alignment constant: every aligned block buffer in the pipeline
/// (AlignedBuffer) and every alignment-requiring backend (O_DIRECT, uring
/// registered buffers) agree on this one value instead of each layer
/// assuming 4 KiB independently.
inline constexpr size_t kBlockAlign = AlignedBuffer::kAlignment;

/// Which physical backend a BlockManager builds per disk.
enum class BackendKind { kMemory, kFile, kDirect, kUring };

/// Stable lowercase name ("memory", "file", "direct", "uring").
const char* BackendKindName(BackendKind kind);
/// Parses a BackendKindName(); InvalidArgument on anything else.
StatusOr<BackendKind> ParseBackendKind(const std::string& name);
/// True for every kind whose blocks live in a real file and survive the
/// process (everything but memory) — the recovery-eligible kinds.
bool IsFileBacked(BackendKind kind);

/// One submitted block operation. Buffers are caller-owned and must stay
/// valid until the operation's completion is reaped.
struct IoOp {
  bool is_write = false;
  uint64_t block = 0;
  void* read_buf = nullptr;
  const void* write_buf = nullptr;
  /// Opaque tag returned in the matching IoCompletion.
  uint64_t user_data = 0;
};

struct IoCompletion {
  uint64_t user_data = 0;
  Status status;
};

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Queues one operation. Returns false when the device queue is full (only
  /// possible when queue_capacity() > 1) — the caller reaps and retries.
  /// Reading a block that was never written completes with NotFound: the
  /// sorting pipeline never does that, so a read-before-write is always a
  /// bug worth failing loudly on.
  virtual bool Submit(const IoOp& op) = 0;

  /// Appends finished operations to `out`; returns how many were appended.
  /// With `wait`, blocks until at least one completion is available — unless
  /// nothing is in flight, in which case it returns 0 immediately.
  virtual size_t Reap(std::vector<IoCompletion>* out, bool wait) = 0;

  /// How many operations the backend keeps in flight at once. Inline
  /// adapters (operation completes inside Submit) report 1.
  virtual size_t queue_capacity() const { return 1; }

  /// True when Submit completes every operation as a copy to or from RAM or
  /// the page cache, never waiting on a device. An I/O thread hides no
  /// latency for such a backend, so VirtualDisk serves it inline.
  virtual bool completes_in_memory() const { return false; }

  /// Durability barrier: everything reaped so far is on stable storage when
  /// this returns OK. Caller must reap all in-flight operations first.
  virtual Status Flush() { return Status::OK(); }

  /// Recovery re-entry: trust exactly `blocks` as written and distrust
  /// everything else. A file reopened after a mid-write kill may end in a
  /// torn block the kill left half-written — any block a checkpoint
  /// manifest does not vouch for must read as never-written, not as data.
  /// Backends without reopen semantics (memory) ignore this.
  virtual void TrustOnly(const std::vector<uint64_t>& blocks) {
    (void)blocks;
  }

  size_t block_size() const { return block_size_; }

  /// Synchronous convenience built on the seam (Submit + Reap until done).
  /// Only valid while no other operation is in flight on this backend.
  Status ReadBlock(uint64_t index, void* buf);
  Status WriteBlock(uint64_t index, const void* buf);

 protected:
  explicit StorageBackend(size_t block_size) : block_size_(block_size) {}
  size_t block_size_;
};

namespace internal {

/// Blocks-ever-written tracking shared by the file-backed backends:
/// read-before-write detection plus the TrustOnly recovery contract.
class WrittenSet {
 public:
  bool Contains(uint64_t index) const {
    std::lock_guard<std::mutex> lock(mu_);
    return index < written_.size() && written_[index];
  }
  void Mark(uint64_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index >= written_.size()) written_.resize(index + 1, false);
    written_[index] = true;
  }
  /// Marks every block in [0, count) written (reopen of an existing file).
  void MarkThrough(uint64_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    if (count > written_.size()) written_.resize(count, false);
    for (uint64_t b = 0; b < count; ++b) written_[b] = true;
  }
  void TrustOnly(const std::vector<uint64_t>& blocks) {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t max_index = 0;
    for (uint64_t b : blocks) max_index = std::max(max_index, b + 1);
    written_.assign(static_cast<size_t>(max_index), false);
    for (uint64_t b : blocks) written_[static_cast<size_t>(b)] = true;
  }

 private:
  mutable std::mutex mu_;
  std::vector<bool> written_;
};

}  // namespace internal

/// Base for backends whose operations complete inside Submit(): the
/// completion is queued and handed out by the next Reap(), so the async
/// contract holds with queue capacity 1.
class InlineBackend : public StorageBackend {
 public:
  bool Submit(const IoOp& op) final;
  size_t Reap(std::vector<IoCompletion>* out, bool wait) final;

 protected:
  using StorageBackend::StorageBackend;
  virtual Status DoRead(uint64_t block, void* buf) = 0;
  virtual Status DoWrite(uint64_t block, const void* buf) = 0;

 private:
  std::vector<IoCompletion> ready_;
};

class MemoryBackend : public InlineBackend {
 public:
  explicit MemoryBackend(size_t block_size);
  bool completes_in_memory() const override { return true; }

 protected:
  Status DoRead(uint64_t block, void* buf) override;
  Status DoWrite(uint64_t block, const void* buf) override;

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<uint8_t[]>> blocks_;
};

class FileBackend : public InlineBackend {
 public:
  /// Creates (or truncates) the backing file. By default the file is a
  /// scratch disk: it is unlinked when the backend is destroyed. Pass
  /// `unlink_on_close = false` to keep it for a later Open().
  static StatusOr<std::unique_ptr<FileBackend>> Create(
      const std::string& path, size_t block_size,
      bool unlink_on_close = true);
  /// Opens an existing backing file without truncating; every block within
  /// the current file size counts as written. The file is kept on close.
  static StatusOr<std::unique_ptr<FileBackend>> Open(const std::string& path,
                                                     size_t block_size);
  ~FileBackend() override;

  bool completes_in_memory() const override { return true; }
  Status Flush() override;
  void TrustOnly(const std::vector<uint64_t>& blocks) override {
    written_.TrustOnly(blocks);
  }

 protected:
  Status DoRead(uint64_t block, void* buf) override;
  Status DoWrite(uint64_t block, const void* buf) override;

 private:
  FileBackend(int fd, std::string path, size_t block_size,
              bool unlink_on_close)
      : InlineBackend(block_size),
        fd_(fd),
        path_(std::move(path)),
        unlink_on_close_(unlink_on_close) {}
  int fd_;
  std::string path_;
  bool unlink_on_close_;
  internal::WrittenSet written_;
};

/// O_DIRECT file backend: the page cache is bypassed, so the kernel DMAs
/// straight into the pipeline's aligned block buffers. Requires block_size
/// to be a multiple of kBlockAlign (validated at Create/Open) and every
/// buffer entering the seam to be kBlockAlign-aligned (CHECKed per op).
/// Create/Open fail with IoError on filesystems without O_DIRECT (tmpfs).
class DirectBackend : public InlineBackend {
 public:
  static StatusOr<std::unique_ptr<DirectBackend>> Create(
      const std::string& path, size_t block_size,
      bool unlink_on_close = true);
  static StatusOr<std::unique_ptr<DirectBackend>> Open(
      const std::string& path, size_t block_size);
  ~DirectBackend() override;

  Status Flush() override;
  void TrustOnly(const std::vector<uint64_t>& blocks) override {
    written_.TrustOnly(blocks);
  }

 protected:
  Status DoRead(uint64_t block, void* buf) override;
  Status DoWrite(uint64_t block, const void* buf) override;

 private:
  DirectBackend(int fd, std::string path, size_t block_size,
                bool unlink_on_close)
      : InlineBackend(block_size),
        fd_(fd),
        path_(std::move(path)),
        unlink_on_close_(unlink_on_close) {}
  int fd_;
  std::string path_;
  bool unlink_on_close_;
  internal::WrittenSet written_;
};

/// The io_uring SQ depth a disk gets when no queue depth is asked for.
inline constexpr unsigned kDefaultUringQueueDepth = 32;

/// How a file-backed backend is opened; ignored by kMemory.
struct BackendFileOptions {
  std::string path;
  /// Scratch-disk semantics (unlink when the backend dies) vs durable.
  bool unlink_on_close = true;
  /// Reopen the existing file (recovery) instead of creating/truncating.
  bool reuse_existing = false;
  /// Submission-queue depth for kUring (its queue_capacity).
  unsigned queue_depth = kDefaultUringQueueDepth;
};

/// The one factory BlockManager, the conformance tests, and the benches
/// share. kUring returns Unimplemented when compiled out or when the kernel
/// refuses the ring; kDirect returns IoError on filesystems without
/// O_DIRECT — callers fall back or skip.
StatusOr<std::unique_ptr<StorageBackend>> MakeBackend(
    BackendKind kind, size_t block_size, const BackendFileOptions& options);

}  // namespace demsort::io

#endif  // DEMSORT_IO_BACKEND_H_
