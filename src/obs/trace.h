// Low-overhead span tracer: per-thread lock-free ring buffers of fixed-size
// SpanEvents, drained after the timed region into one Chrome trace-event
// JSON (load in Perfetto / chrome://tracing, one track per rank x thread).
//
// Design constraints, in order:
//   1. A recorded event is one steady-clock read plus one ring-slot store on
//     the recording thread — no locks, no allocation, no syscalls. Rings are
//     single-writer (thread-local); the collector only reads them after the
//     tracer is disabled, synchronizing through the ring's release/acquire
//     write cursor.
//   2. When tracing is compiled out (DEMSORT_TRACING=0) the TRACE_* macros
//     expand to nothing at all; when compiled in but not enabled, a span is
//     one relaxed atomic load.
//   3. Overflow keeps the NEWEST events (the ring wraps) and counts drops —
//     the end of a sort matters more than its first microseconds.
//
// Timestamps are steady-clock nanoseconds normalized per rank: every rank
// calls MarkSessionStart() at the sort's opening barrier and exports event
// times relative to that mark, so ranks in different processes (or on
// different machines, whose clocks never agree) still line up to within a
// barrier's skew. Event names / categories / arg names must be string
// literals (static storage): the ring stores the pointers and the serializer
// interns them into a per-rank string table, which is what crosses process
// boundaries during collection.
#ifndef DEMSORT_OBS_TRACE_H_
#define DEMSORT_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.h"

// Compile-time gate. The build defines DEMSORT_TRACING=0 to compile every
// TRACE_* macro in the codebase down to nothing (CMake option
// -DDEMSORT_TRACING=OFF); default is instrumented.
#ifndef DEMSORT_TRACING
#define DEMSORT_TRACING 1
#endif

namespace demsort::obs {

enum class EventType : uint8_t {
  kBegin = 0,    // Chrome "B"
  kEnd = 1,      // Chrome "E"
  kInstant = 2,  // Chrome "i" (thread scope)
  kComplete = 3, // Chrome "X" (ts + dur, recorded at completion time)
};

/// One fixed-size trace record. `name`, `cat` and arg names must point at
/// string literals; the serializer interns them by pointer identity.
struct SpanEvent {
  int64_t ts_ns = 0;
  int64_t dur_ns = 0;  // kComplete only
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg1_name = nullptr;
  const char* arg2_name = nullptr;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
  int32_t rank = -1;
  EventType type = EventType::kInstant;
};

/// Single-writer ring of the most recent kCapacity events of one thread.
/// The owning thread Push()es; the collector reads [head - size, head) after
/// tracing is disabled. head_ is released after the slot write, so every
/// event below an acquired head is fully written.
class TraceRing {
 public:
  static constexpr size_t kCapacityLog2 = 13;
  static constexpr size_t kCapacity = size_t{1} << kCapacityLog2;  // 8192

  void Push(const SpanEvent& e) {
    uint64_t h = head_.load(std::memory_order_relaxed);
    events_[h & (kCapacity - 1)] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  uint64_t head() const { return head_.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    uint64_t h = head();
    return h > kCapacity ? h - kCapacity : 0;
  }
  const SpanEvent& at(uint64_t i) const { return events_[i & (kCapacity - 1)]; }
  void Clear() { head_.store(0, std::memory_order_release); }

  /// Stable per-process thread index, assigned at registration.
  uint32_t tid = 0;
  /// Optional static name for the track ("pe", "pool-w3", ...).
  const char* thread_name = nullptr;

 private:
  std::atomic<uint64_t> head_{0};
  std::vector<SpanEvent> events_ = std::vector<SpanEvent>(kCapacity);
};

namespace internal {
// Thread-local recording state. The rank is stamped by whoever owns the
// thread (PE threads, pool workers, disk pumps, the uplink reactor); events
// from unstamped threads carry rank -1 and are kept only by the local
// (partial-trace) writer, never by the cross-rank gather. The ring pointer
// stays null until the thread records its first event, so threads of an
// untraced run never allocate ring storage. constinit: no dynamic
// initialization, so other translation units access the variables directly
// instead of through GCC's TLS wrapper function, which UBSan's null check
// misreads as a null load.
extern constinit thread_local TraceRing* t_ring;
extern constinit thread_local int t_rank;
extern constinit thread_local const char* t_name;
}  // namespace internal

/// Global tracer: owns every registered ring, the enable flag, and the
/// per-process session mark used to normalize timestamps.
class Tracer {
 public:
  static Tracer& Get();

  /// Arms recording. Cheap to call repeatedly.
  void Enable();
  /// Disarms recording. After a Disable() on the recording side plus any
  /// happens-before edge to the reader (the collectors use a comm barrier),
  /// rings are safe to read.
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Timestamp origin for this process's exported events; first caller wins
  /// (in-process ranks share one steady clock, so one mark per process is
  /// one mark per rank). Re-armed by Clear().
  void MarkSessionStart();
  int64_t session_start_ns() const {
    return session_start_ns_.load(std::memory_order_relaxed);
  }

  /// The calling thread's ring, registering it on first use.
  TraceRing& Ring();

  /// Drops all recorded events and the session mark (tests).
  void Clear();

  /// Total events overwritten by ring wrap, over all rings.
  uint64_t DroppedEvents() const;

  /// Serializes this process's events for `rank` (rank < 0: all events,
  /// unstamped threads included) into the portable wire format consumed by
  /// DecodeWire / WriteChromeTraceJson. Call only while disabled.
  std::vector<uint8_t> SerializeRank(int rank) const;

  // ---- wire + JSON (static: rank 0 merges blobs from many processes) ----

  struct WireEvent {
    int64_t ts_ns = 0;  // already session-relative
    int64_t dur_ns = 0;
    uint32_t name = 0;  // string-table ids
    uint32_t cat = 0;
    uint32_t arg1_name = 0;  // UINT32_MAX: absent
    uint32_t arg2_name = 0;
    uint64_t arg1 = 0;
    uint64_t arg2 = 0;
    int32_t rank = -1;
    uint32_t tid = 0;
    EventType type = EventType::kInstant;
  };
  struct WireTrace {
    std::vector<std::string> strings;
    std::vector<std::pair<uint32_t, uint32_t>> thread_names;  // (tid, string)
    std::vector<WireEvent> events;
    uint64_t dropped = 0;
  };
  /// Returns false on a malformed blob (truncated / bad magic).
  static bool DecodeWire(const std::vector<uint8_t>& blob, WireTrace* out);
  /// Merges per-rank blobs into one Chrome trace-event JSON file. Events are
  /// sorted per track, unmatched E events dropped and unclosed B spans
  /// closed at the track's last timestamp, so the output is always
  /// well-formed — including for partial traces from killed runs. Returns
  /// false only on file-write failure.
  static bool WriteChromeTraceJson(const std::string& path,
                                   const std::vector<std::vector<uint8_t>>& blobs);

 private:
  Tracer() = default;
  TraceRing* RegisterThread();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> session_start_ns_{-1};
  mutable std::atomic<uint32_t> next_tid_{0};
  // Ring registry: append-only under mu_; readers snapshot under mu_.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

/// Stamps the calling thread's rank for every event it records from now on.
/// Dedicated threads (PE mains, pool workers, disk pumps, reactors) set it
/// once at thread start and never restore. Pure TLS writes — no allocation.
inline void SetThreadRank(int rank) { internal::t_rank = rank; }
inline int ThreadRank() { return internal::t_rank; }
/// Names the calling thread's track in the exported trace ("pe", "reactor",
/// "disk-pump", ...). Must be a string literal.
inline void SetThreadName(const char* static_name) {
  internal::t_name = static_name;
  if (internal::t_ring != nullptr) {
    internal::t_ring->thread_name = static_name;
  }
}

/// Writes this process's events (all ranks present, unstamped threads
/// included) straight to `path` — the partial-trace escape hatch when the
/// cross-rank gather is impossible (CommError after a fault injection).
bool WriteLocalTrace(const std::string& path);

// ---- recording primitives (used by the macros; callable directly) ----

inline void Emit(EventType type, const char* cat, const char* name,
                 int64_t ts_ns, int64_t dur_ns, const char* a1n, uint64_t a1,
                 const char* a2n, uint64_t a2) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  SpanEvent e;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.name = name;
  e.cat = cat;
  e.arg1_name = a1n;
  e.arg2_name = a2n;
  e.arg1 = a1;
  e.arg2 = a2;
  e.rank = internal::t_rank;
  e.type = type;
  t.Ring().Push(e);
}

inline void EmitInstant(const char* cat, const char* name,
                        const char* a1n = nullptr, uint64_t a1 = 0,
                        const char* a2n = nullptr, uint64_t a2 = 0) {
  Emit(EventType::kInstant, cat, name, NowNanos(), 0, a1n, a1, a2n, a2);
}

/// A completed interval recorded after the fact with an explicit start —
/// how the disk pump traces submit→reap without touching the submit path.
inline void EmitComplete(const char* cat, const char* name, int64_t start_ns,
                         int64_t dur_ns, const char* a1n = nullptr,
                         uint64_t a1 = 0, const char* a2n = nullptr,
                         uint64_t a2 = 0) {
  Emit(EventType::kComplete, cat, name, start_ns, dur_ns, a1n, a1, a2n, a2);
}

/// RAII span: Begin at construction, End at destruction. One enabled-check
/// per edge; inert when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name, const char* a1n = nullptr,
             uint64_t a1 = 0, const char* a2n = nullptr, uint64_t a2 = 0)
      : cat_(cat), name_(name) {
    active_ = Tracer::Get().enabled();
    if (active_) {
      Emit(EventType::kBegin, cat_, name_, NowNanos(), 0, a1n, a1, a2n, a2);
    }
  }
  ~ScopedSpan() {
    if (active_) {
      Emit(EventType::kEnd, cat_, name_, NowNanos(), 0, nullptr, 0, nullptr,
           0);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* cat_;
  const char* name_;
  bool active_ = false;
};

}  // namespace demsort::obs

// Macro layer: compiled to nothing when DEMSORT_TRACING=0. Category, name
// and arg-name operands must be string literals.
#if DEMSORT_TRACING
#define DEMSORT_TRACE_CAT2(a, b) a##b
#define DEMSORT_TRACE_CAT(a, b) DEMSORT_TRACE_CAT2(a, b)
#define TRACE_SPAN(cat, name) \
  ::demsort::obs::ScopedSpan DEMSORT_TRACE_CAT(trace_span_, __LINE__)(cat, name)
#define TRACE_SPAN1(cat, name, a1n, a1)                                   \
  ::demsort::obs::ScopedSpan DEMSORT_TRACE_CAT(trace_span_, __LINE__)(    \
      cat, name, a1n, static_cast<uint64_t>(a1))
#define TRACE_SPAN2(cat, name, a1n, a1, a2n, a2)                          \
  ::demsort::obs::ScopedSpan DEMSORT_TRACE_CAT(trace_span_, __LINE__)(    \
      cat, name, a1n, static_cast<uint64_t>(a1), a2n,                     \
      static_cast<uint64_t>(a2))
#define TRACE_INSTANT(cat, name) ::demsort::obs::EmitInstant(cat, name)
#define TRACE_INSTANT1(cat, name, a1n, a1) \
  ::demsort::obs::EmitInstant(cat, name, a1n, static_cast<uint64_t>(a1))
#define TRACE_INSTANT2(cat, name, a1n, a1, a2n, a2)                  \
  ::demsort::obs::EmitInstant(cat, name, a1n,                        \
                              static_cast<uint64_t>(a1), a2n,        \
                              static_cast<uint64_t>(a2))
#define TRACE_COMPLETE(cat, name, start_ns, dur_ns) \
  ::demsort::obs::EmitComplete(cat, name, start_ns, dur_ns)
#define TRACE_COMPLETE1(cat, name, start_ns, dur_ns, a1n, a1)        \
  ::demsort::obs::EmitComplete(cat, name, start_ns, dur_ns, a1n,     \
                               static_cast<uint64_t>(a1))
#define TRACE_COMPLETE2(cat, name, start_ns, dur_ns, a1n, a1, a2n, a2) \
  ::demsort::obs::EmitComplete(cat, name, start_ns, dur_ns, a1n,       \
                               static_cast<uint64_t>(a1), a2n,         \
                               static_cast<uint64_t>(a2))
#define TRACE_THREAD_RANK(rank) ::demsort::obs::SetThreadRank(rank)
#define TRACE_THREAD_NAME(name) ::demsort::obs::SetThreadName(name)
#else
#define TRACE_SPAN(cat, name) \
  do {                        \
  } while (0)
#define TRACE_SPAN1(cat, name, a1n, a1) \
  do {                                  \
  } while (0)
#define TRACE_SPAN2(cat, name, a1n, a1, a2n, a2) \
  do {                                           \
  } while (0)
#define TRACE_INSTANT(cat, name) \
  do {                           \
  } while (0)
#define TRACE_INSTANT1(cat, name, a1n, a1) \
  do {                                     \
  } while (0)
#define TRACE_INSTANT2(cat, name, a1n, a1, a2n, a2) \
  do {                                              \
  } while (0)
#define TRACE_COMPLETE(cat, name, start_ns, dur_ns) \
  do {                                              \
  } while (0)
#define TRACE_COMPLETE1(cat, name, start_ns, dur_ns, a1n, a1) \
  do {                                                        \
  } while (0)
#define TRACE_COMPLETE2(cat, name, start_ns, dur_ns, a1n, a1, a2n, a2) \
  do {                                                                 \
  } while (0)
#define TRACE_THREAD_RANK(rank) \
  do {                          \
  } while (0)
#define TRACE_THREAD_NAME(name) \
  do {                          \
  } while (0)
#endif  // DEMSORT_TRACING

#endif  // DEMSORT_OBS_TRACE_H_
