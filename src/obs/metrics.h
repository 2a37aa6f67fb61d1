// Static metric schemas for the stats snapshot structs.
//
// SnapshotSchema<S>: a static, per-snapshot-struct registry of named fields
// with semantics (counter vs gauge). The stats structs that ride SortReport
// over the wire (net::NetStatsSnapshot, io::IoStatsSnapshot) must stay
// trivially copyable plain structs, so each struct registers every field
// ONCE, next to its declaration, and every consumer (phase delta at
// PhaseCollector::End, epoch accumulation, report export, straggler JSON)
// walks the schema generically. Adding a stat is: add the field, register
// it — delta/accumulate/export follow for free.
//
// Naming convention: "<layer>.<noun>[_<unit>]" — e.g. "net.bytes_sent",
// "io.queue_depth_peak". Dots group, units last.
#ifndef DEMSORT_OBS_METRICS_H_
#define DEMSORT_OBS_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace demsort::obs {

enum class MetricKind : uint8_t {
  /// Monotone counter: phase delta subtracts, accumulation adds.
  kCounter,
  /// High-water gauge reset at phase Begin: delta takes the current value,
  /// accumulation takes the max.
  kGaugeMax,
};

inline const char* MetricKindName(MetricKind k) {
  return k == MetricKind::kCounter ? "counter" : "gauge";
}

/// The static field registry for snapshot struct S (all fields uint64_t).
/// Populated once at startup by the struct's RegisterSchema hook; every
/// generic operation over S derives from this single field list.
template <typename S>
class SnapshotSchema {
 public:
  struct Field {
    const char* name;
    MetricKind kind;
    uint64_t S::*ptr;
  };

  static SnapshotSchema& Mutable() {
    static SnapshotSchema* schema = new SnapshotSchema();
    return *schema;
  }
  static const SnapshotSchema& Get() { return Mutable(); }

  void Register(const char* name, MetricKind kind, uint64_t S::*ptr) {
    fields_.push_back(Field{name, kind, ptr});
  }

  /// end-of-interval minus begin-of-interval, folded into *acc (the phase
  /// accumulator): counters add their delta, gauges max their current
  /// value. Gauges must have been reset at the interval's begin boundary.
  void FoldDelta(S* acc, const S& now, const S& begin) const {
    for (const Field& f : fields_) {
      if (f.kind == MetricKind::kCounter) {
        acc->*f.ptr += now.*f.ptr - begin.*f.ptr;
      } else {
        acc->*f.ptr = std::max(acc->*f.ptr, now.*f.ptr);
      }
    }
  }

  /// Pure interval delta (the classic snapshot operator-): counters
  /// subtract, gauges keep the minuend's value.
  S Delta(const S& end, const S& begin) const {
    S d = end;
    for (const Field& f : fields_) {
      if (f.kind == MetricKind::kCounter) d.*f.ptr = end.*f.ptr - begin.*f.ptr;
    }
    return d;
  }

  /// Merges another interval into *acc: counters add, gauges max.
  void Accumulate(S* acc, const S& other) const {
    for (const Field& f : fields_) {
      if (f.kind == MetricKind::kCounter) {
        acc->*f.ptr += other.*f.ptr;
      } else {
        acc->*f.ptr = std::max(acc->*f.ptr, other.*f.ptr);
      }
    }
  }

  template <typename Fn>
  void ForEach(const S& s, Fn&& fn) const {
    for (const Field& f : fields_) fn(f.name, f.kind, s.*f.ptr);
  }

  size_t size() const { return fields_.size(); }

 private:
  SnapshotSchema() = default;
  std::vector<Field> fields_;
};

}  // namespace demsort::obs

#endif  // DEMSORT_OBS_METRICS_H_
