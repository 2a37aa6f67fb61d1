// Per-disk I/O counters plus a device-model virtual clock.
//
// Real wall time on the emulation host says little about a 780-disk cluster;
// these counters record exactly what the algorithms did to each virtual disk
// (operations, bytes, sequential vs seeking access), and the device model
// turns that into modeled busy seconds using paper-grade constants. The
// queue-depth gauges record how deep the submission pump actually ran —
// the storage-side analogue of the net layer's recv_buffer_peak_bytes.
#ifndef DEMSORT_IO_IO_STATS_H_
#define DEMSORT_IO_IO_STATS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>

#include "obs/metrics.h"

namespace demsort::io {

/// Log2-of-microseconds buckets for the submit→complete latency histogram
/// that rides IoStatsSnapshot: bucket b counts ops with latency in
/// [2^b, 2^(b+1)) µs (bucket 0 also holds sub-µs ops, the last bucket
/// everything above ~32 ms). Buckets are counters: phase deltas subtract,
/// accumulation adds.
inline constexpr size_t kIoLatencyBuckets = 16;

inline size_t IoLatencyBucket(uint64_t latency_ns) {
  uint64_t us = latency_ns / 1000;
  size_t b = us <= 1 ? 0 : static_cast<size_t>(std::bit_width(us) - 1);
  return b < kIoLatencyBuckets ? b : kIoLatencyBuckets - 1;
}

/// Spinning-disk service-time model. Defaults match the paper's testbed:
/// Seagate Barracuda 7200.10, measured 60-71 MiB/s (avg 67), ~12 ms for a
/// seek + rotational latency on a random access.
struct DiskModel {
  double seek_ms = 12.0;
  double mib_per_s = 67.0;
  /// When true, the disk pump actually sleeps for the modeled service
  /// time, making overlap effects observable in real wall time (used by the
  /// overlap ablation; only meaningful with async disks).
  bool throttle = false;

  double SeekSeconds() const { return seek_ms * 1e-3; }
  double TransferSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / (mib_per_s * 1024.0 * 1024.0);
  }
};

struct IoStatsSnapshot {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t seeks = 0;
  /// Modeled device busy time, in nanoseconds (virtual clock).
  uint64_t model_busy_ns = 0;
  /// Real submit→complete latency summed over ops, in nanoseconds: from the
  /// moment an op is issued to the backend to the moment its completion is
  /// reaped (queueing at the device included).
  uint64_t submit_complete_ns = 0;
  /// Deepest the device queue ever ran (ops in flight at issue, the issued
  /// op included). A GAUGE: combine with max, reset per phase.
  uint64_t queue_depth_peak = 0;
  /// Sum over ops of in-flight depth at issue; mean depth is sum / ops().
  uint64_t queue_depth_sum = 0;
  /// Submit→complete latency distribution (see IoLatencyBucket).
  uint64_t lat_hist_us[kIoLatencyBuckets] = {};

  uint64_t ops() const { return reads + writes; }
  uint64_t bytes() const { return bytes_read + bytes_written; }
  double model_busy_s() const { return model_busy_ns * 1e-9; }
  double mean_queue_depth() const {
    return ops() == 0 ? 0.0
                      : static_cast<double>(queue_depth_sum) /
                            static_cast<double>(ops());
  }
  double mean_submit_complete_us() const {
    return ops() == 0 ? 0.0
                      : static_cast<double>(submit_complete_ns) * 1e-3 /
                            static_cast<double>(ops());
  }

  /// Upper bound (µs) of the bucket holding the p-quantile of the
  /// submit→complete latency distribution; 0 when no ops were recorded.
  uint64_t LatencyPercentileUpperUs(double p) const;

  /// Phase delta (end - begin) via the field schema below: counters
  /// subtract; the depth-peak gauge is taken from `this` — callers reset
  /// it at the start of the interval.
  IoStatsSnapshot operator-(const IoStatsSnapshot& rhs) const;
  IoStatsSnapshot& operator+=(const IoStatsSnapshot& rhs);
};

/// One-place field registry for IoStatsSnapshot (see obs/metrics.h). The
/// latency histogram is the one non-scalar member; its buckets are plain
/// counters handled elementwise by operator-/operator+= in io_stats.cc.
inline const bool kIoStatsSchemaRegistered = [] {
  using obs::MetricKind;
  auto& s = obs::SnapshotSchema<IoStatsSnapshot>::Mutable();
  using I = IoStatsSnapshot;
  s.Register("io.reads", MetricKind::kCounter, &I::reads);
  s.Register("io.writes", MetricKind::kCounter, &I::writes);
  s.Register("io.bytes_read", MetricKind::kCounter, &I::bytes_read);
  s.Register("io.bytes_written", MetricKind::kCounter, &I::bytes_written);
  s.Register("io.seeks", MetricKind::kCounter, &I::seeks);
  s.Register("io.model_busy_ns", MetricKind::kCounter, &I::model_busy_ns);
  s.Register("io.submit_complete_ns", MetricKind::kCounter,
             &I::submit_complete_ns);
  s.Register("io.queue_depth_peak", MetricKind::kGaugeMax,
             &I::queue_depth_peak);
  s.Register("io.queue_depth_sum", MetricKind::kCounter, &I::queue_depth_sum);
  return true;
}();

class IoStats {
 public:
  /// `depth` is the number of ops in flight when this op was issued
  /// (including itself); `submit_complete_ns` its issue→completion latency.
  void RecordRead(uint64_t bytes, bool seek, uint64_t model_ns,
                  uint64_t submit_complete_ns, uint64_t depth);
  void RecordWrite(uint64_t bytes, bool seek, uint64_t model_ns,
                   uint64_t submit_complete_ns, uint64_t depth);
  /// Phase boundary: forget the previous phase's depth peak (counters keep
  /// accumulating; only the gauge resets — mirrors ResetRecvBufferPeak on
  /// the net side).
  void ResetQueueDepthPeak();
  IoStatsSnapshot Snapshot() const;

 private:
  void RecordDepth(uint64_t depth) {
    queue_depth_sum_.fetch_add(depth, std::memory_order_relaxed);
    uint64_t peak = queue_depth_peak_.load(std::memory_order_relaxed);
    while (depth > peak && !queue_depth_peak_.compare_exchange_weak(
                               peak, depth, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> seeks_{0};
  std::atomic<uint64_t> model_busy_ns_{0};
  std::atomic<uint64_t> submit_complete_ns_{0};
  std::atomic<uint64_t> queue_depth_peak_{0};
  std::atomic<uint64_t> queue_depth_sum_{0};
  std::atomic<uint64_t> lat_hist_us_[kIoLatencyBuckets] = {};
};

}  // namespace demsort::io

#endif  // DEMSORT_IO_IO_STATS_H_
