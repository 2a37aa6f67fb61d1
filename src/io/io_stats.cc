#include "io/io_stats.h"

namespace demsort::io {

uint64_t IoStatsSnapshot::LatencyPercentileUpperUs(double p) const {
  uint64_t total = 0;
  for (uint64_t c : lat_hist_us) total += c;
  if (total == 0) return 0;
  uint64_t target = static_cast<uint64_t>(p * static_cast<double>(total));
  if (target >= total) target = total - 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kIoLatencyBuckets; ++b) {
    seen += lat_hist_us[b];
    if (seen > target) return uint64_t{1} << (b + 1);
  }
  return uint64_t{1} << kIoLatencyBuckets;
}

IoStatsSnapshot IoStatsSnapshot::operator-(const IoStatsSnapshot& rhs) const {
  IoStatsSnapshot d =
      obs::SnapshotSchema<IoStatsSnapshot>::Get().Delta(*this, rhs);
  for (size_t b = 0; b < kIoLatencyBuckets; ++b) {
    d.lat_hist_us[b] = lat_hist_us[b] - rhs.lat_hist_us[b];
  }
  return d;
}

IoStatsSnapshot& IoStatsSnapshot::operator+=(const IoStatsSnapshot& rhs) {
  // Counters add, the depth-peak gauge maxes (deepest queue across the
  // combined disks, not their sum) — all encoded in the schema.
  obs::SnapshotSchema<IoStatsSnapshot>::Get().Accumulate(this, rhs);
  for (size_t b = 0; b < kIoLatencyBuckets; ++b) {
    lat_hist_us[b] += rhs.lat_hist_us[b];
  }
  return *this;
}

void IoStats::RecordRead(uint64_t bytes, bool seek, uint64_t model_ns,
                         uint64_t submit_complete_ns, uint64_t depth) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  if (seek) seeks_.fetch_add(1, std::memory_order_relaxed);
  model_busy_ns_.fetch_add(model_ns, std::memory_order_relaxed);
  submit_complete_ns_.fetch_add(submit_complete_ns,
                                std::memory_order_relaxed);
  lat_hist_us_[IoLatencyBucket(submit_complete_ns)].fetch_add(
      1, std::memory_order_relaxed);
  RecordDepth(depth);
}

void IoStats::RecordWrite(uint64_t bytes, bool seek, uint64_t model_ns,
                          uint64_t submit_complete_ns, uint64_t depth) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  if (seek) seeks_.fetch_add(1, std::memory_order_relaxed);
  model_busy_ns_.fetch_add(model_ns, std::memory_order_relaxed);
  submit_complete_ns_.fetch_add(submit_complete_ns,
                                std::memory_order_relaxed);
  lat_hist_us_[IoLatencyBucket(submit_complete_ns)].fetch_add(
      1, std::memory_order_relaxed);
  RecordDepth(depth);
}

void IoStats::ResetQueueDepthPeak() {
  queue_depth_peak_.store(0, std::memory_order_relaxed);
}

IoStatsSnapshot IoStats::Snapshot() const {
  IoStatsSnapshot s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.seeks = seeks_.load(std::memory_order_relaxed);
  s.model_busy_ns = model_busy_ns_.load(std::memory_order_relaxed);
  s.submit_complete_ns = submit_complete_ns_.load(std::memory_order_relaxed);
  s.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  s.queue_depth_sum = queue_depth_sum_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kIoLatencyBuckets; ++b) {
    s.lat_hist_us[b] = lat_hist_us_[b].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace demsort::io
