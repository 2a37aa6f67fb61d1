// End-of-run straggler report: the per-rank per-phase wall / IO / net
// distribution rank 0 already gathers (core::SortReport), summarized as
// min / median / max / mean with an imbalance ratio (max over mean — 1.0
// is perfect balance) and the slowest rank named. Printed as a table by
// `sortbench_cli --stats`, exported as JSON by `--stats-json=FILE`; the
// JSON also carries the full schema walk of every registered net/io metric
// per rank, so a new counter shows up in the export the moment it is
// registered.
#ifndef DEMSORT_OBS_STRAGGLER_H_
#define DEMSORT_OBS_STRAGGLER_H_

#include <string>
#include <vector>

#include "core/phase_stats.h"

namespace demsort::obs {

/// Summary of one metric's distribution over ranks.
struct DistSummary {
  double min = 0;
  double median = 0;
  double max = 0;
  double mean = 0;
  /// max / mean; 0 when the metric is 0 everywhere.
  double imbalance = 0;
  int slowest_rank = -1;  // argmax
};

DistSummary Summarize(const std::vector<double>& per_rank);

/// The --stats table: one row per phase plus a totals row.
std::string FormatStragglerTable(
    const std::vector<core::SortReport>& reports);

/// Writes the full JSON report (schema "demsort-stats-v1"): per phase the
/// wall / io-busy / io-bytes / net-bytes distributions, the generic metric
/// walk per rank, IO latency percentiles and totals. `emulation_wall_s` < 0
/// omits the field.
bool WriteStatsJson(const std::string& path,
                    const std::vector<core::SortReport>& reports,
                    double emulation_wall_s);

}  // namespace demsort::obs

#endif  // DEMSORT_OBS_STRAGGLER_H_
