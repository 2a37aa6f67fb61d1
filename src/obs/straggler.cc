#include "obs/straggler.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "obs/metrics.h"

namespace demsort::obs {

namespace {

constexpr size_t kNumPhases = static_cast<size_t>(core::Phase::kNumPhases);

std::vector<double> PerRank(
    const std::vector<core::SortReport>& reports,
    const std::function<double(const core::SortReport&)>& get) {
  std::vector<double> v;
  v.reserve(reports.size());
  for (const auto& r : reports) v.push_back(get(r));
  return v;
}

void AppendJsonDoubleArray(std::string* out, const std::vector<double>& v) {
  char buf[64];
  *out += "[";
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    *out += buf;
  }
  *out += "]";
}

void AppendSummaryObject(std::string* out, const std::vector<double>& v) {
  DistSummary s = Summarize(v);
  char buf[256];
  *out += "{\"per_rank\": ";
  AppendJsonDoubleArray(out, v);
  std::snprintf(buf, sizeof(buf),
                ", \"min\": %.6g, \"median\": %.6g, \"max\": %.6g, "
                "\"mean\": %.6g, \"imbalance\": %.4g, \"slowest_rank\": %d}",
                s.min, s.median, s.max, s.mean, s.imbalance, s.slowest_rank);
  *out += buf;
}

}  // namespace

DistSummary Summarize(const std::vector<double>& per_rank) {
  DistSummary s;
  if (per_rank.empty()) return s;
  std::vector<double> sorted = per_rank;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  size_t n = sorted.size();
  s.median = n % 2 == 1 ? sorted[n / 2]
                        : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  double sum = 0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(n);
  s.imbalance = s.mean > 0 ? s.max / s.mean : 0;
  s.slowest_rank = static_cast<int>(
      std::max_element(per_rank.begin(), per_rank.end()) - per_rank.begin());
  return s;
}

std::string FormatStragglerTable(
    const std::vector<core::SortReport>& reports) {
  std::string out;
  if (reports.empty()) return out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "straggler report over %zu ranks (imbalance = max/mean; "
                "1.00 = perfectly balanced)\n",
                reports.size());
  out += buf;
  std::snprintf(
      buf, sizeof(buf), "%-18s %10s %10s %10s %6s %8s %8s %8s\n", "phase",
      "wall_min_s", "wall_med_s", "wall_max_s", "imb", "slowest",
      "io_imb", "net_imb");
  out += buf;

  auto row = [&](const char* name,
                 const std::function<const core::PhaseStats&(
                     const core::SortReport&)>& get) {
    DistSummary wall = Summarize(
        PerRank(reports, [&](const core::SortReport& r) {
          return get(r).wall_s;
        }));
    DistSummary io = Summarize(
        PerRank(reports, [&](const core::SortReport& r) {
          return static_cast<double>(get(r).io.bytes());
        }));
    DistSummary net = Summarize(
        PerRank(reports, [&](const core::SortReport& r) {
          return static_cast<double>(get(r).net.bytes_sent);
        }));
    std::snprintf(buf, sizeof(buf),
                  "%-18s %10.4f %10.4f %10.4f %6.2f %8d %8.2f %8.2f\n", name,
                  wall.min, wall.median, wall.max, wall.imbalance,
                  wall.slowest_rank, io.imbalance, net.imbalance);
    out += buf;
  };

  std::vector<core::PhaseStats> totals(reports.size());
  for (size_t r = 0; r < reports.size(); ++r) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      totals[r].Accumulate(reports[r].phase[p]);
    }
  }
  for (size_t p = 0; p < kNumPhases; ++p) {
    core::Phase phase = static_cast<core::Phase>(p);
    row(core::PhaseName(phase),
        [p](const core::SortReport& r) -> const core::PhaseStats& {
          return r.phase[p];
        });
  }
  row("total", [&totals, &reports](
                   const core::SortReport& r) -> const core::PhaseStats& {
    return totals[static_cast<size_t>(&r - reports.data())];
  });
  return out;
}

bool WriteStatsJson(const std::string& path,
                    const std::vector<core::SortReport>& reports,
                    double emulation_wall_s) {
  if (reports.empty()) return false;
  std::string out;
  out.reserve(1 << 16);
  char buf[256];
  out += "{\n  \"schema\": \"demsort-stats-v1\",\n";
  std::snprintf(buf, sizeof(buf), "  \"pes\": %zu,\n", reports.size());
  out += buf;
  if (emulation_wall_s >= 0) {
    std::snprintf(buf, sizeof(buf), "  \"emulation_wall_s\": %.6g,\n",
                  emulation_wall_s);
    out += buf;
  }

  auto phase_object = [&](const std::function<const core::PhaseStats&(
                              const core::SortReport&)>& get) {
    out += "      \"wall_s\": ";
    AppendSummaryObject(&out, PerRank(reports, [&](const auto& r) {
                          return get(r).wall_s;
                        }));
    out += ",\n      \"io_busy_max_disk_s\": ";
    AppendSummaryObject(&out, PerRank(reports, [&](const auto& r) {
                          return get(r).io_busy_max_disk_s;
                        }));
    out += ",\n      \"io_bytes\": ";
    AppendSummaryObject(&out, PerRank(reports, [&](const auto& r) {
                          return static_cast<double>(get(r).io.bytes());
                        }));
    out += ",\n      \"net_bytes_sent\": ";
    AppendSummaryObject(&out, PerRank(reports, [&](const auto& r) {
                          return static_cast<double>(get(r).net.bytes_sent);
                        }));
    out += ",\n      \"io_latency_p50_us\": ";
    AppendJsonDoubleArray(&out, PerRank(reports, [&](const auto& r) {
                            return static_cast<double>(
                                get(r).io.LatencyPercentileUpperUs(0.5));
                          }));
    out += ",\n      \"io_latency_p99_us\": ";
    AppendJsonDoubleArray(&out, PerRank(reports, [&](const auto& r) {
                            return static_cast<double>(
                                get(r).io.LatencyPercentileUpperUs(0.99));
                          }));
    // The generic walk: every metric the stats headers registered, per
    // rank — new fields appear here with zero exporter changes.
    out += ",\n      \"metrics\": {\n";
    bool first_metric = true;
    auto emit_metric = [&](const char* name, MetricKind kind,
                           const std::vector<double>& per_rank) {
      if (!first_metric) out += ",\n";
      first_metric = false;
      out += "        \"";
      out += name;
      out += "\": {\"kind\": \"";
      out += MetricKindName(kind);
      out += "\", \"per_rank\": ";
      AppendJsonDoubleArray(&out, per_rank);
      out += "}";
    };
    const auto& net_schema =
        SnapshotSchema<net::NetStatsSnapshot>::Get();
    size_t net_fields = net_schema.size();
    for (size_t f = 0; f < net_fields; ++f) {
      // Walk field f of every rank's snapshot in lockstep.
      const char* fname = nullptr;
      MetricKind fkind = MetricKind::kCounter;
      std::vector<double> vals;
      vals.reserve(reports.size());
      for (const auto& r : reports) {
        size_t i = 0;
        net_schema.ForEach(get(r).net, [&](const char* name, MetricKind kind,
                                           uint64_t value) {
          if (i++ == f) {
            fname = name;
            fkind = kind;
            vals.push_back(static_cast<double>(value));
          }
        });
      }
      if (fname != nullptr) emit_metric(fname, fkind, vals);
    }
    const auto& io_schema = SnapshotSchema<io::IoStatsSnapshot>::Get();
    size_t io_fields = io_schema.size();
    for (size_t f = 0; f < io_fields; ++f) {
      const char* fname = nullptr;
      MetricKind fkind = MetricKind::kCounter;
      std::vector<double> vals;
      vals.reserve(reports.size());
      for (const auto& r : reports) {
        size_t i = 0;
        io_schema.ForEach(get(r).io, [&](const char* name, MetricKind kind,
                                         uint64_t value) {
          if (i++ == f) {
            fname = name;
            fkind = kind;
            vals.push_back(static_cast<double>(value));
          }
        });
      }
      if (fname != nullptr) emit_metric(fname, fkind, vals);
    }
    out += "\n      }";
  };

  out += "  \"phases\": [\n";
  for (size_t p = 0; p < kNumPhases; ++p) {
    out += "    {\n      \"phase\": \"";
    out += core::PhaseName(static_cast<core::Phase>(p));
    out += "\",\n";
    phase_object([p](const core::SortReport& r) -> const core::PhaseStats& {
      return r.phase[p];
    });
    out += p + 1 < kNumPhases ? "\n    },\n" : "\n    }\n";
  }
  out += "  ],\n";

  std::vector<core::PhaseStats> totals(reports.size());
  for (size_t r = 0; r < reports.size(); ++r) {
    for (size_t p = 0; p < kNumPhases; ++p) {
      totals[r].Accumulate(reports[r].phase[p]);
    }
  }
  out += "  \"total\": {\n";
  phase_object([&totals, &reports](
                   const core::SortReport& r) -> const core::PhaseStats& {
    return totals[static_cast<size_t>(&r - reports.data())];
  });
  out += "\n  }\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(out.data(), 1, out.size(), f);
  bool ok = written == out.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace demsort::obs
