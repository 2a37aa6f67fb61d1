// trace_lint: structural validator for the files the observability layer
// emits. CI runs it against real sort output; tests share the same checks
// through obs/trace_check.h.
//
//   ./trace_lint trace.json --expect-pids=8 --expect-names=phase,merge.partition
//                                   # Chrome trace: parses, every track
//                                   # monotonic and B/E balanced, exactly 8
//                                   # rank pids, the named spans present
//   ./trace_lint --stats stats.json --expect-pes=8
//                                   # straggler JSON: schema
//                                   # demsort-stats-v1, all four phases
//                                   # with per-rank wall distributions
//
// Exit code 0 = valid, 1 = lint failure, 2 = usage/IO error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_check.h"
#include "util/flags.h"

namespace {

using namespace demsort;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= s.size()) {
    size_t comma = s.find(',', begin);
    if (comma == std::string::npos) comma = s.size();
    if (comma > begin) out.push_back(s.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return out;
}

/// `expect_pids` < 0 skips the pid-count check.
int LintTrace(const std::string& path, int expect_pids,
              const std::vector<std::string>& expect_names) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "trace_lint: cannot read %s\n", path.c_str());
    return 2;
  }
  obs::TraceLint lint;
  if (!obs::LintChromeTrace(text, &lint)) {
    std::fprintf(stderr, "trace_lint: %s: %s\n", path.c_str(),
                 lint.err.c_str());
    return 1;
  }
  int rc = 0;
  if (!lint.monotonic) {
    std::fprintf(stderr,
                 "trace_lint: %s: timestamps regress within a track\n",
                 path.c_str());
    rc = 1;
  }
  if (!lint.balanced) {
    std::fprintf(stderr, "trace_lint: %s: unbalanced B/E events\n",
                 path.c_str());
    rc = 1;
  }
  if (expect_pids >= 0 && static_cast<int>(lint.pids.size()) != expect_pids) {
    std::fprintf(stderr, "trace_lint: %s: expected %d rank pids, found %zu\n",
                 path.c_str(), expect_pids, lint.pids.size());
    rc = 1;
  }
  for (const std::string& name : expect_names) {
    if (lint.names.count(name) == 0) {
      std::fprintf(stderr, "trace_lint: %s: span \"%s\" not found\n",
                   path.c_str(), name.c_str());
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("trace_lint: %s OK (%zu events, %zu pids, %zu span names)\n",
                path.c_str(), lint.events, lint.pids.size(),
                lint.names.size());
  }
  return rc;
}

/// One phase entry of the stats JSON: must carry a wall_s distribution whose
/// per_rank array matches the cluster size.
bool CheckPhase(const obs::JsonValue& phase, int pes, std::string* err) {
  const obs::JsonValue* name = phase.Find("phase");
  if (name == nullptr || name->type != obs::JsonValue::Type::kString) {
    *err = "phase entry without a name";
    return false;
  }
  const obs::JsonValue* wall = phase.Find("wall_s");
  if (wall == nullptr || wall->type != obs::JsonValue::Type::kObject) {
    *err = name->str + ": missing wall_s distribution";
    return false;
  }
  const obs::JsonValue* per_rank = wall->Find("per_rank");
  if (per_rank == nullptr ||
      per_rank->type != obs::JsonValue::Type::kArray ||
      (pes > 0 && static_cast<int>(per_rank->arr.size()) != pes)) {
    *err = name->str + ": wall_s.per_rank missing or wrong width";
    return false;
  }
  for (const char* key : {"min", "median", "max", "imbalance"}) {
    const obs::JsonValue* v = wall->Find(key);
    if (v == nullptr || v->type != obs::JsonValue::Type::kNumber) {
      *err = name->str + ": wall_s." + key + " missing";
      return false;
    }
  }
  return true;
}

/// `expect_pes` < 0 skips the cluster-size check.
int LintStats(const std::string& path, int expect_pes) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "trace_lint: cannot read %s\n", path.c_str());
    return 2;
  }
  obs::JsonValue doc;
  std::string err;
  if (!obs::ParseJson(text, &doc, &err)) {
    std::fprintf(stderr, "trace_lint: %s: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  const obs::JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->str != "demsort-stats-v1") {
    std::fprintf(stderr, "trace_lint: %s: missing/unknown schema\n",
                 path.c_str());
    return 1;
  }
  const obs::JsonValue* pes = doc.Find("pes");
  if (pes == nullptr || pes->type != obs::JsonValue::Type::kNumber ||
      pes->number < 1) {
    std::fprintf(stderr, "trace_lint: %s: bad pes\n", path.c_str());
    return 1;
  }
  if (expect_pes >= 0 && static_cast<int>(pes->number) != expect_pes) {
    std::fprintf(stderr, "trace_lint: %s: expected %d pes, found %d\n",
                 path.c_str(), expect_pes, static_cast<int>(pes->number));
    return 1;
  }
  const obs::JsonValue* phases = doc.Find("phases");
  if (phases == nullptr || phases->type != obs::JsonValue::Type::kArray ||
      phases->arr.empty()) {
    std::fprintf(stderr, "trace_lint: %s: missing phases array\n",
                 path.c_str());
    return 1;
  }
  for (const obs::JsonValue& phase : phases->arr) {
    if (!CheckPhase(phase, static_cast<int>(pes->number), &err)) {
      std::fprintf(stderr, "trace_lint: %s: %s\n", path.c_str(),
                   err.c_str());
      return 1;
    }
  }
  if (doc.Find("total") == nullptr) {
    std::fprintf(stderr, "trace_lint: %s: missing total section\n",
                 path.c_str());
    return 1;
  }
  std::printf("trace_lint: %s OK (%d pes, %zu phases)\n", path.c_str(),
              static_cast<int>(pes->number), phases->arr.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // The parser treats "--stats FILE" as the flag's value, so accept the
  // path either positionally or as that value.
  std::string path;
  const bool stats_mode = flags.Has("stats");
  if (stats_mode) {
    std::string v = flags.GetString("stats", "");
    if (!v.empty() && !flags.GetBool("stats", false)) path = v;
  }
  if (path.empty() && flags.positional().size() == 1) {
    path = flags.positional()[0];
  }
  if (path.empty() || (!flags.positional().empty() &&
                       path != flags.positional()[0])) {
    std::fprintf(stderr,
                 "usage: trace_lint FILE [--expect-pids=N] "
                 "[--expect-names=a,b] | trace_lint --stats FILE "
                 "[--expect-pes=N]\n");
    return 2;
  }
  if (stats_mode) {
    const int expect_pes = flags.Has("expect-pes")
                               ? static_cast<int>(flags.GetInt("expect-pes", 0))
                               : -1;
    flags.ExitOnUnknownFlags();
    return LintStats(path, expect_pes);
  }
  const int expect_pids =
      flags.Has("expect-pids")
          ? static_cast<int>(flags.GetInt("expect-pids", 0))
          : -1;
  const std::vector<std::string> expect_names =
      SplitCommas(flags.GetString("expect-names", ""));
  flags.ExitOnUnknownFlags();
  return LintTrace(path, expect_pids, expect_names);
}
