#!/usr/bin/env bash
# Reproducible perf snapshot: runs the fig5 all-to-all I/O-volume sweep at
# fixed seeds/sizes, and — since the async storage engine — the overlap
# ablation swept across storage backends and queue depths. Emits
# one machine-readable BENCH_PR9.json — the file future PRs diff to see
# the perf trajectory.
#
# Since the parallel merge engine it also sweeps the final-merge ablation
# (uniform and clustered keys crossed with 1/2/4 merge workers, per storage
# backend).
#
# Since the observability layer it also snapshots a straggler report: a
# P=4 hierarchical sort run with --stats-json, written alongside the bench
# JSON as OUT.stats.json, so per-rank per-phase wall/IO/net distributions
# ride the same perf trajectory as the counters.
#
# Usage: bench/run_bench.sh [BUILD_DIR] [OUT_JSON]
#   BUILD_DIR  cmake build directory holding the benches (default: build)
#   OUT_JSON   output path (default: BENCH_PR9.json in the repo root)
#
# Everything here is deterministic up to wall-clock timings: the workload
# seeds are fixed (FigureConfig's default seed), the sweep sizes are pinned
# below, and message/volume/connection/queue-depth counters are exact —
# compare those, not seconds. Storage backends the host cannot serve
# (O_DIRECT on tmpfs, io_uring behind seccomp or compiled out) are
# recorded as skipped rows, not failures.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_PR9.json}"

for bin in fig5_alltoall_io_volume ablation_overlap ablation_merge sortbench_cli trace_lint; do
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "error: $BUILD_DIR/$bin not built" >&2
    exit 2
  fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# 1. Fig. 5 all-to-all I/O volume at fixed sizes: P = 1..8 at the default
#    131072 elements/PE — large enough that the a2a phase actually hits
#    disk (tiny inputs take the in-place fast path and report all-zero
#    columns, which would carry no trajectory signal). Parsed to JSON rows.
"$BUILD_DIR/fig5_alltoall_io_volume" --max-pes 8 > "$tmpdir/fig5.txt"

awk '
  /^#/ { next }
  /^ *P / { for (i = 2; i <= NF; ++i) name[i] = $i; next }
  NF > 1 {
    printf "      {\"P\": %d", $1
    for (i = 2; i <= NF; ++i) printf ", \"%s\": %s", name[i], $i
    printf "},\n"
  }
' "$tmpdir/fig5.txt" | sed '$ s/,$//' > "$tmpdir/fig5_rows.json"

# 2. Storage-engine ablations. Each (backend, queue-depth) cell runs the
#    run-formation overlap ablation (sync vs async crossed with overlap
#    on/off; ioq_peak proves the async rows actually ran at depth) and the
#    final-merge ablation. Unavailable backends print a
#    '# storage=... unavailable' marker and exit 0; we record them skipped.
STORAGE_DIR="$tmpdir/storage"
mkdir -p "$STORAGE_DIR"
: > "$tmpdir/overlap_rows.json"
: > "$tmpdir/merge_rows.json"
: > "$tmpdir/storage_skips.json"

overlap_to_rows() {  # $1=txt $2=storage $3=qd
  awk -v storage="$2" -v qd="$3" '
    /^#/ { next }
    $1 == "io" { next }
    NF >= 5 {
      printf "      {\"storage\": \"%s\", \"queue_depth\": %s, \"io\": \"%s\", \"overlap\": \"%s\", \"run_form_wall_ms\": %s, \"total_wall_ms\": %s, \"ioq_peak\": %s},\n",
             storage, qd, $1, $2, $3, $4, $5
    }
  ' "$1"
}

merge_to_rows() {  # $1=txt $2=storage $3=qd
  awk -v storage="$2" -v qd="$3" '
    /^#/ { next }
    $1 == "keys" { next }
    NF >= 7 {
      printf "      {\"storage\": \"%s\", \"queue_depth\": %s, \"keys\": \"%s\", \"threads\": %s, \"merge_wall_ms\": %s, \"workers\": %s, \"merge_cpu_ms\": %s, \"merge_io_wait_ms\": %s, \"demand_fetches\": %s},\n",
             storage, qd, $1, $2, $3, $4, $5, $6, $7
    }
  ' "$1"
}

for cell in memory:1 memory:8 file:8 direct:8 uring:1 uring:8 uring:32; do
  storage="${cell%%:*}"
  qd="${cell##*:}"
  dir="$STORAGE_DIR/${storage}_qd${qd}"
  mkdir -p "$dir"
  txt="$tmpdir/overlap_${storage}_${qd}.txt"
  "$BUILD_DIR/ablation_overlap" --pes=4 --repeats=3 \
    --storage="$storage" --queue-depth="$qd" --file-dir="$dir" > "$txt"
  if grep -q '^# storage=.* unavailable' "$txt"; then
    reason="$(sed -n 's/^# storage=[a-z]* unavailable: //p' "$txt" | head -1)"
    printf '      {"storage": "%s", "queue_depth": %s, "reason": "%s"},\n' \
      "$storage" "$qd" "$reason" >> "$tmpdir/storage_skips.json"
    continue
  fi
  overlap_to_rows "$txt" "$storage" "$qd" >> "$tmpdir/overlap_rows.json"

  mtxt="$tmpdir/merge_${storage}_${qd}.txt"
  "$BUILD_DIR/ablation_merge" --elements=262144 --runs=8 --reps=2 \
    --storage="$storage" --queue-depth="$qd" --file-dir="$dir" > "$mtxt"
  merge_to_rows "$mtxt" "$storage" "$qd" >> "$tmpdir/merge_rows.json"
done

finish_rows() {  # strips the trailing comma of the last row (if any)
  sed '$ s/,$//' "$1"
}

{
  echo '{'
  echo '  "snapshot": "BENCH_PR9",'
  echo '  "fixed_params": {"fig5_elements_per_pe": 131072, "fig5_max_pes": 8, "ablation_pes": 4, "ablation_repeats": 3, "merge_elements": 262144, "merge_runs": 8, "merge_reps": 2},'
  echo '  "fig5_a2a_io_over_n": {'
  echo '    "rows": ['
  cat "$tmpdir/fig5_rows.json"
  echo '    ]'
  echo '  },'
  echo '  "storage_overlap_ablation": {'
  echo '    "rows": ['
  finish_rows "$tmpdir/overlap_rows.json"
  echo '    ]'
  echo '  },'
  echo '  "merge_engine_ablation": {'
  echo '    "rows": ['
  finish_rows "$tmpdir/merge_rows.json"
  echo '    ]'
  echo '  },'
  echo '  "storage_skipped": ['
  finish_rows "$tmpdir/storage_skips.json"
  echo '  ]'
  echo '}'
} > "$OUT"

# 3. Straggler snapshot: one P=4 hierarchical sort with the per-rank
#    per-phase stats JSON, structurally validated before it is kept.
"$BUILD_DIR/sortbench_cli" --transport=hier --pes 4 --pes-per-node 2 \
  --records-per-pe 20000 --stats-json="$OUT.stats.json" > /dev/null
"$BUILD_DIR/trace_lint" --stats "$OUT.stats.json" --expect-pes=4 > /dev/null

echo "wrote $OUT and $OUT.stats.json"
