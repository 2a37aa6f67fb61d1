#!/usr/bin/env python3
"""End-to-end CanonicalMergeSort benchmark: runs e2e_bench repeats, each in
a fresh process, and reports every metric BENCHMARK.json names.

Called by run.sh, which builds e2e_bench first. Two ways to run it:

  run.sh --workload NAME --seed N --seconds S --trace 0|1
      One workload. One warm-up repeat, then timed repeats until S seconds
      have passed (at least MIN_TIMED repeats), then with --trace 1 one
      traced repeat. The last stdout line holds the end-to-end metrics
      (--trace 0) or the per-layer metrics (--trace 1).

  run.sh [--workload=NAME ...] [--repeats=5] [--seed=20091014]
         [--out=FILE] [--smoke] [--set=field=value]
      Every workload (or those named), interleaved round-robin: one
      discarded warm-up round, --repeats timed rounds, one traced round.

Each repeat of a run uses the same --seed, hence the same input. Every
repeat is validated. The traced repeat must record no dropped events, and
every repeat must reproduce the first timed repeat's per-phase byte
counters (disk bytes exactly, network bytes to within message framing).
A failed gate prints the result, then exits 1. A host that cannot serve a
workload (tmpfs scratch, no space, no io_uring or O_DIRECT) exits 2 with
no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MIN_TIMED = 3
CHILD_TIMEOUT_S = 60
NET_FRAMING_TOLERANCE = 1e-3


def load_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--binary", required=True, help="path to e2e_bench")
    p.add_argument("--workload", action="append", default=[],
                   help="workload name; repeatable or comma-separated")
    p.add_argument("--seed", type=int, default=20091014)
    p.add_argument("--seconds", type=float, default=None,
                   help="run timed repeats for this long instead of --repeats")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: no traced repeat; 1: traced repeat, and the last "
                        "line reports the per-layer metrics")
    p.add_argument("--out", default=os.path.join(ROOT, "build-bench",
                                                 "results", "e2e.json"))
    p.add_argument("--scratch-dir",
                   default=os.path.join(ROOT, "build-bench", "scratch"))
    p.add_argument("--smoke", action="store_true",
                   help="input / 64, one repeat, no warm-up")
    p.add_argument("--set", dest="overrides", default="",
                   help="diagnostic SortConfig override(s), "
                        "field=value[,...]; the result is tagged overridden")
    args = p.parse_args()
    names = [n for arg in args.workload for n in arg.split(",") if n]
    for n in names:
        if n not in workload_names:
            p.error("unknown workload %r (known: %s)"
                    % (n, ", ".join(workload_names)))
    args.workloads = names or workload_names
    if args.smoke:
        args.repeats = 1
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    return args


class HostUnfit(Exception):
    """The host cannot serve a workload as specified."""


def clear_scratch(scratch):
    for entry in os.listdir(scratch):
        if entry.startswith("demsort_"):
            os.remove(os.path.join(scratch, entry))


def run_child(args, workload, trace_out=None):
    """One repeat in a fresh process; returns its parsed result or None."""
    cmd = [args.binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--scratch-dir=" + args.scratch_dir]
    if trace_out:
        cmd.append("--trace-out=" + trace_out)
    if args.smoke:
        cmd.append("--smoke")
    if args.overrides:
        cmd.append("--set=" + args.overrides)
    clear_scratch(args.scratch_dir)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2e: %s repeat timed out" % workload, file=sys.stderr)
        return None
    finally:
        clear_scratch(args.scratch_dir)
    if proc.returncode == 2:
        raise HostUnfit(workload)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    result = json.loads(lines[-1])
    result["ok"] = proc.returncode == 0 and result["valid"]
    return result


def same_volume(key, a, b):
    """Disk byte counters repeat exactly for a fixed seed. Network byte
    counters include per-message framing, and the adaptive stream chunk
    size reacts to timing, so they repeat only to within that framing."""
    if key.endswith("net_bytes_sent"):
        return abs(a - b) <= NET_FRAMING_TOLERANCE * max(a, b)
    return a == b


def summarize(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def aggregate(workload, timed, traced, e2e_units, layer_units, problems):
    """Medians over the timed repeats; trace metrics from the traced one."""
    ok = [r for r in timed if r["ok"]]
    out = {"end_to_end": {}, "per_layer": {}}
    if not ok:
        problems.append("%s: no successful timed repeat" % workload)
        return out
    for name, unit in e2e_units.items():
        s = summarize([r["metrics"][name] for r in ok])
        s["unit"] = unit
        s["samples"] = [r["metrics"][name] for r in ok]
        out["end_to_end"][name] = s
    for name, unit in layer_units.items():
        if name in ok[0]["metrics"]:
            s = summarize([r["metrics"][name] for r in ok])
        elif traced is None or not traced["ok"]:
            continue
        elif name == "obs.trace_overhead_frac":
            s = summarize([traced["metrics"]["sort_s"]
                           / out["end_to_end"]["sort_s"]["median"] - 1])
        else:
            s = summarize([traced["trace_metrics"][name]])
        s["unit"] = unit
        out["per_layer"][name] = s

    reference = ok[0]["volume"]
    others = ok[1:] + ([traced] if traced is not None and traced["ok"] else [])
    for r in others:
        for key, value in r["volume"].items():
            if not same_volume(key, value, reference[key]):
                problems.append("%s: %s repeat moved %d bytes for %s, the "
                                "first timed repeat %d"
                                % (workload, "traced" if r["traced"] else
                                   "untraced", value, key, reference[key]))
    return out


def main():
    workload_names, e2e_units, layer_units = load_catalog()
    args = parse_args(workload_names)
    os.makedirs(args.scratch_dir, exist_ok=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    want_trace = args.trace != 0
    stem = os.path.splitext(os.path.abspath(args.out))[0]
    trace_path = {w: "%s.%s.trace.json" % (stem, w) for w in args.workloads}

    attempted = failed = 0
    timed = {w: [] for w in args.workloads}
    traced = {w: None for w in args.workloads}

    def repeat(w, trace_out=None):
        nonlocal attempted, failed
        attempted += 1
        r = run_child(args, w, trace_out)
        if r is None or not r["ok"]:
            failed += 1
            print("e2e: %s repeat failed" % w, file=sys.stderr)
        return r

    try:
        if not args.smoke:
            for w in args.workloads:
                repeat(w)
        start = time.monotonic()
        rounds = 0
        while True:
            if args.seconds is not None:
                elapsed = time.monotonic() - start
                if rounds >= MIN_TIMED and elapsed >= args.seconds:
                    break
            elif rounds >= args.repeats:
                break
            for w in args.workloads:
                r = repeat(w)
                if r is not None:
                    timed[w].append(r)
            rounds += 1
        if want_trace:
            for w in args.workloads:
                traced[w] = repeat(w, trace_path[w])
    except HostUnfit as e:
        print("e2e: the host cannot run workload %s as specified" % e,
              file=sys.stderr)
        sys.exit(2)

    problems = []
    results = {}
    for w in args.workloads:
        results[w] = aggregate(w, timed[w], traced[w], e2e_units,
                               layer_units, problems)
        if want_trace and (traced[w] is None or not traced[w]["ok"]):
            problems.append("%s: traced repeat failed" % w)
        elif want_trace:
            results[w]["trace_file"] = trace_path[w]
    if failed:
        problems.append("%d of %d repeats failed" % (failed, attempted))

    for w in args.workloads:
        for section in ("end_to_end", "per_layer"):
            for name, s in results[w][section].items():
                print("%s %s %.6g %s min=%.6g max=%.6g n=%d"
                      % (w, name, s["median"], s["unit"], s["min"], s["max"],
                         s["n"]))
    for msg in problems:
        print("e2e: GATE FAILED: " + msg, file=sys.stderr)

    with open(args.out, "w") as f:
        json.dump({"schema": "demsort-e2e-v1", "seed": args.seed,
                   "smoke": args.smoke, "overridden": bool(args.overrides),
                   "overrides": args.overrides, "nproc": os.cpu_count(),
                   "attempted": attempted, "failed": failed,
                   "problems": problems, "workloads": results}, f, indent=1)

    section = "per_layer" if args.trace == 1 else "end_to_end"
    single = len(args.workloads) == 1
    metrics = {}
    for w in args.workloads:
        for name, s in results[w][section].items():
            key = name if single else "%s/%s" % (w, name)
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
