#!/usr/bin/env python3
"""Run one workload of the sm benchmark and print its metrics.

    python3 perfbench/run.py --workload iscas_grid --seed 1 --seconds 40 --trace 0

Run from the root of a source tree. Builds sm_bench (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), then:

  --trace 0  repeats the untraced workload, one fresh process per
             repetition, for about --seconds (at least one repetition),
             and reports the median of every end-to-end metric;
  --trace 1  runs the traced replay once and reports the per-layer
             metrics; the Chrome trace goes to <build dir>/traces/.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Exits
non-zero, without that line, when the benchmark cannot run here.
"""

import argparse
import json
import sys

sys.dont_write_bytecode = True  # the checkout stays as git would have it
import harness  # noqa: E402


def report_run(args, bench):
    binary = harness.build()
    m = harness.measure(binary, args.workload, args.seed, args.seconds)
    e2e = harness.end_to_end(m)
    walls = [r["wall_s"] for r in m["reps"]]
    tail = harness.tail_percentile(walls)
    fp = m["fingerprint"]
    print("perfbench %s seed=%d reps=%d jobs=%d nproc=%d compiler=%s "
          "build=%s source=%s" % (
              args.workload, args.seed, len(m["reps"]), fp["jobs"],
              fp["nproc"], fp["compiler"], fp["build_type"],
              harness.source_fingerprint()))
    for name, (value, unit) in e2e.items():
        n = len(m["setups"] if name == "setup_s" else m["reps"])
        print("  %-18s %12.4f %s (median of %d)" % (name, value, unit, n))
    if tail:
        print("  wall_s p%g         %12.4f s (n=%d)" % tail)
    else:
        print("  wall_s tail: none (n=%d; the median needs >= 20 samples)"
              % len(walls))
    print("  %-18s %12.4f 1 (%d failed / %d attempted cells)" % (
        "failed_cells_frac", m["failed"] / m["attempted"], m["failed"],
        m["attempted"]))
    for p in m["problems"][:8]:
        print("  problem: " + p)
    names = [x["name"] for x in bench["end_to_end"]]
    metrics = {n: {"value": e2e[n][0], "unit": e2e[n][1]} for n in names}
    return {"correct": m["failed"] == 0 and not m["problems"],
            "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def report_trace(args, bench):
    binary = harness.build()
    line, path = harness.trace(binary, args.workload, args.seed)
    fp = line["fingerprint"]
    print("perfbench trace %s seed=%d jobs=%d nproc=%d compiler=%s build=%s "
          "source=%s" % (args.workload, args.seed, fp["jobs"], fp["nproc"],
                         fp["compiler"], fp["build_type"],
                         harness.source_fingerprint()))
    print("  chrome trace: " + path)
    got = line["metrics"]
    for name, m in got.items():
        print("  %-26s %16.4f %s" % (name, m["value"], m["unit"]))
    problems = list(line["problems"]) + list(line["replay_mismatches"])
    names = [x["name"] for x in bench["per_layer"]]
    if sorted(names) != sorted(got):
        problems.append("per-layer metrics differ from BENCHMARK.json")
    if got["trace.coverage_min"]["value"] < 0.9:
        problems.append("stage spans cover < 90% of a task")
    for p in problems[:8]:
        print("  problem: " + p)
    metrics = {n: got[n] for n in names if n in got}
    return {"correct": not problems and line["failed"] == 0,
            "attempted": line["cells"], "failed": line["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        bench = harness.load_benchmark()
        report = report_trace if args.trace else report_run
        result = report(args, bench)
    except (harness.BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
