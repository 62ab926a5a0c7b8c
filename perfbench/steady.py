#!/usr/bin/env python3
"""Steadiness report: do two sets of runs of the same code agree?

    python3 perfbench/steady.py --workload superblue_cell --runs 10

Run from the root of a source tree. It makes two sets of --runs runs of
the untraced workload (run i of a set uses seed 1 + i, each run as long as
BENCHMARK.json's run_seconds, exactly as perfbench/run.py makes them) and
takes, per end-to-end metric, the median of the runs, their quartiles and
the spread (q3 - q1) / median. A set is steady when every spread is within
the metric's bound; the sets agree when the second median is not worse
than the first by more than the bound. The wall-time tail comes from all
repetitions of a set. Exits 1 when a check fails.
"""

import argparse
import sys

sys.dont_write_bytecode = True
import harness  # noqa: E402

FIRST_SEED = 1
SETS = 2


def one_set(binary, workload, runs, seconds):
    values, walls, failed = {}, [], 0
    for i in range(runs):
        seed = FIRST_SEED + i
        m = harness.measure(binary, workload, seed, seconds)
        failed += m["failed"]
        walls += [r["wall_s"] for r in m["reps"]]
        for name, (value, _) in harness.end_to_end(m).items():
            values.setdefault(name, []).append(value)
        print("    seed %d: %s" % (seed, " ".join(
            "%s=%.4f" % (n, v[-1]) for n, v in values.items())), flush=True)
    return values, walls, failed


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    delta = second - first if better == "lower" else first - second
    return delta / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=harness.WORKLOADS + ("all",))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    bench = harness.load_benchmark()
    metrics = bench["end_to_end"]
    binary = harness.build()
    workloads = harness.WORKLOADS if args.workload == "all" else (
        args.workload,)
    ok = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            print("%s set %d:" % (workload, s + 1), flush=True)
            sets.append(one_set(binary, workload, args.runs,
                                bench["run_seconds"]))
        print("%s: %d runs per set" % (workload, args.runs))
        print("  %-12s %5s %12s %12s %12s %8s %7s %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound",
            "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, (values, _, _) in enumerate(sets):
                q1, q2, q3 = harness.quartiles(values[name])
                sp = harness.spread(values[name])
                meds.append(q2)
                steady = sp <= bound
                ok &= steady
                print("  %-12s %5d %12.5f %12.5f %12.5f %8.4f %7.3f %s" % (
                    name, s + 1, q1, q2, q3, sp, bound,
                    "steady" if steady else "SPREAD > BOUND"))
            w = worse_by(meds[0], meds[1], m["better"])
            agree = w <= bound
            ok &= agree
            print("  %-12s second median worse by %+.4f: %s" % (
                name, w, "agree" if agree else "DISAGREE"))
        for s, (_, walls, failed) in enumerate(sets):
            tail = harness.tail_percentile(walls)
            ok &= failed == 0
            print("  set %d: wall_s %s; failed cells %d" % (
                s + 1, "p%g = %.4f s (n=%d)" % tail if tail else
                "tail needs >= 20 samples (n=%d)" % len(walls), failed))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
