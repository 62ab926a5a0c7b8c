"""Shared code of the sm benchmark: build, repetitions, statistics.

Everything here runs from the root of a source tree (a checkout holding
src/ and perfbench/). The C++ program, sm_bench, runs one repetition of a
workload per process; this module builds it, spawns fresh processes and
turns their JSON lines into the metrics BENCHMARK.json declares.
"""

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import time

BENCH_DIR = "perfbench"
BENCHMARK_JSON = "BENCHMARK.json"
WORKLOADS = ("iscas_grid", "superblue_cell", "defense_breadth")
DEFAULT_SEED = 1  # the seed of the golden tables (workload.hpp kDefaultSeed)
JOBS = 4
SETUP_PROBES = 15  # set-up-only processes before each repetition (~4 ms each)
# Percentiles the tail rule may report, highest last.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failed, refused)."""


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def load_benchmark(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank percentiles: the p-th percentile of n sorted samples is
    the ceil(p/100 * n)-th, and the samples beyond it are the rest. Returns
    (p, value, n), or None when even the median has fewer than ten samples
    beyond it (fewer than 20 samples).
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
        if n - rank >= 10:
            best = (p, xs[rank - 1], n)
    return best


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def source_fingerprint():
    """The git commit when run in a clone, else a digest of the sources."""
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def build():
    """Configure (once) and build sm_bench; returns the binary's path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no sm source tree (src/CMakeLists.txt) here")
    out = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "sm_bench",
                  "perfbench_tests", "-j", str(JOBS)])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError("build step failed: %s\n%s%s" % (
                " ".join(cmd), proc.stdout[-4000:], proc.stderr[-4000:]))
    return os.path.join(out, "sm_bench")


def golden_path(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    return os.path.join(BENCH_DIR, "golden", workload + ".csv")


def run_sm_bench(binary, mode, workload, seed, tmp, extra=()):
    """Spawn one sm_bench process; returns (parsed JSON line, spawn time)."""
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed),
           "--jobs", str(JOBS), "--tmp", tmp]
    golden = golden_path(workload, seed)
    if golden:
        cmd += ["--golden", golden]
    cmd += list(extra)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("sm_bench %s exited %d: %s" % (
            mode, proc.returncode, proc.stderr.strip()[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("sm_bench %s printed nothing" % mode)
    return json.loads(lines[-1]), spawned


def measure(binary, workload, seed, seconds):
    """Repetitions of the untraced workload, each in a fresh process.

    Starts repetitions until the next one would end past `seconds` (by the
    median repetition so far); the first always runs. Before each
    repetition, SETUP_PROBES processes run only the set-up, so set-up time
    is a median over several samples even when one repetition fills the
    run. Returns the per-repetition samples, the set-up samples and the
    check outcome.
    """
    reps, setups = [], []
    t0 = time.monotonic()
    tmp = os.path.join(build_dir(), "tmp", str(os.getpid()))
    while True:
        for _ in range(SETUP_PROBES):
            line, spawned = run_sm_bench(binary, "run", workload, seed, tmp,
                                       ["--setup-only"])
            setups.append(line["region_start"] - spawned)
        started = time.monotonic()
        line, spawned = run_sm_bench(binary, "run", workload, seed, tmp)
        setups.append(line["region_start"] - spawned)
        line["rep_s"] = time.monotonic() - started
        reps.append(line)
        elapsed = time.monotonic() - t0
        rep_s = statistics.median(r["rep_s"] for r in reps)
        if elapsed + rep_s > seconds:
            break
    cells = reps[0]["cells"]
    failed = sum(r["failed"] for r in reps)
    # Every repetition of one (workload, seed) must give the same table.
    failed += sum(r["cells"] for r in reps if r["digest"] != reps[0]["digest"])
    return {
        "reps": reps,
        "setups": setups,
        "attempted": cells * len(reps),
        "failed": failed,
        "problems": [p for r in reps for p in r["problems"]],
        "fingerprint": reps[0]["fingerprint"],
    }


def end_to_end(measured):
    """Median of each end-to-end metric over the repetitions."""
    reps = measured["reps"]
    med = lambda key: statistics.median(r[key] for r in reps)
    return {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MiB"),
        "setup_s": (statistics.median(measured["setups"]), "s"),
    }


def trace(binary, workload, seed):
    """One traced run; returns sm_bench's JSON line and the trace path."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    out = os.path.join(traces, "%s-seed%d.json" % (workload, seed))
    tmp = os.path.join(build_dir(), "tmp", "%d-trace" % os.getpid())
    line, _ = run_sm_bench(binary, "trace", workload, seed, tmp,
                         ["--trace-out", out])
    return line, out
