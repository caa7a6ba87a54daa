"""fmlab benchmark: certified queries per second, end to end and per layer.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

Run from the root of a source checkout; the program is imported from `src`.
Every run starts fresh worker processes (`worker.py`), so nothing cached in
one run carries into the next and peak RSS is per run.

`--trace 0` starts the worker several times for set-up only (`setup_s` is the
median) and once to run queries for `--seconds` in a closed loop with one
client. It reports `queries_per_s`, `query_p50_ms`, `query_p90_ms`,
`setup_s` and `peak_rss_mb`; the failed count goes in `failed` rather than
in a metric that is always zero.

Times are scaled to a reference machine speed. On a shared machine the
processor's speed drifts by 20% and more over minutes, which would swamp any
change to the program. So the worker times a fixed calibration slice
(`worker.machine_time`, no fmlab code) every 50 ms between queries; each query
latency is divided by the slowness measured within a second of it, and each
set-up time by the slowness measured right after that set-up. The `raw_*`
lines print the unscaled figures.

`--trace 1` runs a fixed number of queries twice, untraced and traced, and
reports per-layer counts and self times from the traced run, so the counts
repeat exactly for a given seed. `trace.overhead_frac` compares the two runs.

Every query result is re-checked by independent checkers; a failed check, a
budget marker, an exception or (for seed 1) a result whose digest differs
from `reference.json` counts as failed. The last line of output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import GREEDY, GREEDY_KEY, ORACLE_KEY, SEARCHES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify", "extract", "search")
SETUP_RUNS = 5           # set-up-only workers per untraced run
# queries per traced run: about ten seconds untraced on a 2-core x86 box
TRACE_QUERIES = {"classify": 60, "extract": 96, "search": 480}
WORKER_TIMEOUT = 170     # seconds
# calibration slice time that counts as reference speed (worker.calibration_slice)
REFERENCE_SLICE_S = 0.0005
SLOWNESS_WINDOW_S = 1.0


class WorkerFailed(Exception):
    pass


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, tag: str, *extra: str):
    """Run one worker; returns (set-up seconds, parsed result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    workdir = os.path.join(ROOT, ".bench_run", f"{workload}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{workload} worker timed out")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def percentile(sorted_values, q):
    """Nearest rank."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def slowness(res) -> float:
    """How much slower than reference speed the machine ran this worker."""
    return statistics.fmean(res["calibration"]) / REFERENCE_SLICE_S


def local_slowness(res, window=SLOWNESS_WINDOW_S) -> list[float]:
    """Per query: the mean slowness of the calibration slices taken within
    `window` seconds of the query's end (the run's mean if there are none)."""
    at, cal = res["calibrated_at"], res["calibration"]
    whole = slowness(res)
    out, lo, hi, total = [], 0, 0, 0.0
    for end in res["ends"]:
        while hi < len(at) and at[hi] <= end + window:
            total += cal[hi]
            hi += 1
        while lo < hi and at[lo] < end - window:
            total -= cal[lo]
            lo += 1
        out.append(total / (hi - lo) / REFERENCE_SLICE_S if hi > lo else whole)
    return out


def normalized(res) -> list[float]:
    """Query latencies scaled to reference machine speed."""
    return [t / s for t, s in zip(res["latencies"], local_slowness(res))]


def untraced(workload: str, seed: int, seconds: int):
    setups = []
    for k in range(SETUP_RUNS):
        setup, probe = spawn(workload, seed, f"setup{k}", "--setup-only")
        setups.append(setup / slowness(probe))
    setup, res = spawn(workload, seed, "run", "--seconds", str(seconds))
    slow = slowness(res)
    setups.append(setup / slow)
    lat = sorted(normalized(res))
    print(f"{workload} raw_queries_per_s {len(lat) / sum(res['latencies'])} 1/s")
    print(f"{workload} raw_setup_s {setup} s")
    print(f"{workload} machine_slowness {slow} ratio")
    metrics = {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_p50_ms": (1000 * statistics.median(lat), "ms"),
        "query_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return res, metrics


VERIFIERS = ("detect.verify_independence", "detect.verify_order",
             "detect.verify_weak_order", "detect.verify_cover_violation")
MODULES = ("core", "detect", "counting", "indisc", "classify", "ramsey",
           "formats", "cli", "util")


def layer_metrics(t: dict, overhead: float) -> dict:
    spans = t["spans"]

    def total(names, field):
        return sum(spans.get(n, {}).get(field, 0) for n in names)

    def module(prefix):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix + "."))

    outcome = lambda kind: sum(t["outcomes"].get(n, {}).get(kind, 0) for n in SEARCHES)
    searches = total(SEARCHES, "calls")
    key_calls = total([ORACLE_KEY], "calls")
    m = {
        "classify.delta_star.calls": (total(["classify.delta_star"], "calls"), "count"),
        "classify.delta_star.distinct": (t["delta_star_distinct"], "count"),
        "classify.delta_star.self_s": (total(["classify.delta_star"], "self_s"), "s"),
        "classify.kappa.self_s": (total(["classify.kappa"], "self_s"), "s"),
        "classify.is_good.self_s": (total(["classify.is_good"], "self_s"), "s"),
        "classify.prec_K.self_s": (total(["classify.prec_K"], "self_s"), "s"),
        "classify.amalgam.self_s": (total(["classify.stable_amalgam"], "self_s"), "s"),
        "indisc.greedy.calls": (total([GREEDY], "calls"), "count"),
        # the key callback is part of the greedy layer; key_self_s is its share
        "indisc.greedy.self_s": (total([GREEDY, GREEDY_KEY], "self_s"), "s"),
        "indisc.greedy.key_calls": (total([GREEDY_KEY], "calls"), "count"),
        "indisc.greedy.key_self_s": (total([GREEDY_KEY], "self_s"), "s"),
        "indisc.oracle.key_calls": (key_calls, "count"),
        "indisc.oracle.hit_ratio": (1 - t["oracle_misses"] / key_calls if key_calls else 0.0, "ratio"),
        "indisc.check.self_s": (total(["indisc.check_indiscernible"], "self_s"), "s"),
        "core.evaluate.calls": (total(["core.evaluate"], "calls"), "count"),
        "core.evaluate.self_s": (total(["core.evaluate"], "self_s"), "s"),
        "core.tp.calls": (total(["core.tp"], "calls"), "count"),
        "core.tp.self_s": (total(["core.tp"], "self_s"), "s"),
        "detect.search.calls": (searches, "count"),
        "detect.search.self_s": (total(SEARCHES, "self_s"), "s"),
        "detect.search.none_frac": (outcome("none") / searches if searches else 0.0, "ratio"),
        "detect.search.budget_frac": (outcome("budget") / searches if searches else 0.0, "ratio"),
        "detect.verify.self_s": (total(VERIFIERS, "self_s"), "s"),
        "ramsey.homogeneous.self_s": (total(["ramsey.extract_homogeneous"], "self_s"), "s"),
        "ramsey.lacks_independence.self_s": (total(["ramsey.rgraph_lacks_independence"], "self_s"), "s"),
        "formats.parse.self_s": (total(["formats.parse_structure", "formats.parse_formula"], "self_s"), "s"),
        "formats.emit.self_s": (total(["formats.emit_report"], "self_s"), "s"),
        "cli.main.self_s": (total(["cli.main"], "self_s"), "s"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = (module(mod), "s")
    m["bench.query.self_s"] = (total(["bench.query"], "self_s"), "s")
    m["trace.layers_self_s"] = (t["layers_self_s"], "s")
    m["trace.wall_s"] = (t["wall_s"], "s")
    m["trace.accounted_frac"] = (t["accounted_s"] / t["wall_s"], "ratio")
    m["trace.spans"] = (t["span_count"], "count")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def traced(workload: str, seed: int):
    count = str(TRACE_QUERIES[workload])
    _, plain = spawn(workload, seed, "plain", "--count", count)
    spans = os.path.join(ROOT, ".bench_run", f"spans-{workload}.bin")
    _, res = spawn(workload, seed, "traced", "--count", count, "--trace", "--spans", spans)
    overhead = sum(normalized(res)) / sum(normalized(plain)) - 1
    for key in ("queries", "failed"):
        res[key] += plain[key]
    res["problems"] += plain["problems"]
    return res, layer_metrics(res["trace"], overhead)


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    res, metrics = traced(workload, seed) if trace else untraced(workload, seed, seconds)
    for problem in res["problems"]:
        print(f"{workload} FAILED {problem.strip()}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value} {unit}")
    print(f"{workload} queries {res['queries']} failed {res['failed']} "
          f"failed_frac {res['failed'] / res['queries']}")
    print(f"{workload} output_digest {res['output_digest']}")
    if trace:
        spans = sorted(res["trace"]["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, v in spans[:8]:
            print(f"{workload} top_self {name} {v['self_s']:.4f} s {v['calls']} calls")
    return {"correct": res["failed"] == 0, "attempted": res["queries"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fmlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; without it every workload runs untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fmlab", "__init__.py")):
        print(f"no fmlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    print("run " + json.dumps({"git_sha": git_sha(), "python": platform.python_version(),
                               "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
                               "seconds": args.seconds}))
    try:
        if args.workload:
            out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            out = {f"{w}/trace{t}": run_one(w, args.seed, args.seconds, bool(t))
                   for w in WORKLOADS for t in (0, 1)}
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
