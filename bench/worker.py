"""One benchmark process: set up a workload, run its queries, check them.

Started by `run.py`, never imported. It prints `ready` once set-up is done
(the parent times interpreter start, `import fmlab`, input generation and the
CLI files up to that line), then one JSON line with the raw measurements.
Only the fmlab calls of a query are timed; checking and digesting run outside
the timer. With `--trace` every fmlab call is recorded as a span.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

DEFAULT_SEED = 1       # the seed whose results `reference.json` pins
DIGEST_PREFIX = 32     # results folded into output_digest
MIN_QUERIES = 100      # so p90 has at least ten samples beyond it
CALIBRATE_EVERY = 0.05  # seconds between calibration slices
SETUP_CALIBRATION = 20  # calibration slices after a set-up-only run

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_digests(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def calibration_slice() -> int:
    """Fixed interpreter work shaped like fmlab's own: small tuples and
    frozensets, string formatting and dict stores. The collector is paused so
    that its pauses, which depend on the program's heap, do not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        items = [(i & 15, i >> 4, "k%d" % (i & 7)) for i in range(700)]
        table = {}
        for t in items:
            table[frozenset(t[:2])] = t
        return len(table)
    finally:
        if enabled:
            gc.enable()


def machine_time() -> float:
    """Seconds for one calibration slice, run warm so that what the previous
    query left in the caches does not count. Sampled between queries, it
    follows the speed of a shared machine."""
    calibration_slice()
    t0 = time.perf_counter()
    calibration_slice()
    return time.perf_counter() - t0


def measure(wl, items, args, tracer):
    import fmlab as fm
    reference = reference_digests(wl.name, args.seed)
    latencies, ends, problems, prefix, calibration, calibrated_at = [], [], [], [], [], []
    failed = 0
    clock = time.perf_counter
    start = last_cal = clock()
    i = 0
    while (i < args.count if args.count else
           (clock() - start < args.seconds or i < MIN_QUERIES)):
        item = items[i % len(items)]
        span = tracer.begin(tracer.QUERY) if tracer else None
        t0 = clock()
        try:
            result, errors = wl.run(item), []
        except Exception:
            result, errors = None, [traceback.format_exc()]
        t1 = clock()
        if tracer:
            tracer.end(span)
            span = tracer.begin("bench.verify")
        latencies.append(t1 - t0)
        ends.append(t1 - start)
        if not errors:
            try:
                errors = wl.check(item, result)
                digest = hashlib.sha256(fm.emit_report(wl.report(item, result))
                                        .encode()).hexdigest()
            except Exception:
                errors = [traceback.format_exc()]
        if i < DIGEST_PREFIX:
            prefix.append(digest[:16] if not errors else "failed")
            if reference is not None and not errors and prefix[-1] != reference[i]:
                errors = ["result digest differs from the reference"]
        if tracer:
            tracer.end(span)
        if errors:
            failed += 1
            problems += [f"query {i}: {e}" for e in errors[:3]]
        i += 1
        if clock() - last_cal >= CALIBRATE_EVERY:
            span = tracer.begin("bench.calibrate") if tracer else None
            calibration.append(machine_time())
            if tracer:
                tracer.end(span)
            last_cal = clock()
            calibrated_at.append(last_cal - start)
    wall = clock() - start
    return {"queries": i, "failed": failed, "problems": problems[:20],
            "latencies": latencies, "ends": ends,
            "calibration": calibration, "calibrated_at": calibrated_at,
            "wall_s": wall, "digests": prefix,
            "output_digest": hashlib.sha256("".join(prefix).encode()).hexdigest(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def trace_summary(tracer, wall_s):
    summary = tracer.summarize()
    layers = sum(v["self_s"] for k, v in summary["spans"].items()
                 if not k.startswith("bench."))
    return {"spans": summary["spans"], "oracle_misses": summary["oracle_misses"],
            "outcomes": tracer.outcomes,
            "delta_star_distinct": len(tracer.delta_star_keys),
            "span_count": len(tracer.starts), "wall_s": wall_s,
            "layers_self_s": layers,
            "accounted_s": sum(tracer.self_times())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--count", type=int, default=0,
                    help="run exactly this many queries instead of --seconds")
    ap.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir)
    try:
        items = wl.build(args.seed, args.count or wl.pool, args.workdir)
        # the item pool is benchmark data: keep the collector from rescanning it
        gc.freeze()
        print("ready", flush=True)
        if args.setup_only:
            out = {"calibration": [machine_time() for _ in range(SETUP_CALIBRATION)]}
            sys.stdout.write(json.dumps(out) + "\n")
            return 0
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        out = measure(wl, items, args, tracer)
        if tracer:
            out["trace"] = trace_summary(tracer, out["wall_s"])
            if args.spans:
                tracer.write(args.spans)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
