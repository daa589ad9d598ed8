"""One fresh benchmark process: import kcalc, warm up, run a closed loop.

Usage: python3 bench/worker.py ROOT WORKLOAD SEED SECONDS MODE OUT

MODE is ``setup`` (stop once warm), ``plain`` (closed loop, tracing off) or
``traced`` (each query runs under the outside-in tracer, then again without
it, so the overhead compares the same queries under the same host load).  The
process prints ``READY`` once kcalc is imported and warm, writes one JSON line
per query to OUT.results.jsonl (and the spans of a traced run to
OUT.spans.jsonl), and ends with a ``SUMMARY`` line on stdout.  Between the
queries of a plain run it times bench/calibrate.py's kernel every
``calibrate.EVERY_S`` seconds, and once more just after set-up.  It never
imports the checker, so its peak RSS is that of kcalc alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

MIN_QUERIES = 100
# The end-to-end metrics are medians over a run's whole rounds.
MIN_ROUNDS = 3
# Kernel calls that gauge the host's speed right after set-up.
SETUP_SAMPLES = 5
# A run stops measuring at this many seconds even if it holds fewer queries,
# so that a much slower program still ends in bounded time.
HARD_CAP_S = 60.0


def import_kcalc(root: str) -> None:
    """Import kcalc from ROOT/src and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kcalc
    import kcalc.cli

    if not os.path.abspath(kcalc.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"kcalc was imported from {kcalc.__file__}, not from {src}")


def run_query(q: dict) -> dict:
    """Run one query the way a user does; the timed interval ends at a parsed report."""
    from kcalc import cli

    out, err = io.StringIO(), io.StringIO()
    rc, report, error = None, None, None
    start = time.perf_counter()
    try:
        if "argv" in q:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(q["argv"])
            if rc == 0:
                report = json.loads(out.getvalue())
        else:
            report = _order_spectrum(**q["api"])
            rc = 0
    except Exception as exc:  # a query that raises is a failed query, not a crash
        error = f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - start) * 1000
    if error is None and rc != 0:
        error = f"exit {rc}: {err.getvalue().strip()}"
    return {"kind": q["kind"], "rc": rc, "ms": ms, "bytes": len(out.getvalue()), "report": report, "error": error}


def _order_spectrum(k: int, c: int, r: int, stages: int) -> dict:
    """order_spectrum has no subcommand; call the library as a script would."""
    from kcalc.colimit import Geometric, order_spectrum
    from kcalc.odometer import OdometerSpec, k0_odometer

    rule = Geometric(c, r)
    tower = k0_odometer(OdometerSpec(k, rule.levels(stages), rule=rule))
    spectrum = order_spectrum(tower.k0)
    return {"moduli": list(tower.k0.moduli), "spectrum": {str(q): [b.prefix_max, b.exact] for q, b in spectrum.items()}}


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, mode, out = argv
    seed, seconds = int(seed), float(seconds)
    import_kcalc(root)
    import calibrate
    import workloads

    for q in workloads.WARMUP[workload]:
        result = run_query(q)
        if result["error"] is not None:
            print(f"warm-up query failed: {q} -> {result['error']}", file=sys.stderr)
            return 1
    print("READY", flush=True)
    # The host's speed just after set-up, which run.py scales set-up time by.
    setup_calibration_ms = statistics.median(calibrate.measure_ms() for _ in range(SETUP_SAMPLES))
    if mode == "setup":
        print("SUMMARY " + json.dumps({"setup_calibration_ms": setup_calibration_ms}), flush=True)
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
    # A traced run runs each query under the tracer first, so that the spans
    # see kcalc's caches as a plain run would, then again without it.
    passes = (True, False) if tracer is not None else (False,)
    size = workloads.round_size(workload)
    min_queries = max(MIN_QUERIES, MIN_ROUNDS * size)
    calibration_ms = []  # [index of the next query, kernel ms]
    last_sample = -math.inf
    with open(out + ".results.jsonl", "w", encoding="utf-8") as results:
        count = 0
        begin = time.perf_counter()
        while True:
            if tracer is None and time.perf_counter() - last_sample >= calibrate.EVERY_S:
                calibration_ms.append([count, calibrate.measure_ms()])
                last_sample = time.perf_counter()
            elapsed = time.perf_counter() - begin
            if (elapsed >= seconds and count >= min_queries) or elapsed >= HARD_CAP_S:
                break
            q = workloads.query(workload, seed, count)
            for traced in passes:
                if traced:
                    tracer.query = count
                with tracer if traced else contextlib.nullcontext():
                    result = run_query(q)
                result["i"], result["traced"] = count, traced
                results.write(json.dumps(result) + "\n")
            count += 1
    summary = {
        "queries": count,
        "maxrss_kb": peak_rss_kb(),
        "setup_calibration_ms": setup_calibration_ms,
        "calibration_ms": calibration_ms,
    }
    if tracer is not None:
        summary["trace"] = trace_summary(tracer, count)
        tracer.write_spans(out + ".spans.jsonl")
    print("SUMMARY " + json.dumps(summary), flush=True)
    return 0


def peak_rss_kb() -> int:
    """Peak RSS of this process image, in KiB.

    On Linux ru_maxrss carries over the parent's high-water mark through
    fork and exec, so a large parent would mask the worker's own peak; the
    VmHWM line of /proc/self/status belongs to this image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def trace_summary(tracer, queries: int) -> dict:
    """Raw per-layer aggregates; run.py turns them into per-query metrics."""
    from tracer import growth_exponent

    totals = tracer.totals()
    series = tracer.sizes("odometer.membership_series")
    kernel = tracer.sizes("odometer.kernel_certificate")
    return {
        "queries": queries,
        "spans": len(tracer.spans),
        "inclusive_ms": dict(totals["inclusive"]),
        "self_ms": dict(totals["self"]),
        "calls": dict(totals["calls"]),
        "layer_self_ms": dict(totals["layer_self"]),
        "counts": dict(tracer.counts),
        "factorize_bits": sum(size for size, _ in tracer.sizes("arith.factorize")),
        "factorize_budget_errors": tracer.errors("arith.factorize", "FactorizationBudgetError"),
        "membership_series_exponent": growth_exponent(series),
        "kernel_levels": sum(size for size, _ in kernel),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
