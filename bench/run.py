"""kcalc benchmark: time to a checked verdict, end to end and per layer.

    python3 bench/run.py --workload {membership,towers,groupoid} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  kcalc is imported from ./src and nowhere
else.  One client drives kcalc in a closed loop in a fresh single-threaded
process (bench/worker.py): each query is a subcommand argv passed to
``kcalc.cli.main`` in-process with stdout captured, timed from the call to a
parsed report.  Replies are checked afterwards by bench/checks.py, which
never goes through kcalc.  A run is a sequence of rounds with the same size
mix (bench/workloads.py).  Each end-to-end time is the median, over the run's
whole rounds, of that round's figure, after scaling the round's times to the
reference host speed gauged by bench/calibrate.py.  The unscaled figures are
printed too, on lines that start with ``unscaled``.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each query under
the outside-in tracer and again without it, prints the per-layer metrics and
the tracing overhead, and writes the spans to bench/.out/.  The last line of stdout is one JSON
object; the exit code is 1 when any reply was wrong and 2 on a usage error
or a missing kcalc source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import REFERENCE_MS  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, query, round_size  # noqa: E402

SETUP_RUNS = 7
# A worker stops measuring at worker.HARD_CAP_S (60 s); this kills one whose
# last query hangs, so that every run ends within 180 s.
WORKER_TIMEOUT_S = 75


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kcalc", "cli.py")):
        print(f"error: no kcalc source tree under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.trace:
        run = run_worker(args, "traced", args.seconds)
    else:
        setups = [run_worker(args, "setup", 0) for _ in range(SETUP_RUNS - 1)]
        run = run_worker(args, "plain", args.seconds)
        setups.append(run)

    import checks  # sympy is imported only by the parent, and only after the workers ran

    scan(run, args, checks)
    plain, traced = run["parts"][False], run["parts"][True]
    if not plain["ms"] or (args.trace and not traced["ms"]):
        print("error: no query of the run was answered correctly", file=sys.stderr)
        return 1
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        metrics = layer_metrics(run["summary"]["trace"], plain, traced)
    else:
        size = round_size(args.workload)
        rounds = whole_rounds(plain, size)
        speeds = host_speeds(run["summary"]["calibration_ms"], size)
        unscaled = end_to_end_metrics(rounds, run["summary"], setups, None)
        metrics = end_to_end_metrics(rounds, run["summary"], setups, speeds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{'failed_share':<45} {failed / attempted:>14.6g} share  ({failed}/{attempted} queries)")
    if not args.trace:
        samples = sum(len(r) for r in rounds.values())
        print(f"{'samples':<45} {samples:>14} queries in {len(rounds)} whole rounds of {size}")
        print(f"{'host speed (median over rounds)':<45} {statistics.median(speeds.values()):>14.6g} x reference")
        for name, (value, unit) in unscaled.items():
            if unit in ("ms", "s", "1/s"):
                print(f"{'unscaled ' + name:<45} {value:>14.6g} {unit}")
    if args.trace:
        print(f"{'untraced passes: verdict_p50_ms':<45} {statistics.median(plain['ms']):>14.6g} ms")
        print(f"{'untraced passes: queries_per_s':<45} {queries_per_s(plain):>14.6g} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>14.6g} {unit}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def describe(q: dict) -> str:
    if "argv" in q:
        text = "kcalc " + " ".join(q["argv"])
        return text if len(text) <= 300 else text[:300] + " ..."
    return f"order_spectrum({q['api']})"


def run_worker(args, mode: str, seconds: float) -> dict:
    """Start a fresh worker; return its READY time, summary and output prefix."""
    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-{args.seed}-{mode}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, args.workload, str(args.seed), str(seconds), mode, out]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RuntimeError(f"worker did not become ready: {ready!r}")
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} in mode {mode}")
    summary = next((json.loads(line[len("SUMMARY "):]) for line in rest.splitlines() if line.startswith("SUMMARY ")), None)
    if summary is None:
        raise RuntimeError(f"worker in mode {mode} printed no summary")
    return {"setup_s": setup_s, "summary": summary, "out": out}


def scan(run: dict, args, checks) -> None:
    """Check every reply of a run; keep, per untraced and traced part, what the metrics need."""
    run.update(attempted=0, failed=0, parts={False: _part(), True: _part()})
    with open(run["out"] + ".results.jsonl", encoding="utf-8") as fh:
        for line in fh:
            result = json.loads(line)
            q = query(args.workload, args.seed, result["i"])
            reason = checks.check(q, result)
            run["attempted"] += 1
            if reason is not None:
                run["failed"] += 1
                print(f"FAILED query {result['i']} ({result['kind']}): {reason}", file=sys.stderr)
                print(f"  {describe(q)}", file=sys.stderr)
                continue
            part = run["parts"][result["traced"]]
            part["ms"].append(result["ms"])
            part["rounds"].setdefault(result["i"] // round_size(args.workload), []).append(result["ms"])
            part["bytes"] += result["bytes"]
            if result["kind"] == "groupoid":
                part["arrows"] += result["report"]["results"]["arrow_count"]
    if run["failed"] == 0:
        os.remove(run["out"] + ".results.jsonl")  # kept only when a reply was wrong


def _part() -> dict:
    return {"ms": [], "bytes": 0, "arrows": 0, "rounds": {}}


def queries_per_s(part: dict) -> float:
    """Checked verdicts per second of time spent inside kcalc calls."""
    return len(part["ms"]) / (sum(part["ms"]) / 1000)


def whole_rounds(part: dict, size: int) -> dict[int, list[float]]:
    """The run's rounds whose every query was answered correctly.

    A run ends mid-round when its time is up; that last round is left out.
    A run stopped by the worker's hard cap before a whole round falls back
    to all its samples as one round.
    """
    rounds = {r: ms for r, ms in part["rounds"].items() if len(ms) == size}
    if not rounds:
        print(f"note: no whole round of {size} queries; all {len(part['ms'])} samples form one", file=sys.stderr)
        rounds = {0: part["ms"]}
    return rounds


def host_speeds(samples: list, size: int) -> dict[int, float]:
    """Per round: REFERENCE_MS over the median kernel time sampled in or at the ends of the round.

    A round too short to hold a sample takes the median of the whole run.
    """
    overall = statistics.median(ms for _, ms in samples)
    speeds = {}
    for r in range(max(i for i, _ in samples) // size + 1):
        inside = [ms for i, ms in samples if r * size <= i <= (r + 1) * size]
        speeds[r] = REFERENCE_MS / (statistics.median(inside) if inside else overall)
    return speeds


def end_to_end_metrics(rounds: dict[int, list[float]], summary: dict, setups: list[dict], speeds) -> dict:
    """Each time is multiplied by the host speed of its round (of its cold start
    for set-up), unless ``speeds`` is None."""

    def over_rounds(stat) -> float:
        return statistics.median(stat([t * (speeds[r] if speeds else 1.0) for t in ms]) for r, ms in rounds.items())

    def setup_s(run: dict) -> float:
        return run["setup_s"] * (REFERENCE_MS / run["summary"]["setup_calibration_ms"] if speeds else 1.0)

    return {
        "verdict_p50_ms": (over_rounds(statistics.median), "ms"),
        "verdict_p90_ms": (over_rounds(lambda ms: statistics.quantiles(ms, n=10, method="inclusive")[-1]), "ms"),
        "queries_per_s": (over_rounds(lambda ms: len(ms) / (sum(ms) / 1000)), "1/s"),
        "peak_rss_mb": (summary["maxrss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup_s(run) for run in setups), "s"),
    }


def layer_metrics(t: dict, plain: dict, traced: dict) -> dict:
    n = t["queries"]
    inc, own, calls, counts = t["inclusive_ms"], t["self_ms"], t["calls"], t["counts"]
    reported_arrows = traced["arrows"]
    factorize_calls = calls.get("arith.factorize", 0)
    m = {
        "cli.main.ms": (inc.get("cli.main", 0.0) / n, "ms/query"),
        "cli.self.ms": (own.get("cli.main", 0.0) / n, "ms/query"),
        "cli.build_parser.ms": (inc.get("cli.build_parser", 0.0) / n, "ms/query"),
        "cli.report.bytes": (traced["bytes"] / n, "bytes/query"),
        "arith.factorize.calls": (factorize_calls / n, "calls/query"),
        "arith.factorize.ms": (inc.get("arith.factorize", 0.0) / n, "ms/query"),
        "arith.factorize.bits": (t["factorize_bits"] / n, "bits/query"),
        "arith.factorize.repeat_share": (counts.get("arith.factorize.repeats", 0) / factorize_calls if factorize_calls else 0.0, "share"),
        "arith.factorize.budget_errors": (t["factorize_budget_errors"] / n, "errors/query"),
        "arith.multiplicative_order.ms": (inc.get("arith.multiplicative_order", 0.0) / n, "ms/query"),
        "arith.is_prime.calls": (counts.get("arith.is_prime", 0) / n, "calls/query"),
        "arith.kpower_rational.created": (counts.get("arith.KPowerRational.__init__", 0) / n, "objects/query"),
        "abelian.reduce.ms": (inc.get("abelian.LocalizedQuotient.reduce", 0.0) / n, "ms/query"),
        "abelian.tensor_cyclic_with_localized.ms": (inc.get("abelian.tensor_cyclic_with_localized", 0.0) / n, "ms/query"),
        "odometer.membership_series.ms": (inc.get("odometer.membership_series", 0.0) / n, "ms/query"),
        "odometer.membership_series.calls": (calls.get("odometer.membership_series", 0) / n, "calls/query"),
        "odometer.membership_series.exponent": (t["membership_series_exponent"], "exponent"),
        "odometer.psi.ms": (inc.get("odometer.psi", 0.0) / n, "ms/query"),
        "odometer.kernel_certificate.ms": (inc.get("odometer.kernel_certificate", 0.0) / n, "ms/query"),
        "odometer.kernel_certificate.levels": (t["kernel_levels"] / n, "levels/query"),
        "odometer.k0_odometer.self.ms": (own.get("odometer.k0_odometer", 0.0) / n, "ms/query"),
        "odometer.from_fractions.ms": (inc.get("odometer.LocallyConstantFn.from_fractions", 0.0) / n, "ms/query"),
        "colimit.prime_power_order_witness.self.ms": (own.get("colimit.prime_power_order_witness", 0.0) / n, "ms/query"),
        "colimit.order_spectrum.self.ms": (own.get("colimit.order_spectrum", 0.0) / n, "ms/query"),
        "colimit.distinguish_colimits.self.ms": (own.get("colimit.distinguish_colimits", 0.0) / n, "ms/query"),
        "colimit.identify_cuntz_k_theory.self.ms": (own.get("colimit.identify_cuntz_k_theory", 0.0) / n, "ms/query"),
        "groupoid.enumerate_arrows.ms": (inc.get("groupoid.enumerate_arrows", 0.0) / n, "ms/query"),
        "groupoid.arrows.built": (counts.get("groupoid.ArrowClass.__init__", 0) / n, "objects/query"),
        "groupoid.arrows.built_per_reported": (
            counts.get("groupoid.ArrowClass.__init__", 0) / reported_arrows if reported_arrows else 0.0,
            "ratio",
        ),
        "groupoid.cylinders.built": (counts.get("groupoid.Cylinder.__init__", 0) / n, "objects/query"),
        "groupoid.certify_no_isotropy.ms": (inc.get("groupoid.certify_no_isotropy", 0.0) / n, "ms/query"),
        "groupoid.product_with_af.ms": (inc.get("groupoid.product_with_af", 0.0) / n, "ms/query"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self.ms"] = (t["layer_self_ms"].get(layer, 0.0) / n, "ms/query")
    m["trace.spans"] = (t["spans"] / n, "spans/query")
    m["trace.overhead"] = (queries_per_s(plain) / queries_per_s(traced), "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
