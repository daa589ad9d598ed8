"""Self-test of the outside-in tracer.

    python3 -m pytest bench/test_tracer.py

Checks that tracing leaves kcalc exactly as it found it, and that it changes
no report: stdout is byte-identical with tracing on and off apart from the
``timing_ms`` field.
"""

from __future__ import annotations

import inspect
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402

worker.import_kcalc(os.path.dirname(HERE))

import workloads  # noqa: E402
from tracer import Tracer, kcalc_modules  # noqa: E402

TIMING = re.compile(r'"timing_ms": [0-9.e+-]+')


def sample_queries() -> list[dict]:
    """The warm-up queries plus the first queries of every workload's stream."""
    queries = [q for name in workloads.WORKLOADS for q in workloads.WARMUP[name]]
    for name, count in (("membership", 6), ("towers", 30), ("groupoid", 6)):
        for i in range(count):
            q = workloads.query(name, 7, i)
            if q["kind"] == "groupoid" and q["k"] ** q["depth"] > 512:
                continue  # keep the test fast; small shapes cover the same code
            if q["kind"] == "membership" and q["n"] > 64:
                continue
            queries.append(q)
    return queries


def snapshot() -> dict:
    """Every attribute of every kcalc module and of every class defined there."""
    seen = {}
    for mod in kcalc_modules():
        for key, value in vars(mod).items():
            seen[(mod.__name__, key)] = value
            if inspect.isclass(value) and value.__module__.startswith("kcalc"):
                for attr, member in vars(value).items():
                    seen[(mod.__name__, key, attr)] = member
    return seen


def outputs(queries: list[dict]) -> list[str]:
    """Each query's stdout with the timing field masked (library calls: the result)."""
    import contextlib
    import io

    from kcalc import cli

    texts = []
    for q in queries:
        if "api" in q:
            texts.append(repr(worker._order_spectrum(**q["api"])))
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(q["argv"]) == 0, q["argv"]
        texts.append(TIMING.sub('"timing_ms": _', out.getvalue()))
    return texts


def test_tracer_restores_every_attribute():
    before = snapshot()
    tracer = Tracer()
    for _ in range(2):  # the benchmark installs one tracer once per query
        with tracer:
            outputs(sample_queries())
    after = snapshot()
    assert tracer.spans, "the tracer recorded nothing"
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_tracer_wraps_every_reference():
    from kcalc import arith, colimit, odometer

    with Tracer():
        assert arith.factorize is colimit.factorize
        assert arith.factorize.__wrapped__ is not None
        assert odometer.KPowerRational is arith.KPowerRational
    assert not hasattr(arith.factorize, "__wrapped__")


def test_reports_identical_with_tracing_on_and_off():
    queries = sample_queries()
    plain = outputs(queries)
    with Tracer() as tracer:
        traced = outputs(queries)
    assert traced == plain
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "cli.build_parser", "arith.factorize", "odometer.membership_series",
            "groupoid.enumerate_arrows", "colimit.order_spectrum"} <= names
