"""Pinned digests of kcalc's reports, refusals and exit codes.

``report_corpus.json`` beside this script lists argvs for ``kcalc.cli.main``,
stored verbatim, and ``order_spectrum`` library queries.  For each entry it
holds the exit code and the SHA-256 of the exit code, the stderr and the
stdout with ``timing_ms`` blanked; a refusal also keeps its stderr as text,
so that a diff of the file shows the new message.  The entries are:

* the first whole round of each benchmark workload at seed 1: the argvs and
  the ``order_spectrum`` queries of the towers round;
* the README's command-line examples, as printed and with ``--table``;
* one argv for each refusal message, exit 2 and exit 3;
* help flags before, inside and after a subcommand.

``tests/test_report_corpus.py`` checks every entry.  A change that moves a
report on purpose regenerates the digests and names each entry that moved::

    PYTHONPATH=src python tests/golden/report_corpus.py

``--collect`` rebuilds the entry list itself from ``bench/workloads.py``, the
README, ``REFUSALS`` and ``HELP`` below before it digests them; without it
the stored argvs are kept, so a change under ``bench/`` cannot move the
corpus.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CORPUS = HERE / "report_corpus.json"
COLUMNS = "80"  # argparse wraps its usage lines to the terminal width
TIMING = re.compile(r'"timing_ms": [-+.0-9e]+')

# One argv for each refusal message the command line can print.
REFUSALS = [
    [],
    ["frobnicate"],
    ["k0"],
    ["k0", "--k"],
    ["k0", "--k", "x"],
    ["k0", "--k", "2", "--levels", "1", "--json", "--table"],
    ["k0", "--k", "2", "--levels", "1,2", "--rule", "1,3"],
    ["ok", "--k", "3", "--budget-bits", "8"],
    ["ok", "--k", "1"],
    ["ok", "--k", "3", "--out", "/nonexistent-kcalc-directory/report.json"],
    ["k0", "--k", "2"],
    ["k0", "--k", "2", "--levels", "1,x"],
    ["k0", "--k", "2", "--levels", "0,1"],
    ["k0", "--k", "2", "--levels", "2,1"],
    ["k0", "--k", "2", "--levels", "2,3"],
    ["k0", "--k", "2", "--rule", ""],
    ["k0", "--k", "2", "--rule", "0,2"],
    ["k0", "--k", "2", "--rule", "1,1"],
    ["k0", "--k", "2", "--rule", "1,2", "--stages", "0"],
    ["k0", "--k", "2", "--rule", "1,2", "--stages", "15"],
    ["k0", "--k", "2", "--rule", "1,2", "--stages", "14000"],
    ["k0", "--k", "2", "--rule", "1,2", "--stages", "1000000"],
    ["k0", "--k", "2", "--rule", "1,2", "--stages", "1000000000000000000"],
    ["k0", "--k", "2", "--rule", "1,3", "--stages", "10"],
    ["k0", "--k", "2", "--rule", f"1,{10 ** 1000}", "--stages", "2"],
    ["k0", "--k", "2", "--rule", f"1,{10 ** 1000}", "--stages", "6"],
    ["k0", "--k", "2", "--rule", f"2,{10 ** 4300 - 1}", "--stages", "2"],
    ["k0", "--k", "10", "--levels", "4299"],
    ["k0", "--k", "10", "--levels", "4300"],
    ["ok", "--k", "3", "--depth", "1"],
    ["ok", "--k", "10", "--depth", "4"],
    ["ok", "--k", "10", "--depth", "5"],
    ["ok", "--k", "1000", "--depth", "4"],
    ["ok", "--k", "2", "--depth", "14000"],
    ["ok", "--k", "2", "--depth", "1000000000"],
    ["ok", "--k", "2", "--depth", "1000000000000000000"],
    ["membership", "--k", "2", "--n", "0", "--values="],
    ["membership", "--k", "2", "--n", "2", "--values=1,x"],
    ["membership", "--k", "2", "--n", "2", "--values=1/0,1"],
    ["membership", "--k", "2", "--n", "2", "--values=1e5000,0"],
    ["membership", "--k", "2", "--n", "3", "--values=1,0"],
    ["membership", "--k", "2", "--n", "1", "--values=1/3"],
    ["membership", "--k", "2", "--n", "1", "--values=" + "9" * 4300],
    ["membership", "--k", "10", "--n", "4300", "--values=" + ",".join(["0"] * 4300)],
    ["membership", "--k", "10", "--n", "4301", "--values=" + ",".join(["0"] * 4301)],
    ["membership", "--k", "10", "--n", "4301", "--values=1"],
    ["distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1,x"],
    ["distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1,3", "--budget-bits", "-1"],
    ["distinguish", "--k", "2", "--rule-a", "256,3", "--rule-b", "1,3", "--budget-bits", "8"],
    ["distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1099511627776,3"],
    ["witness", "--k", "2", "--p", "4", "--s", "1"],
    ["witness", "--k", "2", "--p", "2", "--s", "0"],
    ["witness", "--k", "2", "--p", "3", "--s", "1", "--budget-bits", "0"],
    ["witness", "--k", "2", "--p", "2", "--s", "4", "--budget-bits", "8"],
    ["witness", "--k", "2", "--p", "2", "--s", "40"],
    ["witness", "--k", "2", "--p", "3", "--s", "5"],
    ["groupoid", "--k", "2", "--levels", "1,2", "--depth", "1", "--max-disp", "1", "--sample", "-1"],
    ["groupoid", "--k", "2", "--levels", "1,x", "--depth", "1", "--max-disp", "1"],
    ["groupoid", "--k", "2", "--levels", "1,2", "--depth", "-1", "--max-disp", "0"],
    ["groupoid", "--k", "2", "--levels", "1,2", "--depth", "1", "--max-disp", "-1"],
    ["groupoid", "--k", "2", "--levels", "1,2", "--depth", "1", "--max-disp", "2"],
    ["groupoid", "--k", "2", "--levels", "1,2", "--depth", "40", "--max-disp", "1"],
    ["groupoid", "--k", "2", "--levels", "1", "--depth", "2", "--max-disp", "1"],
    ["groupoid", "--k", "2", "--levels", "1,2", "--depth", "1", "--max-disp", "1", "--af-block", "0"],
    ["groupoid", "--k", "2", "--levels", "1,2,4", "--depth", "1", "--max-disp", "0", "--af-block", str(10 ** 2200)],
]

# Help flags before, inside and after a subcommand, and before an unknown one.
HELP = [
    ["-h", "witness"],
    ["witness", "-h"],
    ["ok", "k0", "-h"],
    ["k0", "--k", "2", "-h", "--levels", "1,2"],
    ["--help", "frobnicate"],
]


def readme_argvs() -> list[list[str]]:
    """The README's ``kcalc`` examples under "## Command line", then each with ``--table``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("kcalc ")]
    argvs = [shlex.split(line)[1:] for line in lines]
    return argvs + [[*argv, "--table"] for argv in argvs]


def collect() -> list[dict]:
    """The entries, rebuilt from the benchmark's first rounds, the README, REFUSALS and HELP."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    entries = []
    for workload in workloads.WORKLOADS:
        for i in range(workloads.round_size(workload)):
            q = workloads.query(workload, 1, i)
            entries.append({"argv": q["argv"]} if "argv" in q else {"spectrum": q["api"]})
    entries += [{"argv": argv} for argv in readme_argvs() + REFUSALS + HELP]
    return entries


def _spectrum(k: int, c: int, r: int, stages: int) -> str:
    """The tower's moduli and order spectrum, as a library caller reads them."""
    from kcalc.colimit import Geometric, order_spectrum
    from kcalc.odometer import OdometerSpec, k0_odometer

    rule = Geometric(c, r)
    tower = k0_odometer(OdometerSpec(k, rule.levels(stages), rule=rule)).k0
    spectrum = {str(q): [b.prefix_max, b.exact] for q, b in order_spectrum(tower).items()}
    return json.dumps({"moduli": list(tower.moduli), "spectrum": spectrum})


def run(entry: dict) -> tuple[int, str, str]:
    """Exit code, stderr and stdout (``timing_ms`` blanked) of one entry."""
    from kcalc.cli import main

    if "spectrum" in entry:
        try:
            return 0, "", _spectrum(**entry["spectrum"])
        except Exception as exc:
            return 1, f"{type(exc).__name__}: {exc}", ""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(entry["argv"])
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, err.getvalue(), TIMING.sub('"timing_ms": _', out.getvalue())


def digest(code: int, err: str, out: str) -> str:
    return hashlib.sha256(json.dumps([code, err, out]).encode()).hexdigest()


def pinned(entry: dict) -> dict:
    """The entry with its exit code and digest, and its stderr when it is refused."""
    code, err, out = run(entry)
    query = {key: entry[key] for key in ("argv", "spectrum") if key in entry}
    return {**query, "exit": code, "sha256": digest(code, err, out), **({"stderr": err} if code else {})}


def label(entry: dict) -> str:
    """A short name for the entry: its argv, long words cut, or its library call."""
    if "spectrum" in entry:
        return "order_spectrum " + json.dumps(entry["spectrum"], sort_keys=True)
    words = [w if len(w) <= 40 else f"{w[:20]}...({len(w)} chars)" for w in entry["argv"]]
    return "kcalc " + shlex.join(words)


def main() -> None:
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []
    entries = [pinned(entry) for entry in (collect() if "--collect" in sys.argv[1:] else old)]
    lines = ",\n".join(json.dumps(entry) for entry in entries)  # one entry a line
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    before = {label(e): e["sha256"] for e in old}
    for entry in entries:
        if label(entry) in before and before[label(entry)] != entry["sha256"]:
            print(f"moved: {label(entry)}  (exit {entry['exit']})", file=sys.stderr)
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
