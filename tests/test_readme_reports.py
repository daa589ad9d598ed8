"""The README's command-line examples print the reports pinned in tests/golden.

Each ``kcalc ...`` line of the README "Command line" block runs through
``main``; its JSON report, minus ``timing_ms``, must match the committed
report key for key and in the same order.  A change that alters a report on
purpose regenerates the file with ``PYTHONPATH=src python
tests/test_readme_reports.py`` and names the change.
"""

import io
import json
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from kcalc.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "readme_reports.json"


def readme_examples() -> list[str]:
    """The ``kcalc`` lines of the sh block under "## Command line", comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [line.split("#")[0].strip() for line in block.splitlines() if line.startswith("kcalc ")]


def report_of(line: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(shlex.split(line)[1:])
    assert code == EXIT_OK, line
    report = json.loads(out.getvalue())
    del report["timing_ms"]
    return report


EXAMPLES = readme_examples()


def test_the_readme_block_has_its_examples():
    assert len(EXAMPLES) == 8 and "kcalc selftest" in EXAMPLES


@pytest.mark.parametrize("line", EXAMPLES)
def test_report_matches_the_golden_file(line):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert json.dumps(report_of(line)) == json.dumps(golden[line])


if __name__ == "__main__":
    reports = {line: report_of(line) for line in EXAMPLES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(reports)} reports to {GOLDEN}", file=sys.stderr)
