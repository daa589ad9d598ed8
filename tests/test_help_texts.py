"""The help texts of ``kcalc`` and of each subcommand are pinned in tests/golden.

Each ``kcalc [<subcommand>] --help`` runs through ``main`` at a fixed
``COLUMNS``, so argparse wraps the text the same way on every terminal; the
text must match the committed one byte for byte.  A change that alters a help
text on purpose regenerates the file with ``PYTHONPATH=src python
tests/test_help_texts.py`` and names the change.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from kcalc.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "help_texts.json"
COLUMNS = "80"
SUBCOMMANDS = ("k0", "ok", "membership", "distinguish", "witness", "groupoid", "selftest")
LINES = ["kcalc --help", *(f"kcalc {name} --help" for name in SUBCOMMANDS)]


def help_of(line: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(line.split()[1:])
    assert code == EXIT_OK, line
    return out.getvalue()


@pytest.mark.parametrize("line", LINES)
def test_help_matches_the_golden_file(line, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert help_of(line) == golden[line]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    texts = {line: help_of(line) for line in LINES}
    GOLDEN.write_text(json.dumps(texts, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(texts)} help texts to {GOLDEN}", file=sys.stderr)
