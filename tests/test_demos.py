"""Each narrative demo under demos/ runs to completion and prints the story pinned in tests/golden.

A change that alters a demo's output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_demos.py`` and names the change.
"""

import io
import json
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demo_outputs.json"


def output_of(path: Path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert output_of(path) == golden[path.stem]


if __name__ == "__main__":
    outputs = {path.stem: output_of(path) for path in DEMOS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} demo outputs to {GOLDEN}", file=sys.stderr)
