"""List the lines of ``src/kcalc`` that a run of the test suites never executes.

Run from the repository root (it takes a few minutes):

    python tests/tools/line_coverage.py

It runs ``pytest -q -p no:cacheprovider tests bench`` in this interpreter
under ``sys.settrace`` and ``threading.settrace``, using only the standard
library, then prints, for each file under ``src/kcalc``, every line that
``compile(...).co_lines()`` lists for it (or for a function or class nested
in it) but that the run never executed.  kcalc is imported only once tracing
is on, so module-level lines count too.  The exit code is pytest's.

It has two blind spots:

* Lines that run only in child interpreters are never seen: the tests that
  start ``python -m kcalc`` or ``python -c`` by ``subprocess`` (in
  ``tests/test_cli.py`` and ``tests/test_colimit.py``) cover them, so
  ``__main__.py`` and ``cli.run`` are listed although they run.
* Tests with a bound on time or memory can fail under tracing, which slows
  every Python line: the wall-clock budget of ``test_criterion_03`` does
  (20 to 25 s against its 10 s on a 2-vCPU host).  The ``tracemalloc``
  bound of ``test_zero_displacement_streams_in_constant_memory`` holds only
  because this tracer allocates nothing for a line it has already seen; a
  tracer that stores every event breaks it.  The lines a failing test runs
  are still recorded.

The lines it lists are then of two kinds: those that run only in a child
interpreter, and the self-checks that no input can reach without a bug in
kcalc (the ``RuntimeError`` of ``membership_series`` and the fixed checks at
the end of ``verify_correspondence_identities``).
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "kcalc"


def executable_lines(path: Path) -> set[int]:
    """Every line that the code compiled from ``path`` attributes an instruction to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main() -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "bench")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print()
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - executed.get(str(path), set()))
        print(f"{path.relative_to(ROOT)}: {len(missed)} unexecuted", *missed)
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
