"""The library imports nothing outside the standard library, its syntax is Python 3.10's,
the CLI loads no dataclasses, and the package import leaves the CLI and argparse unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "kcalc").glob("*.py"))


def test_every_absolute_import_is_stdlib_or_kcalc():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "kcalc" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []


def test_every_source_parses_as_python_3_10():
    """The floor ``requires-python = ">=3.10.7"`` holds for syntax.

    ``feature_version`` refuses grammar newer than 3.10, such as ``except*``.
    It checks syntax only: a name the standard library gained in 3.11, or a
    3.11 behaviour, still passes.
    """
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _loaded(statement: str, modules: set[str]) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after ``statement``."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys; {statement}; print(sorted({modules!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_import_loads_no_dataclasses():
    assert _loaded("import kcalc.cli", {"dataclasses", "inspect"}) == "[]"


def test_package_import_loads_neither_cli_nor_argparse():
    assert _loaded("import kcalc", {"kcalc.cli", "argparse"}) == "[]"
