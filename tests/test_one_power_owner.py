"""Only ``arith`` forms k**n - 1: no other library module holds a ``... ** ... - 1`` expression.

``arith._power_minus_one`` refuses a power too long to print before it forms
it, so a module that forms its own could build an integer no report can print.
A power of literals alone, such as selftest's ``3 ** 59 - 1``, is a constant
and exempt.  The print check itself, ``arith._check_printable``, is named only
in ``arith`` and in ``odometer``, whose ``OdometerSpec.from_rule`` expands a
level rule under it; the CLI imports no private name of the library.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "kcalc").glob("*.py"))


def powers_minus_one(tree: ast.AST) -> list[ast.BinOp]:
    """Every ``a ** b - 1`` in the tree whose power reads a name."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Pow)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
        and any(isinstance(part, ast.Name) for part in ast.walk(node.left))
    ]


def test_the_guard_sees_a_power_and_exempts_a_constant():
    assert len(powers_minus_one(ast.parse("m = k ** n - 1; c = 3 ** 59 - 1; p = k ** (n - 1)"))) == 1
    assert len(powers_minus_one(ast.parse("x = (k ** (p ** s) - 1) // small"))) == 1


def test_no_module_but_arith_forms_a_power_minus_one():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        if path.name != "arith.py"
        for node in powers_minus_one(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


PRINT_CHECK_OWNERS = {"arith.py", "odometer.py"}


def names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, imports or looks up as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def private_library_imports(tree: ast.AST) -> list[str]:
    """Each underscore name imported from a kcalc module, relatively or by the package name."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "kcalc")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_the_guards_see_a_name_and_a_private_import():
    tree = ast.parse("from .arith import DEFAULT_BUDGET_BITS, _check_printable\nimport json")
    assert "_check_printable" in names(tree)
    assert private_library_imports(tree) == ["1: _check_printable"]
    assert "_check_printable" in names(ast.parse("arith._check_printable(2, 3)"))
    assert private_library_imports(ast.parse("from kcalc.arith import _Value")) == ["1: _Value"]
    assert private_library_imports(ast.parse("from .odometer import psi\nfrom os import _exit")) == []


def test_only_arith_and_odometer_name_the_print_check():
    found = [
        path.name
        for path in SOURCES
        if path.name not in PRINT_CHECK_OWNERS
        and "_check_printable" in names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_cli_imports_no_private_library_name():
    cli = next(path for path in SOURCES if path.name == "cli.py")
    assert private_library_imports(ast.parse(cli.read_text(), filename=str(cli))) == []
