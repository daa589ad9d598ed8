"""Only ``arith`` forms k**n - 1: no other library module holds a ``... ** ... - 1`` expression.

``arith._power_minus_one`` refuses a power too long to print before it forms
it, so a module that forms its own could build an integer no report can print.
A power of literals alone, such as selftest's ``3 ** 59 - 1``, is a constant
and exempt.
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
