"""Every name kcalc exports exists, each module's ``__all__`` is the one list of them,
and the value types keep their semantics."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import kcalc
from kcalc import abelian, arith, colimit, groupoid, odometer
from kcalc.abelian import CyclicElement, CyclicHom, LocalizedQuotient, TensorReduction
from kcalc.arith import KPowerRational, SupernaturalNumber, _Value
from kcalc.colimit import (
    CuntzIdentification,
    CyclicColimit,
    DistinguishVerdict,
    Geometric,
    IdentificationStage,
    OrderBound,
    PrimePowerWitness,
)
from kcalc.groupoid import AfProduct, ArrowClass, Cylinder, IsotropyCertificate
from kcalc.odometer import (
    CorrespondenceReport,
    LocallyConstantFn,
    OdometerKTheory,
    OdometerSpec,
    SeriesMembership,
)


def test_every_exported_name_resolves():
    names = ["kcalc"] + [f"kcalc.{m.name}" for m in pkgutil.iter_modules(kcalc.__path__)]
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert stale == []


LIBRARY = (arith, abelian, colimit, odometer, groupoid)


def test_package_exports_the_module_lists_in_order():
    assert kcalc.__all__ == [name for module in LIBRARY for name in module.__all__] + ["__version__"]


def _public_definitions(module) -> list[str]:
    """The public top-level classes, functions and constants of a module's source."""
    names = []
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


@pytest.mark.parametrize("module", LIBRARY, ids=[m.__name__ for m in LIBRARY])
def test_module_all_lists_exactly_its_public_definitions(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) == set(_public_definitions(module))


# One instance of each value type: (class, positional arguments, field names,
# exact repr, defaults of the trailing fields).  The arguments are given
# before normalisation, so a rebuilt copy goes through the same checks.
RULE = "Geometric(first=2, ratio=2)"
COLIMIT = f"CyclicColimit(moduli=(3, 15), unit=1, level_rule={RULE})"
WITNESS = "PrimePowerWitness(k=2, p=3, s=1, q=7, r=1)"
FN = "LocallyConstantFn(k=2, values=(KPowerRational(1, base=2), KPowerRational(1/2^1)))"
ARROW = (
    "ArrowClass(source=Cylinder(level=2, base=0, word=(1, 2)),"
    " target=Cylinder(level=2, base=1, word=(2, 1)), m=1, n=0)"
)


def _value_cases():
    colimit = CyclicColimit((3, 15), 4, Geometric(2, 2))
    witness = PrimePowerWitness(2, 3, 1, 7, 1)
    fn = LocallyConstantFn(2, (KPowerRational(2, 1), KPowerRational(2, 1, 1)))
    return [
        (
            SupernaturalNumber,
            (((3, 2), (5, 0), (2, None)), 0),
            ("powers", "rest"),
            "SupernaturalNumber(2^inf*3^2)",
            {},
        ),
        (CyclicElement, (5, 7), ("modulus", "residue"), "CyclicElement(modulus=5, residue=2)", {}),
        (
            CyclicHom,
            (4, 8, 14),
            ("source_modulus", "target_modulus", "multiplier"),
            "CyclicHom(source_modulus=4, target_modulus=8, multiplier=6)",
            {},
        ),
        (
            LocalizedQuotient,
            (3, SupernaturalNumber.from_powers({2: None})),
            ("modulus", "constraint"),
            "LocalizedQuotient(modulus=3, constraint=SupernaturalNumber(2^inf))",
            {},
        ),
        (TensorReduction, (6, 2), ("source_modulus", "modulus"), "TensorReduction(source_modulus=6, modulus=2)", {}),
        (Geometric, (2, 3), ("first", "ratio"), "Geometric(first=2, ratio=3)", {}),
        (
            CyclicColimit,
            ((3, 15), 4, Geometric(2, 2)),
            ("moduli", "unit", "level_rule"),
            COLIMIT,
            {"unit": None, "level_rule": None},
        ),
        (OrderBound, (3, True), ("prefix_max", "exact"), "OrderBound(prefix_max=3, exact=True)", {}),
        (PrimePowerWitness, (2, 3, 1, 7, 1), ("k", "p", "s", "q", "r"), WITNESS, {}),
        (
            DistinguishVerdict,
            (witness, 2),
            ("witness", "first_stage_with_order"),
            f"DistinguishVerdict(witness={WITNESS}, first_stage_with_order=2)",
            {"distinct": False, "witness": None, "first_stage_with_order": None},
        ),
        (
            IdentificationStage,
            (3, 1, ((2, 1),)),
            ("k", "stage", "cofactor_congruences"),
            "IdentificationStage(k=3, stage=1, cofactor_congruences=((2, 1),))",
            {},
        ),
        (
            CuntzIdentification,
            (3, 2, ((2, 1),)),
            ("k", "depth", "cofactor_congruences"),
            "CuntzIdentification(k=3, depth=2, cofactor_congruences=((2, 1),))",
            {},
        ),
        (
            OdometerSpec,
            (2, [1, 2], Geometric(1, 2)),
            ("k", "levels", "rule"),
            "OdometerSpec(k=2, levels=(1, 2), rule=Geometric(first=1, ratio=2))",
            {"rule": None},
        ),
        (LocallyConstantFn, (2, [KPowerRational(2, 1), KPowerRational(2, 1, 1)]), ("k", "values"), FN, {}),
        (SeriesMembership, (fn,), ("witness",), f"SeriesMembership(witness={FN})", {}),
        (
            OdometerKTheory,
            (colimit,),
            ("k0",),
            f"OdometerKTheory(k0={COLIMIT})",
            {},
        ),
        (
            CorrespondenceReport,
            (2, 3, 4),
            ("k", "vertex_level", "samples"),
            "CorrespondenceReport(k=2, vertex_level=3, samples=4)",
            {},
        ),
        (Cylinder, (3, 4, [1, 2]), ("level", "base", "word"), "Cylinder(level=3, base=1, word=(1, 2))", {}),
        (
            ArrowClass,
            (Cylinder(2, 0, (1, 2)), Cylinder(2, 1, (2, 1)), 1, 0),
            ("source", "target", "m", "n"),
            ARROW,
            {},
        ),
        (
            IsotropyCertificate,
            (1, 2, 1),
            ("stage", "level", "max_displacement"),
            "IsotropyCertificate(stage=1, level=2, max_displacement=1)",
            {},
        ),
        (AfProduct, (4, 2), ("count", "block_size"), "AfProduct(count=4, block_size=2)", {}),
    ]


VALUE_CASES = _value_cases()


@pytest.mark.parametrize("index", range(len(VALUE_CASES)), ids=[case[0].__name__ for case in VALUE_CASES])
def test_value_types_keep_dataclass_semantics(index):
    cls, args, names, text, defaults = VALUE_CASES[index]
    value = cls(*args)
    keyword = dict(zip(names, args))
    for copy_ in (cls(*args), cls(**keyword), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert copy_ == value and not copy_ != value
        assert hash(copy_) == hash(value)
    other_cls, other_args = VALUE_CASES[(index + 1) % len(VALUE_CASES)][:2]
    other = other_cls(*other_args)
    assert value != other and value.__eq__(other) is NotImplemented
    assert repr(value) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text  # the refused writes changed nothing
    required = {name: keyword[name] for name in names if name not in defaults}
    default_built = cls(**required)
    for name, expected in defaults.items():
        assert getattr(default_built, name) == expected, name


VALUE_TYPES = _Value.__subclasses__()


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=[cls.__name__ for cls in VALUE_TYPES])
def test_value_type_init_parameters_are_its_slots(cls):
    # __reduce__, _init and the repr all pass or read the fields in __slots__ order
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    assert params == list(cls.__slots__)


# A value of each type with derived values, and what they read
DERIVED_CASES = [
    (DistinguishVerdict(PrimePowerWitness(2, 3, 1, 7, 1), 2), {"distinct": True}),
    (DistinguishVerdict(), {"distinct": False}),
    (SeriesMembership(LocallyConstantFn.zero(2, 3)), {"member": True}),
    (SeriesMembership(None), {"member": False}),
    (IdentificationStage(7, 2, ((2, 1), (3, 1))), {"tensored_modulus": 6, "unit_image": 1}),
    (IdentificationStage(2, 1, ()), {"tensored_modulus": 1, "unit_image": 0}),
    (CuntzIdentification(7, 2, ((2, 1), (3, 1))), {"supernatural": SupernaturalNumber.coprime_complement(6)}),
    (CuntzIdentification(2, 2, ()), {"supernatural": SupernaturalNumber.coprime_complement(1)}),
    (TensorReduction(12, 3), {"generator_image": CyclicElement(3, 1), "surjection": CyclicHom(12, 3, 1)}),
    (CorrespondenceReport(2, 3, 4), {"positivity_checks": 4, "module_identity_checks": 4, "rank_one_checks": 4}),
    (
        CyclicColimit((3, 15, 255), 1),
        {
            "maps": (CyclicHom(3, 15, 5), CyclicHom(15, 255, 17)),
            "unit_thread": (CyclicElement(3, 1), CyclicElement(15, 5), CyclicElement(255, 85)),
        },
    ),
    (CyclicColimit((1, 3)), {"maps": (CyclicHom(1, 3, 3),), "unit_thread": None}),
    (
        OdometerKTheory(CyclicColimit((3, 15, 255), 0)),
        {"kernel_certificates": (Fraction(3, 4), Fraction(15, 16), Fraction(255, 256))},
    ),
]


@pytest.mark.parametrize("value, derived", DERIVED_CASES, ids=[type(value).__name__ for value, _ in DERIVED_CASES])
def test_derived_values_are_read_only_properties_not_fields(value, derived):
    for name, expected in derived.items():
        assert name not in type(value).__slots__
        assert isinstance(getattr(type(value), name), property), name
        assert getattr(value, name) == expected, name
        with pytest.raises(AttributeError):
            setattr(value, name, expected)


# A signature quoted in the README, such as `AfProduct(count, block_size)`
SIGNATURE = re.compile(r"`([A-Z]\w*)\(([^`()]*)\)`")


def test_readme_signatures_list_the_slots_in_order():
    value_types = {cls.__name__: cls for cls in VALUE_TYPES}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    quoted = [(name, args) for name, args in SIGNATURE.findall(readme) if name in value_types]
    assert {"CuntzIdentification", "SupernaturalNumber", "AfProduct"} <= {name for name, _ in quoted}
    for name, args in quoted:
        assert [a.strip() for a in args.split(",")] == list(value_types[name].__slots__), name


# KPowerRational keeps its own equality and hash: values in different bases
# are equal when they are the same rational, on purpose.  As a _Value storing
# through object.__setattr__ it made membership queries about 7% slower
# (process CPU time, minimum of 15 passes over 198 queries, 5 alternations).
OWN_EQUALITY = {"_Value", "KPowerRational"}


def _class_attributes(node: ast.ClassDef):
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (target.id for target in item.targets if isinstance(target, ast.Name))


def test_only_value_and_kpower_rational_define_equality():
    found = []
    for path in sorted(Path(kcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name not in OWN_EQUALITY:
                found += [
                    f"{path.name}:{node.name}.{name}"
                    for name in _class_attributes(node)
                    if name in ("__eq__", "__hash__")
                ]
    assert found == []
