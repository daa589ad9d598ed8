"""Every name kcalc exports exists, each module's ``__all__`` is the one list of them,
and the value types keep their semantics."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
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
HOM = "CyclicHom(source_modulus=3, target_modulus=15, multiplier=5)"
RULE = "Geometric(first=2, ratio=2)"
COLIMIT = (
    f"CyclicColimit(moduli=(3, 15), maps=({HOM},), unit_thread=(CyclicElement(modulus=3, residue=1),"
    f" CyclicElement(modulus=15, residue=5)), level_rule={RULE})"
)
WITNESS = "PrimePowerWitness(k=2, p=3, s=1, q=7, r=1)"
STAGE = "IdentificationStage(k=3, stage={}, tensored_modulus=2, cofactor_congruences=((2, 1),), unit_image=1)"
FN = "LocallyConstantFn(k=2, values=(KPowerRational(1, base=2), KPowerRational(1/2^1)))"
ARROW = (
    "ArrowClass(source=Cylinder(level=2, base=0, word=(1, 2)),"
    " target=Cylinder(level=2, base=1, word=(2, 1)), m=1, n=0)"
)


def _value_cases():
    hom = CyclicHom(3, 15, 5)
    units = (CyclicElement(3, 1), CyclicElement(15, 5))
    colimit = CyclicColimit((3, 15), (hom,), units, Geometric(2, 2))
    witness = PrimePowerWitness(2, 3, 1, 7, 1)
    fn = LocallyConstantFn(2, (KPowerRational(2, 1), KPowerRational(2, 1, 1)))
    return [
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
        (
            TensorReduction,
            (6, 2, CyclicElement(2, 1), CyclicHom(6, 2, 1)),
            ("source_modulus", "modulus", "generator_image", "surjection"),
            "TensorReduction(source_modulus=6, modulus=2, generator_image=CyclicElement(modulus=2, residue=1),"
            " surjection=CyclicHom(source_modulus=6, target_modulus=2, multiplier=1))",
            {},
        ),
        (Geometric, (2, 3), ("first", "ratio"), "Geometric(first=2, ratio=3)", {}),
        (
            CyclicColimit,
            ((3, 15), (hom,), units, Geometric(2, 2)),
            ("moduli", "maps", "unit_thread", "level_rule"),
            COLIMIT,
            {"unit_thread": None, "level_rule": None},
        ),
        (OrderBound, (3, True), ("prefix_max", "exact"), "OrderBound(prefix_max=3, exact=True)", {}),
        (PrimePowerWitness, (2, 3, 1, 7, 1), ("k", "p", "s", "q", "r"), WITNESS, {}),
        (
            DistinguishVerdict,
            (True, witness, 2),
            ("distinct", "witness", "first_stage_with_order"),
            f"DistinguishVerdict(distinct=True, witness={WITNESS}, first_stage_with_order=2)",
            {"prime": None, "exponent": None, "witness": None, "first_stage_with_order": None},
        ),
        (
            IdentificationStage,
            (3, 1, 2, ((2, 1),), 1),
            ("k", "stage", "tensored_modulus", "cofactor_congruences", "unit_image"),
            STAGE.format(1),
            {},
        ),
        (
            CuntzIdentification,
            (3, 2, SupernaturalNumber.coprime_complement(2), ((2, 1),)),
            ("k", "depth", "supernatural", "cofactor_congruences"),
            "CuntzIdentification(k=3, depth=2, supernatural=SupernaturalNumber(complement(2)),"
            " cofactor_congruences=((2, 1),))",
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
        (SeriesMembership, (True, fn), ("member", "witness"), f"SeriesMembership(member=True, witness={FN})", {}),
        (
            OdometerKTheory,
            (colimit, (Fraction(3, 4),)),
            ("k0", "kernel_certificates"),
            f"OdometerKTheory(k0={COLIMIT}, kernel_certificates=(Fraction(3, 4),))",
            {},
        ),
        (
            CorrespondenceReport,
            (2, 3, 4, 5, 6, 7),
            ("k", "vertex_level", "samples", "positivity_checks", "module_identity_checks", "rank_one_checks"),
            "CorrespondenceReport(k=2, vertex_level=3, samples=4, positivity_checks=5,"
            " module_identity_checks=6, rank_one_checks=7)",
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
