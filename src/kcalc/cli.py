"""Command-line front end emitting versioned JSON reports (or plain tables).

Subcommands: k0, ok, membership, distinguish, witness, groupoid, selftest.
Exit codes: 0 success, 1 a selftest check failed (its report is printed), 2
usage or precondition violation, 3 factorization budget exhausted.  Reports
are deterministic for fixed inputs (apart from the timing field; only
selftest takes ``--seed``) and carry the schema tag "kcalc/1".

Each handler returns only its results and citations.  ``main`` times the
handler and builds the report around them: the schema tag, the subcommand
name, the inputs its subparser names with ``set_defaults(inputs=...)``, and
the timing.

The library refuses (exit 2) a k**n - 1 too long to print, and expands a level
rule one level at a time under that check: ``k0 --rule`` and ``ok`` (the tower
of ``k0 --rule 1,k``) take their levels from ``OdometerSpec.from_rule`` and
their moduli from ``k0_odometer``.  The CLI refuses only what it parses or
renders too long: a decimal exponent, or any other integer.

``main(argv)`` also serves in-process callers: it takes the words after
``kcalc`` and returns the exit code.  Each call builds a fresh parser, but
``build_parser`` adds the options and the help action of only the subcommand
that argv names: that takes about 0.5 ms a call, where configuring all seven
takes 1.2 to 2 ms (2-vCPU host, Python 3.11).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from itertools import chain, islice
from typing import Sequence

from .arith import DEFAULT_BUDGET_BITS, FactorizationBudgetError
from .colimit import (
    Geometric,
    distinguish_colimits,
    identify_cuntz_k_theory,
    prime_power_order_witness,
)
from .groupoid import certify_no_isotropy, enumerate_arrows, product_with_af
from .odometer import (
    LocallyConstantFn,
    OdometerSpec,
    k0_odometer,
    membership_psi,
    membership_series,
    psi,
    pv_endomorphism,
    verify_correspondence_identities,
)

SCHEMA = "kcalc/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed level list: {text!r}")


def _parse_rule(text: str) -> Geometric:
    body = text.split(":", 1)[1] if text.startswith("geometric:") else text
    try:
        first, ratio = (int(part) for part in body.split(","))
    except ValueError:
        raise ValueError(f"malformed geometric rule: {text!r} (expected 'c,r')")
    return Geometric(first, ratio)


def _spec_from_args(args) -> OdometerSpec:
    if args.levels is not None:
        return OdometerSpec(args.k, _parse_levels(args.levels))
    if args.rule is not None:
        return OdometerSpec.from_rule(args.k, _parse_rule(args.rule), args.stages)
    raise ValueError("one of --levels or --rule is required")


def _refuse_long_exponents(text: str) -> None:
    """Refuse an exponent beyond the digit limit in magnitude: ``Fraction`` forms 10**exponent."""
    limit = sys.get_int_max_str_digits()
    for value in text.split(",") if limit and "E" in text.upper() else ():
        try:
            exponent = int(value.upper().partition("E")[2])
        except ValueError:  # no integer exponent: Fraction reports the malformed value
            continue
        if abs(exponent) > limit:
            raise ValueError(f"value {value!r} has a decimal exponent beyond {limit} in magnitude")


def _too_long() -> ValueError:
    return ValueError(
        f"the report holds an integer of more than {sys.get_int_max_str_digits()}"
        " digits, more than it can print"
    )


def _texts(fractions) -> list[str]:
    """Each Fraction as text; one with a term too long to print is refused."""
    try:
        return [str(v) for v in fractions]
    except ValueError:  # an int longer than sys.get_int_max_str_digits()
        raise _too_long() from None


def _cmd_k0(args) -> tuple[dict, list[str]]:
    spec = _spec_from_args(args)
    result = k0_odometer(spec)
    moduli = result.k0.moduli
    results = {
        "levels": list(spec.levels),
        "moduli": list(moduli),
        "multipliers": [b // a for a, b in zip(moduli, moduli[1:])],
        "multipliers_reduced": [h.multiplier for h in result.k0.maps],
        "unit_thread": [u.residue for u in result.k0.unit_thread],
        "k1": 0,
        "kernel_pivots": _texts(result.kernel_certificates),
    }
    return results, [
        "tower of cyclic groups from the finite-stage residue map: computed",
        "connecting multipliers (geometric sums): computed",
        "K_1 = 0 at every level via the closed-form kernel pivot 1 - k^-n,"
        " numerator k^n - 1 = -1 (mod k): computed",
    ]


def _cmd_ok(args) -> tuple[dict, list[str]]:
    outcome = identify_cuntz_k_theory(args.k, args.depth)  # checks the depth first
    # the levels k**(i-1), as k0 --rule 1,k
    spec = OdometerSpec.from_rule(args.k, Geometric(1, args.k), args.depth)
    moduli = k0_odometer(spec).k0.moduli
    k0_desc = "0" if outcome.k0_order == 1 else f"Z_{outcome.k0_order}"
    results = {
        "levels": list(spec.levels),
        "moduli": list(moduli),
        "supernatural": outcome.supernatural.describe(),
        "stage_orders": [outcome.k0_order] * outcome.depth,
        "cofactors": [m // (args.k - 1) for m in moduli],
        "induced_multipliers_mod_target": list(outcome.induced_multipliers),
        "unit_class": outcome.unit_class,
        "k0": k0_desc,
        "k1": 0,
        "verdict": (
            f"K_0 = {k0_desc}, [1] -> {outcome.unit_class}, K_1 = 0; matches the"
            f" Cuntz algebra on {args.k} generators; isomorphism by"
            " Kirchberg-Phillips (cited)"
        ),
    }
    return results, list(outcome.citations)


def _cmd_membership(args) -> tuple[dict, list[str]]:
    if args.n < 1:
        raise ValueError("n must be >= 1")
    _refuse_long_exponents(args.values)
    try:
        fractions = [Fraction(part) for part in args.values.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed value list: {args.values!r}")
    if len(fractions) != args.n:
        raise ValueError(f"expected {args.n} values, got {len(fractions)}")
    f = LocallyConstantFn.from_fractions(args.k, fractions)
    residue = psi(f)
    by_series = membership_series(f)
    witness = by_series.witness
    if witness is not None:  # its values can be longer than the input values
        witness = _texts(v.as_fraction() for v in witness.values)
    results = {
        "psi_residue": residue.residue,
        "psi_modulus": residue.modulus,
        "member_by_psi": residue.residue == 0,
        "member_by_series": by_series.member,
        "witness": witness,
    }
    return results, [
        "residue criterion (psi vanishing): computed",
        "geometric-series criterion with exact witness: computed",
    ]


def _budget_bits(args) -> int:
    if args.budget_bits < 0:
        raise ValueError("--budget-bits must be non-negative")
    return args.budget_bits


def _cmd_distinguish(args) -> tuple[dict, list[str]]:
    rule_a = _parse_rule(args.rule_a)
    rule_b = _parse_rule(args.rule_b)
    verdict = distinguish_colimits(args.k, rule_a, rule_b, budget_bits=_budget_bits(args))
    results = {"verdict": verdict.verdict}
    if verdict.distinct:
        w = verdict.witness
        results.update(
            {
                "qualifying_prime_power": f"{w.p}^{w.s}",
                "witness_prime_power": f"{w.q}^{w.r}",
                "witness_value": w.prime_power,
                "order_certificate": w.order,
                "first_stage_with_order": verdict.first_stage_with_order,
            }
        )
    return results, ["prime-power order witness with multiplicative-order certificate: computed"]


def _cmd_witness(args) -> tuple[dict, list[str]]:
    w = prime_power_order_witness(args.k, args.p, args.s, budget_bits=_budget_bits(args))
    results = {
        "q": w.q,
        "r": w.r,
        "prime_power": w.prime_power,
        "order_of_k": w.order,
        "divides": f"{w.prime_power} | {args.k}^b - 1  iff  {args.p}^{args.s} | b",
    }
    return results, ["existence by prime factorization; order certificate verified: computed"]


def _cylinder_json(c) -> dict:
    return {"level": c.level, "base": c.base, "word": list(c.word)}


def _cmd_groupoid(args) -> tuple[dict, list[str]]:
    if args.sample < 0:
        raise ValueError("--sample must be non-negative")
    spec = OdometerSpec(args.k, _parse_levels(args.levels))
    certificate = certify_no_isotropy(spec, args.max_disp)
    arrows = enumerate_arrows(args.k, certificate.level, args.depth, args.max_disp)
    sample = list(islice(arrows, min(args.sample, sys.maxsize)))  # islice stops at sys.maxsize
    # One pass over the stream: the product counts the sampled arrows and the rest,
    # af_block**2 product arrows to each arrow.
    af = product_with_af(chain(sample, arrows), args.af_block)
    results = {
        "certificate": {
            "stage": certificate.stage,
            "level": certificate.level,
            "max_displacement": certificate.max_displacement,
        },
        "vertex_level": certificate.level,
        "arrow_count": af.count // args.af_block ** 2,
        "arrows_per_displacement": certificate.level * args.k ** (args.depth + args.max_disp),
        "sample_arrows": [
            {
                "source": _cylinder_json(a.source),
                "target": _cylinder_json(a.target),
                "m": a.m,
                "n": a.n,
                "displacement": a.displacement,
            }
            for a in sample
        ],
        "af_block": args.af_block,
        "product_arrow_count": af.count,
    }
    return results, [
        "arrow enumeration at cylinder resolution: computed",
        "freeness of the finite-level rotation (no isotropy bound): computed",
        "product with a full equivalence-relation block: computed",
    ]


def _cmd_selftest(args) -> tuple[dict, list[str]]:
    checks: list[tuple[str, bool]] = []

    def check(name: str, fn) -> None:
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append((name, ok))

    from .arith import factorize, is_prime, multiplicative_order, valuation
    from .odometer import kernel_is_trivial

    check("factorize(255)", lambda: factorize(255) == {3: 1, 5: 1, 17: 1})

    def splits_phi_59_of_3() -> bool:
        # a 93-bit product whose smaller prime p-1 finds (q - 1 is 199-smooth)
        n = (3 ** 59 - 1) // 2
        powers = factorize(n)
        return all(map(is_prime, powers)) and math.prod(q ** e for q, e in powers.items()) == n

    check("factorize splits (3^59-1)/2 into primes that recompose it", splits_phi_59_of_3)
    check("valuation(19682, 2)", lambda: valuation(19682, 2) == 1)
    check("multiplicative_order(2, 5)", lambda: multiplicative_order(2, 5) == 4)
    check(
        "psi of the residue-0 indicator at k=2, n=2",
        lambda: psi(LocallyConstantFn.delta(2, 2, 0)).residue == 1,
    )
    delta_1 = LocallyConstantFn.delta(2, 3, 1)
    check(
        "membership criteria agree on a small sweep",
        lambda: all(
            membership_psi(f) == membership_series(f).member
            for f in (
                LocallyConstantFn.delta(2, 3, 0),
                LocallyConstantFn.zero(2, 3),
                delta_1 - pv_endomorphism(delta_1),
            )
        ),
    )
    check("kernel trivial at k=2, n=8", lambda: kernel_is_trivial(2, 8))
    check(
        "tower identification at k=3, depth=3",
        lambda: identify_cuntz_k_theory(3, 3).k0_order == 2,
    )
    check(
        "witness for k=2, p=2, s=2",
        lambda: prime_power_order_witness(2, 2, 2).prime_power == 5,
    )
    check(
        "distinguish k=2 towers of ratios 2 and 3",
        lambda: distinguish_colimits(2, Geometric(1, 2), Geometric(1, 3)).distinct,
    )
    check(
        "arrow count closed form at k=2, N=2, depth=2, disp=1",
        lambda: len(list(enumerate_arrows(2, 2, 2, 1))) == 3 * 2 * 2 ** 3,
    )
    check(
        "correspondence identities at k=2, N=3",
        lambda: verify_correspondence_identities(2, 3, 25, seed=args.seed).samples == 25,
    )

    passed = sum(1 for _, ok in checks if ok)
    results = {
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "passed": passed,
        "total": len(checks),
        "all_ok": passed == len(checks),
    }
    return results, ["library self checks"]


def _render(report: dict, table: bool) -> str:
    if not table:
        return json.dumps(report, indent=2)
    lines = [f"{'command':<12} {report['command']}"]
    for key, value in report["inputs"].items():
        lines.append(f"{key:<12} {value}")
    lines.append("-" * 40)
    for key, value in report["results"].items():
        lines.append(f"{key:<28} {value}")
    lines.append("-" * 40)
    for cite in report["citations"]:
        lines.append(f"  [{cite}]")
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    try:
        text = _render(report, args.table)
    except ValueError:  # an int longer than sys.get_int_max_str_digits()
        raise _too_long() from None
    # Write the file first, so that an unwritable --out prints no report.
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _output_options(p, budget=False) -> None:
    if budget:
        p.add_argument(
            "--budget-bits",
            type=int,
            default=DEFAULT_BUDGET_BITS,
            help="factorization size guard, in bits",
        )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--table", action="store_true", help="plain table output")
    p.add_argument("--out", help="also write the report to this file")


def _k0_options(p) -> None:
    p.add_argument("--k", type=int, required=True)
    tower = p.add_mutually_exclusive_group()
    tower.add_argument("--levels", help="comma-separated divisibility chain, e.g. 1,2,4")
    tower.add_argument("--rule", help="geometric rule 'c,r' or 'geometric:c,r'")
    p.add_argument("--stages", type=int, default=4, help="stages to expand a rule to")
    _output_options(p)
    p.set_defaults(handler=_cmd_k0, inputs=("k", "levels", "rule", "stages"))


def _ok_options(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    _output_options(p)
    p.set_defaults(handler=_cmd_ok, inputs=("k", "depth"))


def _membership_options(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--values", required=True, help="comma-separated values in Z[1/k]")
    _output_options(p)
    p.set_defaults(handler=_cmd_membership, inputs=("k", "n", "values"))


def _distinguish_options(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rule-a", required=True, dest="rule_a")
    p.add_argument("--rule-b", required=True, dest="rule_b")
    _output_options(p, budget=True)
    p.set_defaults(handler=_cmd_distinguish, inputs=("k", "rule_a", "rule_b"))


def _witness_options(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _output_options(p, budget=True)
    p.set_defaults(handler=_cmd_witness, inputs=("k", "p", "s"))


def _groupoid_options(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-disp", type=int, required=True, dest="max_disp")
    p.add_argument("--af-block", type=int, default=1, dest="af_block")
    p.add_argument("--sample", type=int, default=5, help="sample arrows to include")
    _output_options(p)
    p.set_defaults(handler=_cmd_groupoid, inputs=("k", "levels", "depth", "max_disp", "af_block"))


def _selftest_options(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    _output_options(p)
    p.set_defaults(handler=_cmd_selftest, inputs=("seed",))


# Each subcommand's help line and the function that adds its options, in usage order.
_SUBCOMMANDS = {
    "k0": ("inductive-limit K-theory of an odometer tower", _k0_options),
    "ok": ("identify the tensored tower with a Cuntz algebra", _ok_options),
    "membership": ("image membership for id - (1/k)T", _membership_options),
    "distinguish": ("compare two geometric towers", _distinguish_options),
    "witness": ("prime-power order witness", _witness_options),
    "groupoid": ("truncated path-space groupoid data", _groupoid_options),
    "selftest": ("quick library self checks", _selftest_options),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The kcalc parser, with options only for the subcommand that ``argv`` names.

    Every subcommand is registered, so the usage, ``--help`` and invalid-choice
    messages list them all.  Only the first word of ``argv`` that is a
    subcommand name gets its options, its defaults and its ``-h/--help``.
    That word names exactly the subparser argparse chooses, because the
    top-level parser has no option that takes a value: a word before it is an
    option that consumes no other word, or a positional (``--`` too) that
    argparse refuses as an invalid choice before it reaches any subparser.
    The other subparsers carry no action at all, not even a help action:
    argparse never invokes them and reads only their names and help lines.
    """
    parser = argparse.ArgumentParser(
        prog="kcalc",
        description="Exact K-theory computations for odometer towers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    named = next((word for word in argv if word in _SUBCOMMANDS), None)
    for name, (help_, add_options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_, add_help=name == named)
        if name == named:
            add_options(p)
    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Join ``--values`` and the word after it into ``--values=<list>``.

    argparse reads a separate word that starts with a minus sign, such as
    ``-1/2,1``, as an option rather than as the value of ``--values``.  It
    also takes ``--v`` and every longer prefix for ``--values``.
    """
    words = iter(argv)
    joined = []
    for word in words:
        value = next(words, None) if len(word) > 2 and "--values".startswith(word) else None
        joined.append(word if value is None else f"--values={value}")
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    words = _attach_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser(words)  # through the module global, which tracers may rebind
    try:
        args = parser.parse_args(words)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "k", 2) < 2:
        print("error: k must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        results, citations = args.handler(args)
        report = {
            "schema": SCHEMA,
            "command": args.subcommand,
            "inputs": {name: getattr(args, name) for name in args.inputs},
            "results": results,
            "citations": citations,
            "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
        }
        _emit(report, args)
    except FactorizationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.subcommand == "selftest" and not results["all_ok"]:
        return 1
    return EXIT_OK


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
