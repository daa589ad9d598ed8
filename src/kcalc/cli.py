"""Command-line front end emitting versioned JSON reports (or plain tables).

Subcommands: k0, ok, membership, distinguish, witness, groupoid, selftest.
Exit codes: 0 success, 2 usage or precondition violation, 3 factorization
budget exhausted.  Reports are deterministic for fixed inputs and seed
(apart from the timing field) and carry the schema tag "kcalc/1".
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Sequence

from .arith import DEFAULT_BUDGET_BITS, FactorizationBudgetError, KPowerRational
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
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError(f"malformed geometric rule: {text!r} (expected 'c,r')")
    return Geometric(int(parts[0]), int(parts[1]))


def _spec_from_args(args) -> OdometerSpec:
    if args.levels:
        return OdometerSpec(args.k, _parse_levels(args.levels))
    if args.rule:
        rule = _parse_rule(args.rule)
        return OdometerSpec(args.k, rule.levels(args.stages), rule=rule)
    raise ValueError("one of --levels or --rule is required")


def _report(command: str, inputs: dict, results: dict, citations: list[str], t0: float) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "citations": citations,
        "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
    }


def _cmd_k0(args) -> dict:
    t0 = time.perf_counter()
    spec = _spec_from_args(args)
    result = k0_odometer(spec)
    ratios = [
        (spec.k ** b - 1) // (spec.k ** a - 1)
        for a, b in zip(spec.levels, spec.levels[1:])
    ]
    results = {
        "levels": list(spec.levels),
        "moduli": list(result.k0.moduli),
        "multipliers": ratios,
        "multipliers_reduced": [h.multiplier for h in result.k0.maps],
        "unit_thread": [u.residue for u in result.k0.unit_thread],
        "k1": 0 if result.k1_trivial else "unknown",
        "kernel_pivots": [str(c.pivot) for c in result.kernel_certificates],
    }
    return _report(
        "k0",
        {"k": args.k, "levels": args.levels, "rule": args.rule, "stages": args.stages},
        results,
        [
            "tower of cyclic groups from the finite-stage residue map: computed",
            "connecting multipliers (geometric sums): computed",
            "K_1 = 0 via exact kernel elimination per level: computed",
        ],
        t0,
    )


def _cmd_ok(args) -> dict:
    t0 = time.perf_counter()
    outcome = identify_cuntz_k_theory(args.k, args.depth, budget_bits=args.budget_bits)
    k0_desc = "0" if outcome.k0_order == 1 else f"Z_{outcome.k0_order}"
    results = {
        "levels": list(outcome.levels),
        "moduli": list(outcome.moduli),
        "supernatural": outcome.supernatural.describe(),
        "stage_orders": [s.tensored_modulus for s in outcome.stages],
        "cofactors": [s.cofactor for s in outcome.stages],
        "induced_multipliers_mod_target": list(outcome.induced_multipliers),
        "unit_class": outcome.unit_class,
        "k0": k0_desc,
        "k1": 0 if outcome.k1_trivial else "unknown",
        "verdict": (
            f"K_0 = {k0_desc}, [1] -> {outcome.unit_class}, K_1 = 0; matches the"
            f" Cuntz algebra on {args.k} generators; isomorphism by"
            " Kirchberg-Phillips (cited)"
        ),
    }
    return _report(
        "ok",
        {"k": args.k, "depth": args.depth, "budget_bits": args.budget_bits},
        results,
        list(outcome.citations),
        t0,
    )


def _cmd_membership(args) -> dict:
    t0 = time.perf_counter()
    try:
        fractions = [Fraction(part) for part in args.values.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed value list: {args.values!r}")
    if len(fractions) != args.n:
        raise ValueError(f"expected {args.n} values, got {len(fractions)}")
    for v in fractions:
        if not KPowerRational.fraction_in_ring(v, args.k):
            raise ValueError(f"{v} does not lie in Z[1/{args.k}]")
    f = LocallyConstantFn.from_fractions(args.k, fractions)
    residue = psi(f)
    by_psi = membership_psi(f)
    by_series = membership_series(f)
    results = {
        "psi_residue": residue.residue,
        "psi_modulus": residue.modulus,
        "member_by_psi": by_psi,
        "member_by_series": by_series.member,
        "witness": (
            [str(v.as_fraction()) for v in by_series.witness.values]
            if by_series.witness is not None
            else None
        ),
    }
    return _report(
        "membership",
        {"k": args.k, "n": args.n, "values": args.values},
        results,
        [
            "residue criterion (psi vanishing): computed",
            "geometric-series criterion with exact witness: computed",
        ],
        t0,
    )


def _cmd_distinguish(args) -> dict:
    t0 = time.perf_counter()
    rule_a = _parse_rule(args.rule_a)
    rule_b = _parse_rule(args.rule_b)
    verdict = distinguish_colimits(args.k, rule_a, rule_b, budget_bits=args.budget_bits)
    results = {"verdict": verdict.verdict}
    if verdict.distinct:
        w = verdict.witness
        results.update(
            {
                "qualifying_prime_power": f"{verdict.prime}^{verdict.exponent}",
                "witness_prime_power": f"{w.q}^{w.r}",
                "witness_value": w.prime_power,
                "order_certificate": w.order,
                "first_stage_with_order": verdict.first_stage_with_order,
            }
        )
    return _report(
        "distinguish",
        {"k": args.k, "rule_a": args.rule_a, "rule_b": args.rule_b},
        results,
        ["prime-power order witness with multiplicative-order certificate: computed"],
        t0,
    )


def _cmd_witness(args) -> dict:
    t0 = time.perf_counter()
    w = prime_power_order_witness(args.k, args.p, args.s, budget_bits=args.budget_bits)
    results = {
        "q": w.q,
        "r": w.r,
        "prime_power": w.prime_power,
        "order_of_k": w.order,
        "divides": f"{w.prime_power} | {args.k}^b - 1  iff  {args.p}^{args.s} | b",
    }
    return _report(
        "witness",
        {"k": args.k, "p": args.p, "s": args.s},
        results,
        ["existence by prime factorization; order certificate verified: computed"],
        t0,
    )


def _cylinder_json(c) -> dict:
    return {"level": c.level, "base": c.base, "word": list(c.word)}


def _cmd_groupoid(args) -> dict:
    t0 = time.perf_counter()
    spec = OdometerSpec(args.k, _parse_levels(args.levels))
    certificate = certify_no_isotropy(spec, args.max_disp)
    arrows = enumerate_arrows(args.k, certificate.level, args.depth, args.max_disp)
    af = product_with_af(arrows, args.af_block)
    results = {
        "certificate": {
            "stage": certificate.stage,
            "level": certificate.level,
            "max_displacement": certificate.max_displacement,
        },
        "vertex_level": certificate.level,
        "arrow_count": len(arrows),
        "arrows_per_displacement": certificate.level * args.k ** (args.depth + args.max_disp),
        "sample_arrows": [
            {
                "source": _cylinder_json(a.source),
                "target": _cylinder_json(a.target),
                "m": a.m,
                "n": a.n,
                "displacement": a.displacement,
            }
            for a in arrows[: args.sample]
        ],
        "af_block": args.af_block,
        "product_arrow_count": af.count,
    }
    return _report(
        "groupoid",
        {
            "k": args.k,
            "levels": args.levels,
            "depth": args.depth,
            "max_disp": args.max_disp,
            "af_block": args.af_block,
        },
        results,
        [
            "arrow enumeration at cylinder resolution: computed",
            "freeness of the finite-level rotation (no isotropy bound): computed",
            "product with a full equivalence-relation block: computed",
        ],
        t0,
    )


def _cmd_selftest(args) -> dict:
    t0 = time.perf_counter()
    checks: list[tuple[str, bool]] = []

    def check(name: str, fn) -> None:
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append((name, ok))

    from .arith import factorize, multiplicative_order, valuation
    from .odometer import kernel_is_trivial

    check("factorize(255)", lambda: factorize(255) == {3: 1, 5: 1, 17: 1})
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
        lambda: len(enumerate_arrows(2, 2, 2, 1)) == 3 * 2 * 2 ** 3,
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
    return _report("selftest", {"seed": args.seed}, results, ["library self checks"], t0)


def _emit(report: dict, args) -> None:
    if getattr(args, "table", False):
        lines = [f"{'command':<12} {report['command']}"]
        for key, value in report["inputs"].items():
            lines.append(f"{key:<12} {value}")
        lines.append("-" * 40)
        for key, value in report["results"].items():
            lines.append(f"{key:<28} {value}")
        lines.append("-" * 40)
        for cite in report["citations"]:
            lines.append(f"  [{cite}]")
        text = "\n".join(lines)
    else:
        text = json.dumps(report, indent=2)
    # Write the file first, so that an unwritable --out prints no report.
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcalc",
        description="Exact K-theory computations for odometer towers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, budget=False):
        p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
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

    p = sub.add_parser("k0", help="inductive-limit K-theory of an odometer tower")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--levels", help="comma-separated divisibility chain, e.g. 1,2,4")
    p.add_argument("--rule", help="geometric rule 'c,r' or 'geometric:c,r'")
    p.add_argument("--stages", type=int, default=4, help="stages to expand a rule to")
    common(p)
    p.set_defaults(handler=_cmd_k0)

    p = sub.add_parser("ok", help="identify the tensored tower with a Cuntz algebra")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    common(p, budget=True)
    p.set_defaults(handler=_cmd_ok)

    p = sub.add_parser("membership", help="image membership for id - (1/k)T")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--values", required=True, help="comma-separated values in Z[1/k]")
    common(p)
    p.set_defaults(handler=_cmd_membership)

    p = sub.add_parser("distinguish", help="compare two geometric towers")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rule-a", required=True, dest="rule_a")
    p.add_argument("--rule-b", required=True, dest="rule_b")
    common(p, budget=True)
    p.set_defaults(handler=_cmd_distinguish)

    p = sub.add_parser("witness", help="prime-power order witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    common(p, budget=True)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("groupoid", help="truncated path-space groupoid data")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-disp", type=int, required=True, dest="max_disp")
    p.add_argument("--af-block", type=int, default=1, dest="af_block")
    p.add_argument("--sample", type=int, default=5, help="sample arrows to include")
    common(p)
    p.set_defaults(handler=_cmd_groupoid)

    p = sub.add_parser("selftest", help="quick library self checks")
    common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand in ("k0", "ok", "membership", "witness") and args.k < 2:
        print("error: k must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = args.handler(args)
        _emit(report, args)
    except FactorizationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.subcommand == "selftest" and not report["results"]["all_ok"]:
        return 1
    return EXIT_OK


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
