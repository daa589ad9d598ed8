"""Independent answer checks, run by the parent after the timed loop.

Each check re-derives the expected answer without going through kcalc:
closed forms, modular arithmetic with ``pow``, and sympy (used only here)
for factorizations and primality.  ``check`` returns None for a correct
reply and a one-line reason otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy

from workloads import arrow_count, distinguish_target, valuation


def check(q: dict, result: dict) -> str | None:
    if result["error"] is not None:
        return result["error"]
    report = result["report"]
    if q["kind"] != "spectrum" and (report.get("schema") != "kcalc/1" or report.get("command") != q["kind"]):
        return "report header is not kcalc/1 for this command"
    try:
        return _CHECKS[q["kind"]](q, report if q["kind"] == "spectrum" else report["results"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


@lru_cache(maxsize=None)
def factorint(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(sympy.factorint(n).items()))


# -- membership --------------------------------------------------------------


def _membership(q, res):
    k, n = q["k"], q["n"]
    m = k ** n - 1
    expected_residue = 0
    for j, text in enumerate(q["values"]):
        v = Fraction(text)
        expected_residue += v.numerator * pow(v.denominator, -1, m) * pow(k, j, m)
    expected_residue %= m
    if res["psi_modulus"] != m:
        return f"psi modulus {res['psi_modulus']} != {k}^{n} - 1"
    if res["psi_residue"] != expected_residue:
        return f"psi residue {res['psi_residue']} != direct sum {expected_residue}"
    if (expected_residue == 0) != q["member"]:
        return "generator invariant broken: residue does not match construction"
    if res["member_by_psi"] is not q["member"] or res["member_by_series"] is not q["member"]:
        return f"verdicts psi={res['member_by_psi']} series={res['member_by_series']}, expected {q['member']}"
    if res["witness"] != q["witness"]:
        return "witness differs from the constructed preimage"
    return None


# -- towers ------------------------------------------------------------------


def _check_witness(k, p, s, q_, r, order) -> str | None:
    big, small = k ** (p ** s) - 1, k ** (p ** (s - 1)) - 1
    qr = q_ ** r
    if order != p ** s:
        return f"order certificate {order} != {p}^{s}"
    if not sympy.isprime(q_):
        return f"witness base {q_} is not prime"
    if pow(k, p ** s, qr) != 1 or pow(k, p ** (s - 1), qr) == 1:
        return f"ord of {k} mod {q_}^{r} is not {p}^{s}"
    first = next((pr for pr, e in factorint(big) if e > valuation(small, pr)), None)
    if first != q_ or r != valuation(small, q_) + 1:
        return f"witness {q_}^{r} is not the minimal one ({first})"
    return None


def _witness(q, res):
    k, p, s = q["k"], q["p"], q["s"]
    if res["prime_power"] != res["q"] ** res["r"]:
        return "prime_power != q^r"
    return _check_witness(k, p, s, res["q"], res["r"], res["order_of_k"])


def _levels(c, r, stages):
    return [c * r ** i for i in range(stages)]


def _distinguish(q, res):
    k, a, b = q["k"], tuple(q["rule_a"]), tuple(q["rule_b"])
    target = distinguish_target(a, b)
    if target is None:
        return None if res["verdict"] == "inconclusive" else f"verdict {res['verdict']}, expected inconclusive"
    p, s = target
    if res["verdict"] != "distinct" or res["qualifying_prime_power"] != f"{p}^{s}":
        return f"verdict {res['verdict']} {res.get('qualifying_prime_power')}, expected distinct {p}^{s}"
    # p^s must divide some level of A and no level of B (checked on a long prefix).
    levels_a, levels_b = _levels(*a, 40), _levels(*b, 40)
    if all(n % p ** s for n in levels_a) or any(n % p ** s == 0 for n in levels_b):
        return f"{p}^{s} does not separate the level sets"
    stage = next(i for i, n in enumerate(levels_a, start=1) if n % p ** s == 0)
    if res["first_stage_with_order"] != stage:
        return f"first stage {res['first_stage_with_order']} != {stage}"
    q_, r = (int(x) for x in res["witness_prime_power"].split("^"))
    if res["witness_value"] != q_ ** r:
        return "witness_value != q^r"
    return _check_witness(k, p, s, q_, r, res["order_certificate"])


def _ok(q, res):
    k, depth = q["k"], q["depth"]
    t = k - 1
    levels = [k ** i for i in range(depth)]
    moduli = [k ** n - 1 for n in levels]
    rad = 1
    for p in sympy.primefactors(t):
        rad *= p
    expected = {
        "levels": levels,
        "moduli": moduli,
        "supernatural": f"complement({rad})",
        "stage_orders": [t] * depth,
        "cofactors": [m // t for m in moduli],
        "induced_multipliers_mod_target": [1 % t] * (depth - 1),
        "unit_class": 1 % t,
        "k0": "0" if t == 1 else f"Z_{t}",
        "k1": 0,
    }
    for key, value in expected.items():
        if res[key] != value:
            return f"{key} differs from the closed form"
    return None


def _k0(q, res):
    k = q["k"]
    levels = _levels(q["c"], q["r"], q["stages"])
    moduli = [k ** n - 1 for n in levels]
    multipliers = [b // a for a, b in zip(moduli, moduli[1:])]
    expected = {
        "levels": levels,
        "moduli": moduli,
        "multipliers": multipliers,
        "multipliers_reduced": [u % m for u, m in zip(multipliers, moduli[1:])],
        "unit_thread": [m // (k - 1) % m for m in moduli],
        "k1": 0,
        "kernel_pivots": [str(1 - Fraction(1, k ** n)) for n in levels],
    }
    for key, value in expected.items():
        if res[key] != value:
            return f"{key} differs from the closed form"
    return None


def _spectrum(q, res):
    k, c, r, stages = (q["api"][key] for key in ("k", "c", "r", "stages"))
    levels = _levels(c, r, stages + 2)
    moduli = [k ** n - 1 for n in levels]
    if res["moduli"] != moduli[:stages]:
        return "moduli differ from k^n - 1"
    per_prime: dict[int, int] = {}
    for m in moduli[:stages]:
        for p, e in factorint(m):
            per_prime[p] = max(per_prime.get(p, 0), e)
    if sorted(int(p) for p in res["spectrum"]) != sorted(per_prime):
        return "spectrum primes differ from sympy.factorint"
    for p, e in per_prime.items():
        prefix_max, exact = res["spectrum"][str(p)]
        if prefix_max != e:
            return f"v_{p} maximum {prefix_max} != {e}"
        # Past the prefix, v_p(k^n - 1) rises at the next stage if it ever rises.
        grows = any(pow(k, n, p ** (e + 1)) == 1 for n in levels[stages:])
        if exact == grows:
            return f"exact flag for {p} is {exact}, but the next stages {'raise' if grows else 'keep'} v_{p}"
    return None


# -- groupoid ----------------------------------------------------------------


def _groupoid(q, res):
    k, n, depth, d = q["k"], q["vertex_level"], q["depth"], q["max_disp"]
    count = arrow_count(k, n, depth, d)
    stage = next(i for i, level in enumerate(q["levels"], start=1) if level > d)
    if res["certificate"] != {"stage": stage, "level": n, "max_displacement": d} or res["vertex_level"] != n:
        return "isotropy certificate does not name the first level above the bound"
    if res["arrow_count"] != count:
        return f"arrow_count {res['arrow_count']} != (2d+1) N k^(depth+d) = {count}"
    if res["arrows_per_displacement"] != n * k ** (depth + d):
        return "arrows_per_displacement differs from N k^(depth+d)"
    if res["af_block"] != q["af_block"] or res["product_arrow_count"] != count * q["af_block"] ** 2:
        return "product_arrow_count != arrow_count * af^2"
    if len(res["sample_arrows"]) != min(q["sample"], count):
        return "wrong number of sample arrows"
    for arrow in res["sample_arrows"]:
        reason = _shift_match(arrow, k, n, depth, d)
        if reason:
            return reason
    return None


def _shift_match(arrow, k, n, depth, d) -> str | None:
    src, tgt, m, s = arrow["source"], arrow["target"], arrow["m"], arrow["n"]
    if not (0 <= m <= d and 0 <= s <= d and arrow["displacement"] == m - s):
        return "sample arrow exponents out of range"
    for cyl in (src, tgt):
        if cyl["level"] != n or len(cyl["word"]) != depth or not all(1 <= x <= k for x in cyl["word"]):
            return "sample arrow cylinder is malformed"
    # shift^m(target) == shift^s(source): bases advance by the shift, words drop letters.
    if (tgt["base"] + m) % n != (src["base"] + s) % n:
        return "sample arrow bases do not match under the shifts"
    t_word, s_word = tgt["word"][m:], src["word"][s:]
    overlap = min(len(t_word), len(s_word))
    if t_word[:overlap] != s_word[:overlap]:
        return "sample arrow words do not match under the shifts"
    return None


_CHECKS = {
    "membership": _membership,
    "witness": _witness,
    "distinguish": _distinguish,
    "ok": _ok,
    "k0": _k0,
    "spectrum": _spectrum,
    "groupoid": _groupoid,
}
