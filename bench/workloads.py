"""Seeded query streams for the kcalc benchmark.

A run is a sequence of rounds, and every round holds the same multiset of
query sizes: each class of query (a ``k`` and member flag, a tower
subcommand, a deep or wide groupoid shape) gets ``STRATA`` sizes evenly
spaced, both ends included, over a log-uniform (or size-sorted) range.  The seed
shuffles the order of each round and draws the content that does not set a
query's size: function values, the perturbed point, level chains, rule
spellings, AF block and sample counts.  So p50 sees small queries and p90
large ones, and the size mix is the same for every seed and every round:
the spread between runs is the program's and the host's, not the sampler's.

Query ``i`` of a workload is a pure function of ``(workload, seed, i)``, so
the worker that runs the stream and the checker that verifies it rebuild
exactly the same query without passing inputs between processes.

Only the standard library is used here, and nothing from kcalc: a query is
an argv list for ``kcalc.cli.main`` (or, for ``order_spectrum``, the
arguments of a library call) plus the facts the checker needs.

Known CLI defects shape the generator (see NOTES.md):

* membership values go through ``--values=<list>``, because argparse reads
  a leading negative value given as a separate word as an option;
* every printed modulus stays under 4300 decimal digits, where int-to-str
  conversion fails (a traceback from ``ok``, a usage error from ``k0``);
* every modulus handed to ``factorize`` stays within the 96-bit guard, so no
  query exits 3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from random import Random

WORKLOADS = ("membership", "towers", "groupoid")

BUDGET_BITS = 96
MAX_DIGITS = 4300

MEMBERSHIP_KS = (2, 3, 10)
MEMBERSHIP_LEVELS = (8, 256)

TOWER_KINDS = ("witness", "distinguish", "ok", "k0", "spectrum")
TOWER_KS = (2, 3, 5, 6, 7, 10)
TOWER_RULES = tuple((c, r) for c in (1, 2, 3, 4, 6) for r in (2, 3, 5))

GROUPOID_ARROWS = (24, 81920)

# Classes of query and sizes per class in one round.  The odd counts put a
# round's p50 and p90 inside a group of equal sizes, not on the jump between
# two groups, where a small change of order or host speed would move them.
CLASSES = {"membership": 2 * len(MEMBERSHIP_KS), "towers": len(TOWER_KINDS), "groupoid": 2}
STRATA = {"membership": 11, "towers": 61, "groupoid": 13}

WARMUP = {
    "membership": (
        {"kind": "membership", "argv": ["membership", "--k", "2", "--n", "4", "--values=1,-1/2,0,3/4"]},
        {"kind": "membership", "argv": ["membership", "--k", "3", "--n", "3", "--values=1,-1/3,0"]},
    ),
    "towers": (
        {"kind": "witness", "argv": ["witness", "--k", "2", "--p", "2", "--s", "2"]},
        {"kind": "distinguish", "argv": ["distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1,3"]},
        {"kind": "ok", "argv": ["ok", "--k", "3", "--depth", "3"]},
        {"kind": "k0", "argv": ["k0", "--k", "2", "--rule", "1,2", "--stages", "3"]},
        {"kind": "spectrum", "api": {"k": 2, "c": 1, "r": 2, "stages": 3}},
    ),
    "groupoid": (
        {"kind": "groupoid", "argv": ["groupoid", "--k", "2", "--levels", "1,2", "--depth", "2", "--max-disp", "1"]},
    ),
}


def round_size(workload: str) -> int:
    return CLASSES[workload] * STRATA[workload]


@cache
def _round_order(workload: str, seed: int, r: int) -> tuple[int, ...]:
    slots = list(range(round_size(workload)))
    Random(f"{workload}:{seed}:round {r}").shuffle(slots)
    return tuple(slots)


def slot(workload: str, seed: int, i: int) -> tuple[int, float]:
    """Class and size position in [0, 1] of query i."""
    m = round_size(workload)
    j = _round_order(workload, seed, i // m)[i % m]
    classes = CLASSES[workload]
    return j % classes, (j // classes) / (STRATA[workload] - 1)


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def query(workload: str, seed: int, i: int) -> dict:
    """Query i of the workload's stream for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cls, u = slot(workload, seed, i)
    rng = Random(f"{workload}:{seed}:{i}")
    return {"membership": _membership, "towers": _towers, "groupoid": _groupoid}[workload](cls, u, rng)


# -- membership --------------------------------------------------------------


def _membership(cls: int, u: float, rng: Random) -> dict:
    k = MEMBERSHIP_KS[cls // 2]
    member = cls % 2 == 0
    n = round(log_uniform(u, *MEMBERSHIP_LEVELS))
    g = [Fraction(rng.randint(-9, 9), k ** rng.randint(0, 2)) for _ in range(n)]
    f = [g[x] - g[(x - 1) % n] / k for x in range(n)]
    if not member:
        # psi(c * delta_j) = c * k^j, a unit multiple of c, and |c| < k^n - 1.
        f[rng.randrange(n)] += rng.choice((-3, -2, -1, 1, 2, 3))
    values = ",".join(str(v) for v in f)
    return {
        "kind": "membership",
        "argv": ["membership", "--k", str(k), "--n", str(n), f"--values={values}"],
        "k": k,
        "n": n,
        "member": member,
        "values": [str(v) for v in f],
        "witness": [str(v) for v in g] if member else None,
    }


# -- towers ------------------------------------------------------------------


def _primes_of(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def valuation(m: int, p: int) -> int:
    """v_p(m) for m != 0."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _witness_bits(k: int, p: int, s: int) -> int:
    return (k ** (p ** s) - 1).bit_length()


@cache
def _witness_grid() -> list[tuple[int, int, int]]:
    grid = []
    for k in TOWER_KS:
        for p in (q for q in range(2, 100) if _primes_of(q) == [q]):
            s = 1
            while _witness_bits(k, p, s) <= BUDGET_BITS:
                grid.append((k, p, s))
                s += 1
    return sorted(grid, key=lambda t: (_witness_bits(*t), t))


def distinguish_target(rule_a: tuple[int, int], rule_b: tuple[int, int]):
    """(p, s) of the first prime power dividing a level of A and none of B.

    For a geometric rule (c, r), sup_i v_p(c r^(i-1)) is unbounded when p | r
    and v_p(c) otherwise.  Returns None when no prime qualifies.
    """
    (ca, ra), (cb, rb) = rule_a, rule_b
    for p in _primes_of(ca * ra):
        if rb % p == 0:
            continue
        sup_b = valuation(cb, p)
        if ra % p != 0 and valuation(ca, p) <= sup_b:
            continue
        return p, sup_b + 1
    return None


def _distinguish_bits(k: int, rule_a, rule_b) -> int:
    target = distinguish_target(rule_a, rule_b)
    return 0 if target is None else _witness_bits(k, *target)


@cache
def _distinguish_grid() -> list[tuple[int, tuple[int, int], tuple[int, int]]]:
    grid = [
        (k, a, b)
        for k in TOWER_KS
        for a in TOWER_RULES
        for b in TOWER_RULES
        if a != b and _distinguish_bits(k, a, b) <= BUDGET_BITS
    ]
    return sorted(grid, key=lambda t: (_distinguish_bits(*t), t))


def _digits(k: int, n: int) -> int:
    return math.floor(n * math.log10(k)) + 1


@cache
def _ok_grid() -> list[tuple[int, int]]:
    grid = []
    for k in range(2, 13):
        depth = 2
        while _digits(k, k ** depth) < MAX_DIGITS:
            depth += 1
        grid.extend((k, d) for d in range(2, depth + 1))
    return sorted(grid, key=lambda t: (_digits(t[0], t[0] ** (t[1] - 1)), t))


@cache
def _k0_grid() -> list[tuple[int, int, int, int]]:
    grid = []
    for k in (2, 3, 5, 10):
        for c in (1, 2, 3):
            for r in (2, 3):
                stages = 2
                while _digits(k, c * r ** stages) < MAX_DIGITS:
                    stages += 1
                grid.extend((k, c, r, s) for s in range(2, stages + 1))
    return sorted(grid, key=lambda t: (_digits(t[0], t[1] * t[2] ** (t[3] - 1)), t))


@cache
def _spectrum_grid() -> list[tuple[int, int, int, int]]:
    grid = []
    for k in TOWER_KS:
        for c in (1, 2, 3):
            for r in (2, 3):
                stages = 2
                while (k ** (c * r ** (stages - 1)) - 1).bit_length() <= BUDGET_BITS:
                    grid.append((k, c, r, stages))
                    stages += 1
    return sorted(grid, key=lambda t: ((t[0] ** (t[1] * t[2] ** (t[3] - 1))).bit_length(), t))


def _pick(grid: list, u: float):
    return grid[min(int(u * len(grid)), len(grid) - 1)]


def _towers(cls: int, u: float, rng: Random) -> dict:
    kind = TOWER_KINDS[cls]
    if kind == "witness":
        k, p, s = _pick(_witness_grid(), u)
        argv = ["witness", "--k", str(k), "--p", str(p), "--s", str(s)]
        return {"kind": kind, "argv": argv, "k": k, "p": p, "s": s}
    if kind == "distinguish":
        k, a, b = _pick(_distinguish_grid(), u)
        rule_a = f"{a[0]},{a[1]}" if rng.random() < 0.5 else f"geometric:{a[0]},{a[1]}"
        argv = ["distinguish", "--k", str(k), "--rule-a", rule_a, "--rule-b", f"{b[0]},{b[1]}"]
        return {"kind": kind, "argv": argv, "k": k, "rule_a": list(a), "rule_b": list(b)}
    if kind == "ok":
        k, depth = _pick(_ok_grid(), u)
        return {"kind": kind, "argv": ["ok", "--k", str(k), "--depth", str(depth)], "k": k, "depth": depth}
    if kind == "k0":
        k, c, r, stages = _pick(_k0_grid(), u)
        argv = ["k0", "--k", str(k), "--rule", f"{c},{r}", "--stages", str(stages)]
        return {"kind": kind, "argv": argv, "k": k, "c": c, "r": r, "stages": stages}
    k, c, r, stages = _pick(_spectrum_grid(), u)
    return {"kind": "spectrum", "api": {"k": k, "c": c, "r": r, "stages": stages}}


# -- groupoid ----------------------------------------------------------------


def arrow_count(k: int, vertex_level: int, depth: int, max_disp: int) -> int:
    return (2 * max_disp + 1) * vertex_level * k ** (depth + max_disp)


def _chains(n: int) -> tuple[str, ...]:
    """Level chains whose first level above a bound d < n is n (d >= 1)."""
    return (f"{n}", f"1,{n}", f"{n},{2 * n}", f"1,{n},{3 * n}")


@cache
def _groupoid_grid(deep: bool) -> list[tuple[int, int, int, int]]:
    lo, hi = GROUPOID_ARROWS
    ks = (2,) if deep else (3, 4, 5)
    return [
        (k, n, depth, d)
        for k in ks
        for depth in range(1, 11)
        for d in (1, 2)
        for n in range(d + 1, 13)
        if d <= depth and lo <= arrow_count(k, n, depth, d) <= hi
    ]


def _groupoid(cls: int, u: float, rng: Random) -> dict:
    grid = _groupoid_grid(deep=cls == 0)
    target = math.log(log_uniform(u, *GROUPOID_ARROWS))
    # Ties go to the deepest shape, so that equal counts always use equal memory.
    k, n, depth, d = min(grid, key=lambda s: (abs(math.log(arrow_count(*s)) - target), -s[2], s))
    levels = rng.choice(_chains(n))
    af_block = rng.randint(1, 3)
    sample = rng.randint(0, 8)
    argv = [
        "groupoid", "--k", str(k), "--levels", levels, "--depth", str(depth),
        "--max-disp", str(d), "--af-block", str(af_block), "--sample", str(sample),
    ]
    return {
        "kind": "groupoid",
        "argv": argv,
        "k": k,
        "levels": [int(x) for x in levels.split(",")],
        "vertex_level": n,
        "depth": depth,
        "max_disp": d,
        "af_block": af_block,
        "sample": sample,
    }
