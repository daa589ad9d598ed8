"""Level-n odometer dynamics and the K-theory of the associated tower.

A level-n locally constant function is a vector of Z[1/k] values indexed by
the cyclic group Z_n; the odometer acts by translation.  This module holds
the translation operator T, the endomorphism (1/k)T, the residue map psi
that collapses a level to Z_{k**n - 1}, two independent membership criteria
for the image of id - (1/k)T, the closed-form kernel pivot, and the assembly of
the whole tower into an inductive limit of cyclic groups.  The tower record
stores the stage moduli k**n - 1 once, with the first unit class; its
connecting maps, unit thread and kernel pivots are read off them.
Finite-level checks of the Hilbert module identities behind the path-space
picture live here too.

Both membership criteria cost O(n) big-integer steps at level n.  psi is
one Horner pass over the numerators of f, lifted to their common power of
k, then one inverse of that power modulo k**n - 1.  The series criterion
takes g(0) in closed form by the same kind of Horner pass and every later
value by the recurrence g(x) = f(x) + g(x - 1) / k.  The two share no
result: the series never calls psi, and its record stores only the preimage.
Each raises ValueError before it forms a k**n - 1 too long to print, and
``OdometerSpec.from_rule`` expands a level rule under the same check, so a
long rule stops at its first level whose k**n - 1 cannot print.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .abelian import CyclicElement
from .arith import KPowerRational, _check_printable, _power_minus_one, _Value, radical_divides
from .colimit import CyclicColimit, Geometric

__all__ = [
    "OdometerSpec",
    "LocallyConstantFn",
    "OdometerKTheory",
    "SeriesMembership",
    "CorrespondenceReport",
    "CorrespondenceIdentityError",
    "translate",
    "pv_endomorphism",
    "psi",
    "membership_psi",
    "membership_series",
    "kernel_is_trivial",
    "kernel_certificate",
    "k0_odometer",
    "verify_correspondence_identities",
]


class OdometerSpec(_Value):
    """Base k and a finite prefix of levels n_1 | n_2 | ... (strictly increasing)."""

    __slots__ = ("k", "levels", "rule")

    def __init__(self, k: int, levels: tuple[int, ...], rule: Geometric | None = None):
        levels = tuple(levels)
        if k < 2:
            raise ValueError("k must be >= 2")
        if not levels:
            raise ValueError("at least one level is required")
        if levels[0] < 1:
            raise ValueError("levels must be positive")
        for a, b in zip(levels, levels[1:]):
            if b <= a:
                raise ValueError(f"levels must be strictly increasing: {a} !< {b}")
            if b % a != 0:
                raise ValueError(f"levels must form a divisibility chain: {a} does not divide {b}")
        if rule is not None:
            for i, n in enumerate(levels, start=1):
                if rule.level(i) != n:
                    raise ValueError(f"stored level {n} at stage {i} does not match the rule")
        self._init(k, levels, rule)

    @classmethod
    def from_rule(cls, k: int, rule: Geometric, stages: int) -> "OdometerSpec":
        """The rule's first ``stages`` levels, each refused before the next if its k**n - 1 cannot print."""
        if k < 2:  # k = 1 passes every print check: refuse it before expanding
            raise ValueError("k must be >= 2")
        levels = []
        for i in range(1, stages + 1):  # levels at least double: a long rule stops early
            levels.append(rule.level(i))
            _check_printable(k, levels[-1])
        return cls(k, levels, rule=rule)


class LocallyConstantFn(_Value):
    """A level-n function Z_n -> Z[1/k]; entry j is the value at the residue j."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values: tuple[KPowerRational, ...]):
        values = tuple(values)
        if not values:
            raise ValueError("level must be at least 1")
        for v in values:
            if v.base != k:
                raise ValueError("all entries must share the base k")
        self._init(k, values)

    @property
    def level(self) -> int:
        return len(self.values)

    @classmethod
    def from_fractions(cls, k: int, values) -> "LocallyConstantFn":
        return cls(k, tuple(KPowerRational.from_fraction(k, v) for v in values))

    @classmethod
    def zero(cls, k: int, level: int) -> "LocallyConstantFn":
        return cls(k, tuple(KPowerRational.zero(k) for _ in range(level)))

    @classmethod
    def delta(cls, k: int, level: int, j: int) -> "LocallyConstantFn":
        """The indicator of the single residue j."""
        return cls.indicator(k, level, {j})

    @classmethod
    def indicator(cls, k: int, level: int, support) -> "LocallyConstantFn":
        if level < 1:
            raise ValueError("level must be at least 1")
        support = {x % level for x in support}
        return cls(
            k,
            tuple(
                KPowerRational.one(k) if j in support else KPowerRational.zero(k)
                for j in range(level)
            ),
        )

    def __add__(self, other: "LocallyConstantFn") -> "LocallyConstantFn":
        self._check(other)
        return LocallyConstantFn(self.k, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "LocallyConstantFn") -> "LocallyConstantFn":
        self._check(other)
        return LocallyConstantFn(self.k, tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "LocallyConstantFn":
        return LocallyConstantFn(self.k, tuple(-a for a in self.values))

    def _check(self, other: "LocallyConstantFn") -> None:
        if self.k != other.k or self.level != other.level:
            raise ValueError("mixed bases or levels")


def translate(f: LocallyConstantFn) -> LocallyConstantFn:
    """The translation operator: (T f)(x) = f(x - 1), indices mod the level."""
    n = f.level
    return LocallyConstantFn(f.k, tuple(f.values[(x - 1) % n] for x in range(n)))


def pv_endomorphism(f: LocallyConstantFn) -> LocallyConstantFn:
    """(1/k) T f, computed exactly in Z[1/k].

    This is the map induced on level-n functions by one step of the tower
    automorphism (trace scaling composed with the odometer), as delivered by
    the Pimsner-Voiculescu sequence.
    """
    return LocallyConstantFn(
        f.k, tuple(KPowerRational(f.k, v.numer, v.expo + 1) for v in translate(f).values)
    )


def _numerators(f: LocallyConstantFn) -> tuple[list[int], int]:
    """Integers a_x and the exponent e with f(x) = a_x / k**e for every x."""
    k, e = f.k, max(v.expo for v in f.values)
    return [v.numer * k ** (e - v.expo) for v in f.values], e


def psi(f: LocallyConstantFn) -> CyclicElement:
    """Collapse a level-n function to Z_{k**n - 1}.

    Computes sum_j k**j f(j) in Z[1/k] and reduces it modulo k**n - 1 (k is
    invertible there since gcd(k, k**n - 1) = 1).  With f(j) = a_j / k**e
    over the common exponent e, the sum is one integer Horner pass over the
    numerators a_j, multiplied by the inverse of k**e modulo k**n - 1: n
    big-integer steps.  The result vanishes exactly on the image of
    id - (1/k)T.
    """
    k = f.k
    modulus = _power_minus_one(k, f.level)
    numerators, e = _numerators(f)
    acc = 0
    for a in reversed(numerators):
        acc = acc * k + a
    return CyclicElement(modulus, acc * pow(k, -e, modulus))


def membership_psi(f: LocallyConstantFn) -> bool:
    """Image membership for id - (1/k)T, decided by the vanishing of psi."""
    return psi(f).residue == 0


class SeriesMembership(_Value):
    """Whether f lies in the image of id - (1/k)T, with a preimage when it does."""

    __slots__ = ("witness",)

    def __init__(self, witness: LocallyConstantFn | None):
        self._init(witness)

    @property
    def member(self) -> bool:
        return self.witness is not None


def membership_series(f: LocallyConstantFn) -> SeriesMembership:
    """Image membership for id - (1/k)T, decided by the geometric series.

    The candidate preimage is g(x) = sum_{i>=0} k**-i f(x - i); because
    f(x - i) is periodic in i with period n, g(0) has the closed form

        g(0) = (k**n / (k**n - 1)) * sum_{j=0}^{n-1} k**-j f(-j),

    taken by one integer Horner pass over the numerators of f, and the rest
    follows from the one-step recurrence g(x) = f(x) + g(x - 1) / k, all in
    exact rational arithmetic: O(n) steps in all.  f lies in the image iff
    every g(x) lies in Z[1/k]; the witness then satisfies
    (id - (1/k)T) g = f exactly.
    """
    k, n = f.k, f.level
    modulus = _power_minus_one(k, n)
    numerators, e = _numerators(f)
    s = 0
    for j in range(n):
        s = s * k + numerators[-j % n]
    # s = k**(n - 1 + e) * sum_{j=0}^{n-1} k**-j f(-j)
    unit = k ** e
    g_values = [Fraction(k * s, modulus * unit)]
    for x in range(1, n):
        g_values.append(Fraction(numerators[x], unit) + g_values[-1] / k)
    if not all(radical_divides(v.denominator, k) for v in g_values):
        return SeriesMembership(None)
    g = LocallyConstantFn.from_fractions(k, g_values)
    recovered = g - pv_endomorphism(g)
    if recovered != f:
        raise RuntimeError("series witness failed to reproduce the input exactly")
    return SeriesMembership(g)


def kernel_certificate(k: int, n: int) -> Fraction:
    """The pivot 1 - k**-n that certifies id - (1/k)T has trivial kernel at level n.

    The cyclic system f(x) = (1/k) f(x - 1) forces f(0) = k**-n f(0) after
    eliminating forward around the cycle; the closing pivot is taken in
    closed form, m / (m + 1) for m = k**n - 1, and its nonvanishing
    certifies that only f = 0 solves it.
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    m = _power_minus_one(k, n)
    return Fraction(m, m + 1)


def kernel_is_trivial(k: int, n: int) -> bool:
    """True iff (id - (1/k)T) f = 0 has only f = 0 at level n: the closed-form pivot is nonzero."""
    return kernel_certificate(k, n) != 0


class OdometerKTheory(_Value):
    """K-theory of the odometer tower: the K_0 colimit, with the kernel pivots read off its moduli."""

    __slots__ = ("k0",)

    def __init__(self, k0: CyclicColimit):
        self._init(k0)

    @property
    def kernel_certificates(self) -> tuple[Fraction, ...]:
        """The pivot 1 - k**-n of each level, m / (m + 1) for its modulus m = k**n - 1."""
        return tuple(Fraction(m, m + 1) for m in self.k0.moduli)


def k0_odometer(spec: OdometerSpec) -> OdometerKTheory:
    """Assemble the K_0 colimit prefix of the tower, with unit thread.

    Stage i is Z_{m_i} with m_i = k**n_i - 1, the finite-stage K_0 group
    (psi sends the indicator of residue 0 to its generator 1).  Only the
    moduli, each formed once, and the first unit class are stored; the rest
    is read off them: n_i | n_{i+1}, so m_i | m_{i+1}, and the connecting
    map multiplies by the geometric sum m_{i+1} / m_i, which carries the
    unit class m_i / (k - 1) = psi(1) to the next one.  K_1 vanishes at
    every level: the closed-form kernel pivot 1 - k**-n = m_i / (m_i + 1)
    has numerator k**n - 1 = -1 (mod k), never 0.
    """
    k = spec.k
    moduli = tuple(reversed([_power_minus_one(k, n) for n in reversed(spec.levels)]))  # the longest first
    return OdometerKTheory(CyclicColimit(moduli, moduli[0] // (k - 1), spec.rule))


class CorrespondenceIdentityError(Exception):
    """A Hilbert-module identity failed; indicates an implementation bug."""


class CorrespondenceReport(_Value):
    """Counts of the Hilbert module identities checked at one vertex level.

    Each identity is checked once per sample, and a failure raises, so each
    count is ``samples``.
    """

    __slots__ = ("k", "vertex_level", "samples")

    def __init__(self, k: int, vertex_level: int, samples: int):
        self._init(k, vertex_level, samples)

    positivity_checks = module_identity_checks = rank_one_checks = property(lambda self: self.samples)


def _inner(k: int, n: int, xi, eta):
    """<xi, eta>(x) = sum over edges above x of xi* eta; edges above x are (x, i)."""
    return tuple(sum(xi[i][x] * eta[i][x] for i in range(k)) for x in range(n))


def _right_action(k: int, n: int, xi, g):
    return tuple(tuple(xi[i][x] * g[x] for x in range(n)) for i in range(k))


def _left_action(k: int, n: int, f, xi):
    """(pi(f) xi)(x, i) = f(x + 1) xi(x, i): the range of the edge (x, i) is x + 1."""
    return tuple(tuple(f[(x + 1) % n] * xi[i][x] for x in range(n)) for i in range(k))


def _rank_one(k: int, n: int, xi, eta, zeta):
    """theta_{xi,eta}(zeta) = xi . <eta, zeta>."""
    return _right_action(k, n, xi, _inner(k, n, eta, zeta))


def verify_correspondence_identities(
    k: int, vertex_level: int, sample_count: int, *, seed: int = 0
) -> CorrespondenceReport:
    """Check the finite-level Hilbert module identities on random exact samples.

    Over the vertex set Z_N with N = vertex_level, edges are pairs (x, i)
    with source x and range x + 1, and edge functions are k-tuples of vertex
    functions.  Verified on each sample, all in exact rationals:

    * positivity: <xi, xi> >= 0 pointwise;
    * the module identity <xi, eta . g> = <xi, eta> g;
    * the rank-one decomposition of the left action,
      pi(f) zeta = sum_i theta_{f e_i, e_i} zeta with e_i the i-th standard
      basis vector and (f e_i) carrying f composed with the vertex rotation.

    Any failure raises CorrespondenceIdentityError.
    """
    if vertex_level < 1 or k < 1:
        raise ValueError("need k >= 1 and vertex_level >= 1")
    if sample_count < 0:
        raise ValueError("sample_count must be >= 0")
    n = vertex_level
    rng = Random(seed)

    def rand_vertex_fn():
        return tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)
        )

    def rand_edge_fn():
        return tuple(rand_vertex_fn() for _ in range(k))

    basis = [
        tuple(
            tuple(Fraction(1 if i == j else 0) for _ in range(n))
            for j in range(k)
        )
        for i in range(k)
    ]

    for _ in range(sample_count):
        xi, eta, zeta = rand_edge_fn(), rand_edge_fn(), rand_edge_fn()
        f, g = rand_vertex_fn(), rand_vertex_fn()

        if any(v < 0 for v in _inner(k, n, xi, xi)):
            raise CorrespondenceIdentityError("<xi, xi> has a negative value")

        lhs = _inner(k, n, xi, _right_action(k, n, eta, g))
        rhs = tuple(v * g[x] for x, v in enumerate(_inner(k, n, xi, eta)))
        if lhs != rhs:
            raise CorrespondenceIdentityError("<xi, eta.g> != <xi, eta> g")

        rotated = tuple(f[(x + 1) % n] for x in range(n))
        direct = _left_action(k, n, f, zeta)
        summed = None
        for i in range(k):
            f_i = _right_action(k, n, basis[i], rotated)
            term = _rank_one(k, n, f_i, basis[i], zeta)
            if summed is None:
                summed = term
            else:
                summed = tuple(
                    tuple(a + b for a, b in zip(row_a, row_b))
                    for row_a, row_b in zip(summed, term)
                )
        if direct != summed:
            raise CorrespondenceIdentityError(
                "rank-one decomposition disagrees with the left action"
            )

    ones = tuple(Fraction(1) for _ in range(n))
    for i in range(k):
        e_inner = _inner(k, n, basis[i], basis[i])
        if e_inner != ones:
            raise CorrespondenceIdentityError("basis vector inner product != 1")
    x0, i0 = rng.randrange(n), rng.randrange(k)
    single = tuple(
        tuple(Fraction(1 if (i, x) == (i0, x0) else 0) for x in range(n))
        for i in range(k)
    )
    expected = tuple(Fraction(1 if x == x0 else 0) for x in range(n))
    if _inner(k, n, single, single) != expected:
        raise CorrespondenceIdentityError(
            "single-edge inner product is not the indicator of its source vertex"
        )
    sample = rand_edge_fn()
    if _left_action(k, n, ones, sample) != sample:
        raise CorrespondenceIdentityError("constant function 1 does not act as identity")

    return CorrespondenceReport(k, n, sample_count)
