"""Level-n odometer dynamics and the K-theory of the associated tower.

A level-n locally constant function is a vector of Z[1/k] values indexed by
the cyclic group Z_n; the odometer acts by translation.  This module holds
the translation operator T, the endomorphism (1/k)T, the residue map psi
that collapses a level to Z_{k**n - 1}, two independent membership criteria
for the image of id - (1/k)T, exact kernel certificates, the finite-stage
K_0 data with its connecting maps, and the assembly of the whole tower into
an inductive limit of cyclic groups.  Finite-level checks of the Hilbert
module identities behind the path-space picture live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random

from .abelian import CyclicElement, CyclicHom, LocalizedQuotient, quotient_localized_by_m
from .arith import KPowerRational, SupernaturalNumber
from .colimit import CyclicColimit, Geometric

__all__ = [
    "OdometerSpec",
    "LocallyConstantFn",
    "FiniteStageK0",
    "KernelCertificate",
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
    "finite_stage_k0",
    "connecting_map",
    "k0_odometer",
    "verify_correspondence_identities",
]


@dataclass(frozen=True)
class OdometerSpec:
    """Base k and a finite prefix of levels n_1 | n_2 | ... (strictly increasing)."""

    k: int
    levels: tuple[int, ...]
    rule: Geometric | None = None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.levels:
            raise ValueError("at least one level is required")
        if self.levels[0] < 1:
            raise ValueError("levels must be positive")
        for a, b in zip(self.levels, self.levels[1:]):
            if b <= a:
                raise ValueError(f"levels must be strictly increasing: {a} !< {b}")
            if b % a != 0:
                raise ValueError(f"levels must form a divisibility chain: {a} does not divide {b}")
        if self.rule is not None:
            for i, n in enumerate(self.levels, start=1):
                if self.rule.level(i) != n:
                    raise ValueError(f"stored level {n} at stage {i} does not match the rule")

    @property
    def stages(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class LocallyConstantFn:
    """A level-n function Z_n -> Z[1/k]; entry j is the value at the residue j."""

    k: int
    values: tuple[KPowerRational, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("level must be at least 1")
        for v in self.values:
            if v.base != self.k:
                raise ValueError("all entries must share the base k")

    @property
    def level(self) -> int:
        return len(self.values)

    @classmethod
    def from_integers(cls, k: int, values) -> "LocallyConstantFn":
        return cls(k, tuple(KPowerRational(k, int(v)) for v in values))

    @classmethod
    def from_fractions(cls, k: int, values) -> "LocallyConstantFn":
        return cls(k, tuple(KPowerRational.from_fraction(k, v) for v in values))

    @classmethod
    def zero(cls, k: int, level: int) -> "LocallyConstantFn":
        return cls(k, tuple(KPowerRational.zero(k) for _ in range(level)))

    @classmethod
    def delta(cls, k: int, level: int, j: int) -> "LocallyConstantFn":
        """The indicator of the single residue j."""
        return cls.indicator(k, level, {j % level})

    @classmethod
    def indicator(cls, k: int, level: int, support) -> "LocallyConstantFn":
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

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.values)


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
    n = f.level
    shifted = (f.values[(x - 1) % n] for x in range(n))
    return LocallyConstantFn(
        f.k, tuple(KPowerRational(f.k, v.numer, v.expo + 1) for v in shifted)
    )


@lru_cache(maxsize=None)
def _level_quotient(k: int, n: int) -> LocalizedQuotient:
    return quotient_localized_by_m(SupernaturalNumber.infinite_powers_of(k), k ** n - 1)


def psi(f: LocallyConstantFn) -> CyclicElement:
    """Collapse a level-n function to Z_{k**n - 1}.

    Computes sum_j k**j f(j) in Z[1/k] and reduces it modulo k**n - 1 via the
    localized quotient (k is invertible there since gcd(k, k**n - 1) = 1).
    The result vanishes exactly on the image of id - (1/k)T.
    """
    k, n = f.k, f.level
    acc = KPowerRational.zero(k)
    for j in range(n - 1, -1, -1):
        acc = acc.times_int(k) + f.values[j]
    return _level_quotient(k, n).reduce(acc.as_fraction())


def membership_psi(f: LocallyConstantFn) -> bool:
    """Image membership for id - (1/k)T, decided by the vanishing of psi."""
    return psi(f).residue == 0


@dataclass(frozen=True)
class SeriesMembership:
    member: bool
    witness: LocallyConstantFn | None


def membership_series(f: LocallyConstantFn) -> SeriesMembership:
    """Image membership for id - (1/k)T, decided by the geometric series.

    The candidate preimage is g(x) = sum_{i>=0} k**-i f(x - i); because
    f(x - i) is periodic in i with period n, the series has the closed form

        g(x) = (k**n / (k**n - 1)) * sum_{j=0}^{n-1} k**-j f(x - j),

    evaluated in exact rational arithmetic.  f lies in the image iff every
    g(x) lies in Z[1/k]; the witness then satisfies (id - (1/k)T) g = f
    exactly.
    """
    k, n = f.k, f.level
    scale = Fraction(k ** n, k ** n - 1)
    values = [v.as_fraction() for v in f.values]
    g_values = []
    for x in range(n):
        s = sum(Fraction(values[(x - j) % n], k ** j) for j in range(n))
        g_values.append(scale * s)
    if not all(KPowerRational.fraction_in_ring(v, k) for v in g_values):
        return SeriesMembership(False, None)
    g = LocallyConstantFn.from_fractions(k, g_values)
    recovered = g - pv_endomorphism(g)
    if recovered != f:
        raise RuntimeError("series witness failed to reproduce the input exactly")
    return SeriesMembership(True, g)


@dataclass(frozen=True)
class KernelCertificate:
    """Exact certificate that id - (1/k)T has trivial kernel.

    The cyclic system f(x) = (1/k) f(x - 1) forces f(0) = k**-n f(0) after
    eliminating forward around the cycle; the closing pivot 1 - k**-n is
    recorded in closed form, and its nonvanishing certifies that the only
    solution is zero.
    """

    k: int
    level: int
    pivot: Fraction

    @property
    def trivial(self) -> bool:
        return self.pivot != 0


def kernel_certificate(k: int, n: int) -> KernelCertificate:
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    return KernelCertificate(k, n, 1 - Fraction(1, k ** n))


def kernel_is_trivial(k: int, n: int) -> bool:
    """Solve (id - (1/k)T) f = 0 exactly at level n; True iff only f = 0."""
    return kernel_certificate(k, n).trivial


@dataclass(frozen=True)
class FiniteStageK0:
    """K_0 data of one finite stage: Z_{k**n - 1} with its distinguished classes.

    The class of the single-residue indicator at 0 is the generator (psi
    sends it to 1); the unit class sits at (k**n - 1)/(k - 1).
    """

    k: int
    level: int
    modulus: int
    unit_class: CyclicElement
    psi_generator: CyclicElement


def finite_stage_k0(k: int, n: int) -> FiniteStageK0:
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    m = k ** n - 1
    return FiniteStageK0(
        k=k,
        level=n,
        modulus=m,
        unit_class=CyclicElement(m, m // (k - 1)),
        psi_generator=CyclicElement(m, 1),
    )


def connecting_map(k: int, n_coarse: int, n_fine: int) -> CyclicHom:
    """The injective map Z_{k**n_coarse - 1} -> Z_{k**n_fine - 1} between stages.

    Multiplication by (k**n_fine - 1)/(k**n_coarse - 1); requires
    n_coarse | n_fine.  It carries unit class to unit class.
    """
    if k < 2 or n_coarse < 1:
        raise ValueError("need k >= 2 and positive levels")
    if n_fine % n_coarse != 0:
        raise ValueError(f"invalid stage pair: {n_coarse} does not divide {n_fine}")
    m_coarse = k ** n_coarse - 1
    m_fine = k ** n_fine - 1
    return CyclicHom(m_coarse, m_fine, (m_fine // m_coarse) % m_fine)


@dataclass(frozen=True)
class OdometerKTheory:
    """K-theory of the odometer tower: the K_0 colimit and K_1 certificates."""

    spec: OdometerSpec
    k0: CyclicColimit
    kernel_certificates: tuple[KernelCertificate, ...]

    @property
    def k1_trivial(self) -> bool:
        return all(c.trivial for c in self.kernel_certificates)


def k0_odometer(spec: OdometerSpec) -> OdometerKTheory:
    """Assemble the K_0 colimit prefix of the tower, with unit thread.

    Stage i is Z_{k**n_i - 1}; adjacent stages are connected by the injective
    multiplication maps of ``connecting_map``; the unit classes form a
    compatible thread.  K_1 vanishes, certified per level by the exact kernel
    computation.
    """
    k = spec.k
    moduli = tuple(k ** n - 1 for n in spec.levels)
    maps = tuple(
        connecting_map(k, a, b) for a, b in zip(spec.levels, spec.levels[1:])
    )
    units = tuple(finite_stage_k0(k, n).unit_class for n in spec.levels)
    certificates = tuple(kernel_certificate(k, n) for n in spec.levels)
    colimit = CyclicColimit(
        moduli=moduli,
        maps=maps,
        unit_thread=units,
        k=k,
        level_rule=spec.rule,
    )
    return OdometerKTheory(spec=spec, k0=colimit, kernel_certificates=certificates)


class CorrespondenceIdentityError(Exception):
    """A Hilbert-module identity failed; indicates an implementation bug."""


@dataclass(frozen=True)
class CorrespondenceReport:
    k: int
    vertex_level: int
    samples: int
    positivity_checks: int
    module_identity_checks: int
    rank_one_checks: int


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

    positivity = module_identity = rank_one = 0
    for _ in range(sample_count):
        xi, eta, zeta = rand_edge_fn(), rand_edge_fn(), rand_edge_fn()
        f, g = rand_vertex_fn(), rand_vertex_fn()

        if any(v < 0 for v in _inner(k, n, xi, xi)):
            raise CorrespondenceIdentityError("<xi, xi> has a negative value")
        positivity += 1

        lhs = _inner(k, n, xi, _right_action(k, n, eta, g))
        rhs = tuple(v * g[x] for x, v in enumerate(_inner(k, n, xi, eta)))
        if lhs != rhs:
            raise CorrespondenceIdentityError("<xi, eta.g> != <xi, eta> g")
        module_identity += 1

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
        rank_one += 1

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

    return CorrespondenceReport(
        k=k,
        vertex_level=n,
        samples=sample_count,
        positivity_checks=positivity,
        module_identity_checks=module_identity,
        rank_one_checks=rank_one,
    )
