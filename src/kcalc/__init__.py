"""kcalc: exact-arithmetic K-theory calculator for odometer towers.

Computes and certifies, in exact integer/rational arithmetic: the inductive
limit of cyclic groups attached to an odometer tower, membership in the
image of id - (1/k)T by two independent criteria, prime-power element-order
witnesses that tell such limits apart, the UHF-tensoring pipeline that
identifies a tower with the K-theory of a Cuntz algebra, and finite
truncations of the associated path-space groupoid.
"""

from .arith import (
    FactorizationBudgetError,
    KPowerRational,
    SupernaturalNumber,
    factorize,
    is_prime,
    multiplicative_order,
    valuation,
)
from .abelian import (
    CyclicElement,
    CyclicHom,
    quotient_localized_by_m,
    tensor_cyclic_with_localized,
)
from .colimit import (
    CuntzIdentification,
    CyclicColimit,
    DistinguishVerdict,
    Geometric,
    PrimePowerWitness,
    StageCongruenceError,
    distinguish_colimits,
    identify_cuntz_k_theory,
    order_spectrum,
    prime_power_order_witness,
)
from .odometer import (
    KernelCertificate,
    LocallyConstantFn,
    OdometerKTheory,
    OdometerSpec,
    k0_odometer,
    kernel_is_trivial,
    membership_psi,
    membership_series,
    psi,
    pv_endomorphism,
    translate,
    verify_correspondence_identities,
)
from .groupoid import (
    ArrowClass,
    Cylinder,
    IsotropyCertificate,
    certify_no_isotropy,
    enumerate_arrows,
    product_with_af,
)

__version__ = "0.1.0"

__all__ = [
    "FactorizationBudgetError",
    "KPowerRational",
    "SupernaturalNumber",
    "factorize",
    "is_prime",
    "multiplicative_order",
    "valuation",
    "CyclicElement",
    "CyclicHom",
    "quotient_localized_by_m",
    "tensor_cyclic_with_localized",
    "CuntzIdentification",
    "CyclicColimit",
    "DistinguishVerdict",
    "Geometric",
    "PrimePowerWitness",
    "StageCongruenceError",
    "distinguish_colimits",
    "identify_cuntz_k_theory",
    "order_spectrum",
    "prime_power_order_witness",
    "KernelCertificate",
    "LocallyConstantFn",
    "OdometerKTheory",
    "OdometerSpec",
    "k0_odometer",
    "kernel_is_trivial",
    "membership_psi",
    "membership_series",
    "psi",
    "pv_endomorphism",
    "translate",
    "verify_correspondence_identities",
    "ArrowClass",
    "Cylinder",
    "IsotropyCertificate",
    "certify_no_isotropy",
    "enumerate_arrows",
    "product_with_af",
    "__version__",
]
