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
    Comparison,
    CyclicElement,
    CyclicHom,
    LocallyConstantProjectionClass,
    compare_projection_classes,
    quotient_localized_by_m,
    refine_level,
    tensor_cyclic_with_localized,
)
from .colimit import (
    CuntzIdentification,
    CyclicColimit,
    ColimitElement,
    DistinguishVerdict,
    Geometric,
    PrimePowerWitness,
    StageCongruenceError,
    distinguish_colimits,
    element_order,
    identify_cuntz_k_theory,
    order_spectrum,
    prime_power_order_witness,
    push,
)
from .odometer import (
    FiniteStageK0,
    KernelCertificate,
    LocallyConstantFn,
    OdometerKTheory,
    OdometerSpec,
    connecting_map,
    finite_stage_k0,
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
    "Comparison",
    "CyclicElement",
    "CyclicHom",
    "LocallyConstantProjectionClass",
    "compare_projection_classes",
    "quotient_localized_by_m",
    "refine_level",
    "tensor_cyclic_with_localized",
    "CuntzIdentification",
    "CyclicColimit",
    "ColimitElement",
    "DistinguishVerdict",
    "Geometric",
    "PrimePowerWitness",
    "StageCongruenceError",
    "distinguish_colimits",
    "element_order",
    "identify_cuntz_k_theory",
    "order_spectrum",
    "prime_power_order_witness",
    "push",
    "FiniteStageK0",
    "KernelCertificate",
    "LocallyConstantFn",
    "OdometerKTheory",
    "OdometerSpec",
    "connecting_map",
    "finite_stage_k0",
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
