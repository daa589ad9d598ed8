"""kcalc: exact-arithmetic K-theory calculator for odometer towers.

Computes and certifies, in exact integer/rational arithmetic: the inductive
limit of cyclic groups attached to an odometer tower, membership in the
image of id - (1/k)T by two independent criteria, prime-power element-order
witnesses that tell such limits apart, the UHF-tensoring pipeline that
identifies a tower with the K-theory of a Cuntz algebra, and finite
truncations of the associated path-space groupoid.

The package re-exports each library module's ``__all__``; those lists are
the only record of kcalc's public names.
"""

from . import arith, abelian, colimit, odometer, groupoid
from .arith import *
from .abelian import *
from .colimit import *
from .odometer import *
from .groupoid import *

__version__ = "0.1.0"

__all__ = [
    *arith.__all__,
    *abelian.__all__,
    *colimit.__all__,
    *odometer.__all__,
    *groupoid.__all__,
    "__version__",
]
