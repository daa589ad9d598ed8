"""Walk through the K_0 tower of an odometer.

Each stage of an odometer with levels n_1 | n_2 | ... contributes the cyclic
group Z_{k**n_i - 1}; the connecting maps multiply by the ratio of adjacent
moduli, and the class of the unit sits at (k**n_i - 1)/(k - 1).  K_1 vanishes
at every level: the closed-form kernel pivot 1 - k**-n_i has numerator
k**n_i - 1 = -1 (mod k), so it is never 0.
"""

from kcalc import Geometric, OdometerSpec, k0_odometer

for k, levels in ((2, (1, 2, 4, 8)), (3, (1, 3, 9)), (5, (1, 2, 4))):
    spec = OdometerSpec(k, levels)
    result = k0_odometer(spec)
    tower = result.k0
    print(f"base k = {k}, levels {levels}")
    print(f"  moduli       : {tower.moduli}")
    print(f"  multipliers  : {[h.multiplier for h in tower.maps]} (reduced)")
    print(f"  unit thread  : {[u.residue for u in tower.unit_thread]}")
    pivots = ", ".join(str(pivot) for pivot in result.kernel_certificates)
    print(f"  K_1 = 0, kernel pivots {pivots}")
    print()

# with a level rule attached, order statements can be certified over all
# stages, not just the stored prefix
from kcalc import order_spectrum

rule = Geometric(1, 2)
spec = OdometerSpec(2, rule.levels(5), rule=rule)
spectrum = order_spectrum(k0_odometer(spec).k0)
print("order spectrum of the binary tower (levels 1, 2, 4, 8, 16):")
for prime, bound in spectrum.items():
    note = "exact supremum" if bound.exact else "prefix lower bound"
    print(f"  {prime}^{bound.prefix_max}  ({note})")
