"""Decide membership in the image of id - (1/k)T, two independent ways.

The residue route collapses a level-n function to Z_{k**n - 1} and tests for
zero.  The series route sums the geometric series for the candidate preimage
in closed form at one point, steps the recurrence g(x) = f(x) + g(x - 1)/k
around the rest of the cycle, and checks that every value stays inside
Z[1/k]; a positive answer comes with an exact witness.  The two answers
always agree, and both take O(n) big-integer steps, so a level of a few
thousand answers at once.

Indicator functions of proper nonempty residue sets always fail: their
residue is a partial sum of powers of k, strictly between 0 and k**n - 1.
This is the exact-arithmetic shadow of a base-k expansion argument, and it
is why the K_0 group of the tower is never zero.
"""

from fractions import Fraction
from random import Random

from kcalc import LocallyConstantFn, membership_psi, membership_series, psi, pv_endomorphism

k, n = 2, 3

print(f"level {n} functions over Z[1/{k}], modulus {k ** n - 1}")
print()

indicator = LocallyConstantFn.indicator(k, n, {0, 2})
print("indicator of {0, 2}:")
print(f"  psi residue  : {psi(indicator).residue} (mod {k ** n - 1})")
print(f"  member (psi) : {membership_psi(indicator)}")
print(f"  member (series): {membership_series(indicator).member}")
print()

seed = LocallyConstantFn.from_fractions(k, ["3/4", 1, "-1/2"])
image_element = seed - pv_endomorphism(seed)
result = membership_series(image_element)
print("an element built as (id - (1/k)T) applied to (3/4, 1, -1/2):")
print(f"  values       : {[str(v) for v in image_element.values]}")
print(f"  psi residue  : {psi(image_element).residue}")
print(f"  member       : {result.member}")
print(f"  witness      : {[str(v) for v in result.witness.values]}")
check = result.witness - pv_endomorphism(result.witness)
print(f"  witness check reproduces the input: {check == image_element}")
print()

big_n = 2000
rng = Random(2000)
preimage = LocallyConstantFn.from_fractions(
    k, [Fraction(rng.randint(-9, 9), k ** rng.randint(0, 2)) for _ in range(big_n)]
)
big = preimage - pv_endomorphism(preimage)
big_result = membership_series(big)
print(f"a level-{big_n} element built the same way from random values in Z[1/{k}]:")
print(f"  modulus digits : {len(str(k ** big_n - 1))}")
print(f"  psi residue    : {psi(big).residue}")
print(f"  member         : {membership_psi(big)} (psi), {big_result.member} (series)")
print(f"  witness is the preimage: {big_result.witness == preimage}")
