"""Tell two inductive limits of cyclic groups apart by element orders.

If a prime power p**s divides some level of one geometric tower and no level
of another, there is a prime power q**r (with the order of k modulo q**r
equal to p**s) whose element orders appear in the first limit and never in
the second.  The witness search is exact and comes with a verifiable
order certificate.
"""

from kcalc import Geometric, distinguish_colimits, prime_power_order_witness

pairs = [
    (Geometric(1, 2), Geometric(1, 3)),
    (Geometric(1, 3), Geometric(1, 2)),
    (Geometric(1, 6), Geometric(1, 2)),
    (Geometric(1, 2), Geometric(2, 2)),
]

for rule_a, rule_b in pairs:
    verdict = distinguish_colimits(2, rule_a, rule_b)
    label = (
        f"levels {rule_a.first}*{rule_a.ratio}^i vs {rule_b.first}*{rule_b.ratio}^i"
    )
    if verdict.distinct:
        w = verdict.witness
        print(f"{label}: DISTINCT")
        print(
            f"  {w.p}^{w.s} divides a level of the first"
            f" tower (stage {verdict.first_stage_with_order}) and none of the second"
        )
        print(
            f"  witness {w.q}^{w.r} = {w.prime_power}: the order of 2 modulo"
            f" {w.prime_power} is {w.order}, so {w.prime_power} | 2^b - 1"
            f" exactly when {w.p}^{w.s} | b"
        )
    else:
        print(f"{label}: inconclusive (no qualifying prime power)")
    print()

w = prime_power_order_witness(3, 2, 1)
print(f"direct witness query (k=3, p=2, s=1): {w.q}^{w.r} with order {w.order}")
