"""Collapse the tensored tower onto the K-theory of a Cuntz algebra.

For levels n_i = k**(i-1), tensoring each stage Z_{k**n_i - 1} with the
localized group whose denominators avoid the primes of k - 1 leaves exactly
Z_{k-1}, the induced connecting maps become isomorphisms, and the unit class
lands on the generator.  That k-theoretic picture matches the Cuntz algebra
on k generators; the final isomorphism of algebras is cited, never computed.
The identification forms no level and no modulus; the tower's levels and
moduli are read off k0_odometer, as the ok subcommand does.
"""

from kcalc import Geometric, OdometerSpec, identify_cuntz_k_theory, k0_odometer

for k in (2, 3, 4, 5, 7):
    outcome = identify_cuntz_k_theory(k, depth=4)
    rule = Geometric(1, k)
    spec = OdometerSpec(k, rule.levels(outcome.depth), rule=rule)
    moduli = k0_odometer(spec).k0.moduli
    k0 = "0" if outcome.k0_order == 1 else f"Z_{outcome.k0_order}"
    print(f"k = {k}:  K_0 = {k0}, unit -> {outcome.unit_class}, K_1 = 0")
    print(f"  levels {spec.levels}")
    for stage, modulus in zip(outcome.stages, moduli):
        congruences = ", ".join(
            f"cofactor = 1 mod {p}" for p, _ in stage.cofactor_congruences
        ) or "no congruences (k - 1 = 1)"
        print(
            f"  stage {stage.stage}: |Z_m| = {modulus}, tensored order"
            f" {stage.tensored_modulus}; {congruences}"
        )
    for line in outcome.citations:
        print(f"  [{line}]")
    print()
