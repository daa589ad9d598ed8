"""Explore a finite truncation of the path-space groupoid.

Cylinders (a vertex residue plus a word prefix) stand in for infinite paths;
arrow classes pair cylinders with the shift exponents under which they
agree.  Freeness of the finite-level rotation certifies that no arrow class
with a small nonzero displacement can be an isotropy arrow, and taking the
product with a full equivalence-relation block scales the arrow count by
the square of the block size.
"""

from kcalc import (
    Cylinder,
    OdometerSpec,
    certify_no_isotropy,
    compose_arrows,
    enumerate_arrows,
    invert_arrow,
    product_with_af,
    refine_arrow,
)

c = Cylinder(level=4, base=0, word=(1, 2))
print(f"cylinder {c}")
print(f"  shifted once: {c.shift()}")
print()

k, level, depth, disp = 2, 2, 2, 1
arrows = list(enumerate_arrows(k, level, depth, disp))
print(f"arrows at k={k}, vertex level {level}, depth {depth}, |d| <= {disp}:")
print(f"  count {len(arrows)} = (2*{disp}+1) * {level} * {k}^{depth + disp}")
sample = arrows[37]
print(f"  a sample arrow: {sample.source} --(d={sample.displacement})--> {sample.target}")
inverse = invert_arrow(sample)
print(f"  its inverse has displacement {inverse.displacement}")
loop = compose_arrows(inverse, sample)
print(f"  inverse composed with the original: displacement {loop.displacement}")
pieces = refine_arrow(sample, k)
print(f"  refining one letter deeper splits it into {len(pieces)} classes")
print()

spec = OdometerSpec(2, (1, 2, 4, 8))
certificate = certify_no_isotropy(spec, max_displacement=3)
print(
    f"no-isotropy certificate: stage {certificate.stage} (vertex level"
    f" {certificate.level}) rules out isotropy for 0 < |d| <= "
    f"{certificate.max_displacement}"
)
print()

af = product_with_af(arrows, block_size=3)
print(
    f"product with a 3-point full equivalence relation: {af.count} arrows"
    f" = {len(arrows)} * 3^2"
)
