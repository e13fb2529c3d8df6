"""A first tour: operator-valued kernels, Gram blocks, minimal factorization.

A kernel here assigns to every ordered pair of base points a matrix mapping
the fiber at the second point into the fiber at the first. Stacking the
within-part blocks gives one Gram matrix per part, and factoring that Gram
matrix through its rank produces feature maps V_x with K(x, y) = V_x* V_y.
"""

import numpy as np

from kgl import (
    HilbertBundle,
    OpKernel,
    RkKreinView,
    canonical_dominant,
    conv_blocks,
    is_partially_hermitian,
    is_partially_psd,
    j_unitary_equivalence,
    krein_linearisation,
    minimal_linearisation,
    partition_from_anchor,
)
from kgl.krein_lin import verify_reproducing
from kgl.numlin import frob

# Two points with a 1-dimensional and a 2-dimensional fiber.
bundle = HilbertBundle(points=("x", "y"), dim={"x": 1, "y": 2})
blocks = {
    ("x", "x"): np.array([[2.0]]),
    ("x", "y"): np.array([[1.0, 0.5]]),
    ("y", "x"): np.array([[1.0], [0.5]]),
    ("y", "y"): np.array([[1.0, 0.25], [0.25, 1.0]]),
}
k = OpKernel(bundle, blocks)

# One part containing both points; the partition is where definiteness lives.
p = partition_from_anchor(bundle, {"x": "s", "y": "s"})
print("Hermitian on the part:", is_partially_hermitian(k, p))
print("PSD on the part:     ", is_partially_psd(k, p))

g = conv_blocks(k, p)["s"]
print("\nstacked Gram matrix (3 x 3):")
print(np.array_str(g.real, precision=3))

lin = minimal_linearisation(k, p)
print("\nfactor space dimension:", lin.spaces["s"].dim, "(the rank of the Gram matrix)")
for x in bundle.points:
    print(f"feature map at {x}: shape {lin.features[x].shape}")

worst = max(
    frob(lin.features[a].conj().T @ lin.features[b] - k.block(a, b))
    for a in bundle.points
    for b in bundle.points
)
print(f"reconstruction residual max ||V_x* V_y - K(x,y)||_F = {worst:.2e}")

# The factorization doubles as a reproducing-kernel space of sections:
# members are sections x -> V_x* f, and pairing against a kernel column
# at x evaluates the member at x.
view = RkKreinView(lin)
for record in verify_reproducing(view):
    print(f"  [{'ok' if record.passed else 'FAIL'}] {record.name}: residual {record.residual:.2e}")

# A second construction goes through a dominating PSD kernel, here the
# canonical dominant |G|; minimal factorizations are unique up to a unitary,
# and the canonical map between the two is certified unitary.
other = krein_linearisation(k, p, dominant=canonical_dominant(k, p))
eq = j_unitary_equivalence(lin, other)
print("\ndirect and dominant routes agree up to a unitary:", eq.ok)
for record in eq.records:
    print(f"  {record.name}: residual {record.residual:.2e}")
