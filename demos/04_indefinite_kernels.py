"""Hermitian kernels without positivity: splits and indefinite factorizations.

A Hermitian kernel that fails to be PSD still factors, but through a space
carrying an indefinite inner product: K(x, y) = V_x* J V_y with J a diagonal
sign matrix. The spectral split K = K_plus - K_minus certifies how much of
the kernel lives on each side, and a Gram-operator gap argument shows the
construction is unique up to sign-preserving isomorphism.
"""

import numpy as np

from kgl import (
    HilbertBundle,
    OpKernel,
    canonical_dominant,
    conv_blocks,
    is_partially_psd,
    jordan_split,
    krein_linearisation,
    partition_from_anchor,
    rk_krein_space,
    uniqueness_report,
)
from kgl.numlin import frob

bundle = HilbertBundle(points=("x", "y", "z"), dim={"x": 1, "y": 1, "z": 1})
p = partition_from_anchor(bundle, {"x": "s", "y": "s", "z": "s"})

# An off-diagonal coupling stronger than the diagonal forces indefiniteness.
k = OpKernel(bundle, {
    ("x", "x"): np.array([[1.0]]), ("y", "y"): np.array([[1.0]]),
    ("z", "z"): np.array([[0.5]]),
    ("x", "y"): np.array([[2.0]]), ("y", "x"): np.array([[2.0]]),
})
print("partially PSD:", is_partially_psd(k, p))

kp, km, cert = jordan_split(k, p)
print("split certificate:", cert["s"])
g = conv_blocks(k, p)["s"]
gp = conv_blocks(kp, p)["s"]
gm = conv_blocks(km, p)["s"]
print(f"reconstruction ||G+ - G- - G||_F = {frob(gp - gm - g):.2e}")
print("both split parts PSD:",
      is_partially_psd(kp, p) and is_partially_psd(km, p))

lin = krein_linearisation(k, p)
space = lin.spaces["s"]
print(f"\nfactor space dimension {space.dim}, signature {space.signature}")
worst = max(
    frob(lin.features[a].conj().T @ np.diag(space.jdiag) @ lin.features[b] - k.block(a, b))
    for a in bundle.points
    for b in bundle.points
)
print(f"indefinite reconstruction residual {worst:.2e}")

_view, records = rk_krein_space(lin)
for record in records:
    print(f"  [{'ok' if record.passed else 'FAIL'}] {record.name}: residual {record.residual:.2e}")

# Uniqueness: relative to the canonical dominating PSD kernel |G|, the Gram
# operator has a spectral gap at zero, which pins the induced space. The
# dominant carries its part spectra, read from the kernel's own.
for record in uniqueness_report(k, canonical_dominant(k, p), p):
    w = record.witness
    print(f"\nuniqueness on part {w['part']}: {record.passed}")
    print(f"  gap below zero {w['gap_neg']}, gap above zero {w['gap_pos']}")
    print(f"  note: {w['note']}")
