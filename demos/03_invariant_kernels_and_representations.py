"""Invariant kernels and the representations they induce.

When a kernel satisfies K(g.x, y) = K(x, g*.y) for a structure acting on the
base, every element acts on the factor space of the minimal factorization.
The resulting matrices multiply like the structure, send star to adjoint,
and move feature maps along the action. Their squared operator norms are
exactly the bounded-shift constants of the kernel.
"""

import numpy as np

from kgl import (
    HilbertBundle,
    OpKernel,
    bounded_shift_constants,
    classify,
    invariant_representation,
    is_invariant,
    partial_isometry_report,
    partition_from_action,
)
from kgl.numlin import opnorm
from kgl.sgpd import group_action

# The two-element group flips two base points.
table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
sg, act = group_action(table, base=("x1", "x2"),
                       action_map={("e", "x1"): "x1", ("e", "x2"): "x2",
                                   ("g", "x1"): "x2", ("g", "x2"): "x1"})
bundle = HilbertBundle(points=("x1", "x2"), dim={"x1": 1, "x2": 1})

# A circulant Gram matrix is exactly what flip invariance allows.
k = OpKernel(bundle, {
    ("x1", "x1"): np.array([[2.0]]), ("x2", "x2"): np.array([[2.0]]),
    ("x1", "x2"): np.array([[1.0]]), ("x2", "x1"): np.array([[1.0]]),
})
ok, _ = is_invariant(k, act)
print("circulant kernel invariant under the flip:", ok)

# Breaking the symmetry of the diagonal is detected with a witness triple.
bad = OpKernel(bundle, {("x1", "x1"): np.array([[1.0]]),
                        ("x2", "x2"): np.array([[2.0]])})
ok_bad, witness = is_invariant(bad, act)
print("asymmetric diagonal invariant:", ok_bad, " witness (element, x, y):", witness)

p = partition_from_action(bundle, act)
for g, m in bounded_shift_constants(k, act).items():
    print(f"bounded-shift constant of {g!r}: {m}")

# rep.psi is a read-only mapping: each rep.psi[g] is rebuilt, read-only, as
# W_c[:, c_g] W_d+ on access, so no stack of dense shifts is kept.
rep = invariant_representation(k, act, p)
print("\nrepresented flip on the factor space:")
print(np.array_str(rep.psi["g"].real, precision=6, suppress_small=True))
for record in rep.records:
    print(f"  [{'ok' if record.passed else 'FAIL'}] {record.name}: residual {record.residual:.2e}")

# Shift constants are squared represented norms.
for g, phi in rep.psi.items():
    print(f"  ||phi({g})||^2 = {opnorm(phi) ** 2:.6f}"
          f"  vs constant {rep.shift_constants[g]:.6f}")

# The group is inverse with star equal to inversion, so every represented
# element must be a partial isometry (here: a unitary). Its residual is a
# bound derived from a a* a = a and the laws' own residuals.
cls = classify(sg)
for record in partial_isometry_report(rep, cls):
    print(f"  partial isometry {record.witness}: residual {record.residual:.2e}")
