"""Lifting form-compatible operators, and representations that reduce.

Two Hermitian matrices A and B induce indefinite-product spaces. An
operator pair (T, S) with B T = S* A descends to those spaces, and the
lifted pair are adjoints of each other for the indefinite products.

The same machinery drives invariant indefinite representations: when the
dominating kernel used to build the space is itself invariant, every
represented element commutes with the sign symmetry of its part, so the
representation splits into a positive and a negative definite summand.
"""

import numpy as np

from kgl import (
    HilbertBundle,
    fundamental_reducibility_check,
    invariant_krein_representation,
    is_invariant,
    krein_adjoint,
    lift_operator,
    partition_from_action,
)
import kgl.generators as generators
import kgl.sgpd as sgpd
from kgl.numlin import frob

# --- lifting -------------------------------------------------------------
a = np.diag([1.0, -1.0])
b = np.diag([1.0, -1.0])
t = np.array([[0.0, 1.0], [1.0, 0.0]])
s = np.array([[0.0, -1.0], [-1.0, 0.0]])  # solves B T = S* A
pair = lift_operator(a, b, t, s)
t_lift, s_lift = pair
print("lifted operator:")
print(np.array_str(t_lift.real, precision=6, suppress_small=True))
print(f"factors through the canonical maps: "
      f"{frob(t_lift @ pair.source.pi - pair.target.pi @ t):.2e}")
sharp = krein_adjoint(t_lift, pair.source.space, pair.target.space)
print(f"partner equals the indefinite adjoint: {frob(sharp - s_lift):.2e}")

# Random rank-deficient quadruples built to satisfy the identity exactly.
for seed in (0, 1, 2):
    a, b, t, s = generators.random_lift_quadruple(4, 3, seed)
    pair = lift_operator(a, b, t, s)
    r = frob(pair.t_lift @ pair.source.pi - pair.target.pi @ t)
    print(f"seed {seed}: lift shape {pair.t_lift.shape}, factoring residual {r:.2e}")

# --- reducibility --------------------------------------------------------
print("\ninvariant kernel with an invariant dominant:")
sg, act = sgpd.generate("pair_groupoid", 1)
bundle = HilbertBundle(points=act.base, dim={x: 2 for x in act.base})
k, l = generators.invariant_dominant_pair(act, bundle, seed=7)
print("  dominant invariant:", is_invariant(l, act)[0])

p = partition_from_action(bundle, act)
lin, rep = invariant_krein_representation(k, act, p, dominant=l)
sigs = {label: lin.spaces[label].signature for label in p.parts}
print("  part signatures:", sigs)
for record in fundamental_reducibility_check(rep)[:4]:
    print(f"  commutator at {record.witness}: residual {record.residual:.2e}")
print("  ... every represented element commutes with the sign bundle, so the")
print("  representation is a direct sum of two definite representations.")
