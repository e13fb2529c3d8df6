import numpy as np
import pytest

from helpers import merge_monoid, scalar_bundle, z2_swap
from kgl import generators, kernel as kn, krein_lin as kl
from kgl.errors import UnsupportedFamily
from kgl.numlin import DEFAULT_TOL as TOL, frob

FAMILIES = ("pair_groupoid", "group_action", "partial_bijections",
            "group_as_groupoid")


def test_generate_instance_deterministic():
    for family in FAMILIES:
        a = generators.generate_instance(family, seed=4)
        b = generators.generate_instance(family, seed=4)
        assert a[0].elements == b[0].elements
        for (xy, blk) in a[3].blocks.items():
            assert np.array_equal(blk, b[3].blocks[xy])


def test_psd_invariant_kernels_across_families_and_seeds():
    for family in FAMILIES:
        for seed in range(4):
            sg, act, bundle, k = generators.generate_instance(family, seed=seed)
            p = kn.partition_from_action(bundle, act)
            assert kn.is_partially_psd(k, p, TOL), (family, seed)
            ok, wit = kn.is_invariant(k, act, TOL)
            assert ok, (family, seed, wit)


def test_hermitian_invariant_kernels_across_families_and_seeds():
    for family in FAMILIES:
        for seed in range(4):
            sg, act, bundle, k = generators.generate_instance(
                family, seed=seed, mode="hermitian_invariant")
            p = kn.partition_from_action(bundle, act)
            assert kn.is_partially_hermitian(k, p, TOL), (family, seed)
            ok, wit = kn.is_invariant(k, act, TOL)
            assert ok, (family, seed, wit)


def test_hermitian_invariant_mode_produces_indefinite_examples():
    # across a seed sweep at least one instance must be genuinely indefinite,
    # otherwise the mode would silently collapse into the PSD one
    indefinite = 0
    for family in FAMILIES:
        for seed in range(6):
            sg, act, bundle, k = generators.generate_instance(
                family, seed=seed, mode="hermitian_invariant")
            p = kn.partition_from_action(bundle, act)
            if not kn.is_partially_psd(k, p, TOL):
                indefinite += 1
    assert indefinite > 0


def test_z2_psd_invariant_is_circulant():
    sg, act = z2_swap()
    b = scalar_bundle(("x1", "x2"))
    k = generators.generate_kernel(act, b, "psd_invariant", seed=0, tol=TOL)
    g = kn.conv_blocks(k, kn.partition_from_action(b, act))["s"]
    assert abs(g[0, 0] - g[1, 1]) <= 1e-12
    assert abs(g[0, 1] - g[1, 0].conjugate()) <= 1e-12


def test_arbitrary_mode_reproducible_hermitian():
    sg, act = z2_swap()
    b = scalar_bundle(("x1", "x2"))
    k1 = generators.generate_kernel(act, b, "arbitrary", seed=3, tol=TOL)
    k2 = generators.generate_kernel(act, b, "arbitrary", seed=3, tol=TOL)
    p = kn.partition_from_action(b, act)
    assert kn.is_partially_hermitian(k1, p, TOL)
    g1 = kn.conv_blocks(k1, p)["s"]
    g2 = kn.conv_blocks(k2, p)["s"]
    assert np.array_equal(g1, g2)


def test_invariant_modes_unsupported_off_oracle():
    # the merge action is neither a groupoid nor a self-action, so no
    # invariance oracle applies
    sg, act = merge_monoid()
    b = scalar_bundle(("x0", "x1"))
    with pytest.raises(UnsupportedFamily):
        generators.generate_kernel(act, b, "psd_invariant", seed=0, tol=TOL)


def test_invariant_dominant_pair_properties():
    for family, seed in (("pair_groupoid", 1), ("partial_bijections", 2),
                         ("group_action", 3), ("group_as_groupoid", 4)):
        sg, act, bundle, _ = generators.generate_instance(
            family, seed=seed, mode="hermitian_invariant")
        k, l = generators.invariant_dominant_pair(act, bundle, seed=seed, tol=TOL)
        p = kn.partition_from_action(bundle, act)
        assert kn.is_partially_hermitian(k, p, TOL)
        assert kn.is_partially_psd(l, p, TOL)
        assert kn.is_invariant(k, act, TOL)[0]
        assert kn.is_invariant(l, act, TOL)[0]
        data = kl.gram_operator(k, l, p, TOL)  # dominance certified
        for label in data.contraction:
            assert data.contraction[label] <= 1.0 + TOL.atol


def test_random_lift_quadruple_compatible():
    for seed in range(6):
        a, b, t, s = generators.random_lift_quadruple(4, 3, seed=seed, tol=TOL)
        assert frob(a - a.conj().T) <= 1e-12
        assert frob(b - b.conj().T) <= 1e-12
        resid = frob(b @ t - s.conj().T @ a)
        assert resid <= 1e-10 * max(1.0, frob(b) * frob(t))
