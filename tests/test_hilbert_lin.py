import dataclasses

import numpy as np
import pytest

from helpers import circulant_kernel, scalar_bundle, trivial_group, z2_swap
from kgl import hilbert_lin as hl
from kgl import kernel as kn
from kgl import krein_lin as kl
from kgl.bundle import HilbertBundle
from kgl.errors import NotInvariant, NotPartiallyPSD, RankMismatch
from kgl.numlin import DEFAULT_TOL as TOL, frob
from kgl.sgpd import classify


def test_constant_kernel_rank_one_frozen():
    k = circulant_kernel(1.0, 1.0)
    p = kn.single_partition(k.bundle)
    lin = hl.minimal_linearisation(k, p, TOL)
    assert lin.spaces["all"].dim == 1
    # features worked out from the rank-one eigenpair of [[1,1],[1,1]]
    assert np.allclose(lin.features["x1"], [[1.0]], atol=1e-12)
    assert np.allclose(lin.features["x2"], [[1.0]], atol=1e-12)
    for rec in kl.verify_krein_factorization(lin, TOL):
        assert rec.passed


def test_identity_kernel_rank_frozen():
    b = scalar_bundle(("x1", "x2"))
    k = kn.identity_kernel(b)
    p = kn.single_partition(b)
    lin = hl.minimal_linearisation(k, p, TOL)
    assert lin.spaces["all"].dim == 2
    v = np.hstack([lin.features["x1"], lin.features["x2"]])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_zero_kernel_rank_zero():
    b = scalar_bundle(("x1", "x2"))
    k = kn.zero_kernel(b)
    p = kn.single_partition(b)
    lin = hl.minimal_linearisation(k, p, TOL)
    assert lin.spaces["all"].dim == 0
    assert lin.features["x1"].shape == (0, 1)
    for rec in kl.verify_krein_factorization(lin, TOL):
        assert rec.passed


def test_indefinite_kernel_rejected():
    from helpers import swap_gram_kernel

    k = swap_gram_kernel()
    p = kn.single_partition(k.bundle)
    with pytest.raises(NotPartiallyPSD):
        hl.minimal_linearisation(k, p, TOL)


def test_factorization_reconstructs_random_kernels():
    rng = np.random.Generator(np.random.Philox(31))
    for trial in range(15):
        dims = {f"x{i}": int(rng.integers(1, 4)) for i in range(int(rng.integers(2, 5)))}
        b = HilbertBundle(points=tuple(dims), dim=dims)
        p = kn.single_partition(b)
        n = sum(dims.values())
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = m.conj().T @ m
        k = kn.kernel_from_part_grams(p, {"all": g})
        lin = hl.minimal_linearisation(k, p, TOL)
        for x in b.points:
            for y in b.points:
                vx, vy = lin.features[x], lin.features[y]
                assert frob(vx.conj().T @ vy - k.block(x, y)) <= 1e-8 * max(1.0, frob(g))


def test_rkhs_member_frozen():
    k = circulant_kernel(1.0, 1.0)
    p = kn.single_partition(k.bundle)
    lin = hl.minimal_linearisation(k, p, TOL)
    view = kl.RkKreinView(lin)
    f = view.member("all", np.array([1.0]))
    assert np.allclose(f.at("x1"), [1.0])
    assert np.allclose(f.at("x2"), [1.0])


def test_verify_reproducing_clean():
    rng = np.random.Generator(np.random.Philox(41))
    for trial in range(8):
        n = int(rng.integers(2, 5))
        dims = {f"x{i}": int(rng.integers(1, 3)) for i in range(n)}
        b = HilbertBundle(points=tuple(dims), dim=dims)
        p = kn.single_partition(b)
        t = sum(dims.values())
        m = rng.normal(size=(t, t)) + 1j * rng.normal(size=(t, t))
        k = kn.kernel_from_part_grams(p, {"all": m.conj().T @ m})
        lin = hl.minimal_linearisation(k, p, TOL)
        view = kl.RkKreinView(lin)
        for rec in kl.verify_reproducing(view, TOL):
            assert rec.passed, rec.name


def test_unitary_equivalence_recovers_conjugation():
    rng = np.random.Generator(np.random.Philox(43))
    k = circulant_kernel(2.0, 1.0)
    p = kn.single_partition(k.bundle)
    lin = hl.minimal_linearisation(k, p, TOL)
    r = lin.spaces["all"].dim
    m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    q, _ = np.linalg.qr(m)
    other = dataclasses.replace(lin, wmap={"all": q @ lin.wmap["all"]},
                                features={x: q @ v for x, v in lin.features.items()})
    res = kl.j_unitary_equivalence(lin, other, TOL)
    assert res.ok
    assert frob(res.maps["all"] - q) <= 1e-8


def test_unitary_equivalence_identity_and_routes():
    k = circulant_kernel(2.0, 1.0)
    p = kn.single_partition(k.bundle)
    lin = hl.minimal_linearisation(k, p, TOL)
    res = kl.j_unitary_equivalence(lin, lin, TOL)
    assert res.ok and frob(res.maps["all"] - np.eye(lin.spaces["all"].dim)) <= 1e-12

    other = kl.krein_linearisation(k, p, TOL, dominant=kl.canonical_dominant(k, p, TOL))
    res2 = kl.j_unitary_equivalence(lin, other, TOL)
    assert res2.ok


def test_unitary_equivalence_rank_mismatch():
    b = scalar_bundle(("x1", "x2"))
    p = kn.single_partition(b)
    lin1 = hl.minimal_linearisation(kn.identity_kernel(b), p, TOL)
    lin0 = hl.minimal_linearisation(circulant_kernel(1.0, 1.0), p, TOL)
    with pytest.raises(RankMismatch):
        kl.j_unitary_equivalence(lin1, lin0, TOL)


def test_invariant_representation_circulant_frozen():
    sg, act = z2_swap()
    k = circulant_kernel(2.0, 1.0)
    p = kn.partition_from_action(k.bundle, act)
    rep = hl.invariant_representation(k, act, p, TOL)
    phi_g = rep.psi["g"]
    # worked out by hand in the eigenbasis (1,-1)/sqrt2, (1,1)/sqrt2
    assert np.allclose(phi_g, np.diag([-1.0, 1.0]), atol=1e-12)
    assert frob(phi_g @ phi_g - np.eye(2)) <= 1e-12
    assert frob(phi_g - phi_g.conj().T) <= 1e-12
    assert np.allclose(rep.psi["e"], np.eye(2), atol=1e-12)
    for rec in rep.records:
        assert rec.passed, rec.name
    assert rep.shift_constants["g"] == pytest.approx(1.0, abs=1e-9)


def test_invariant_representation_trivial_group():
    sg = trivial_group()
    from kgl.sgpd import LeftAction

    act = LeftAction(sg, base=("x",), anchor={"x": "s"}, act={("e", "x"): "x"})
    b = scalar_bundle(("x",))
    k = kn.identity_kernel(b)
    p = kn.partition_from_action(b, act)
    rep = hl.invariant_representation(k, act, p, TOL)
    assert np.allclose(rep.psi["e"], np.eye(1))


def test_invariant_representation_rejects_noninvariant():
    from helpers import scalar_kernel

    sg, act = z2_swap()
    k = scalar_kernel(("x1", "x2"), {("x1", "x1"): 1.0, ("x2", "x2"): 2.0})
    p = kn.partition_from_action(k.bundle, act)
    with pytest.raises(NotInvariant):
        hl.invariant_representation(k, act, p, TOL)


def test_representation_multiplicative_on_generated_families():
    from kgl import generators

    for family in ("pair_groupoid", "partial_bijections", "group_as_groupoid"):
        sg, act, bundle, k = generators.generate_instance(family, seed=17)
        p = kn.partition_from_action(bundle, act)
        rep = hl.invariant_representation(k, act, p, TOL)
        for rec in rep.records:
            assert rec.passed, (family, rec.name, rec.residual)


def test_partial_isometry_required_on_inverse_instances():
    from kgl import generators

    for family in ("pair_groupoid", "partial_bijections"):
        sg, act, bundle, k = generators.generate_instance(family, seed=23)
        p = kn.partition_from_action(bundle, act)
        rep = hl.invariant_representation(k, act, p, TOL)
        cls = classify(sg)
        assert cls.is_inverse
        recs = hl.partial_isometry_report(rep, cls, TOL)
        assert recs
        for rec in recs:
            assert rec.passed, (family, rec.residual)
            assert rec.witness[1] == "required"


def test_partial_isometry_required_on_merge_semilattice():
    # the idempotent merge monoid is inverse (a semilattice), so the
    # requirement applies and the represented idempotent is a projection
    from helpers import merge_monoid, scalar_kernel

    sg, act = merge_monoid()
    # invariance under the merge forces K(x0,x1) = K(x1,x0) = K(x0,x0)
    k = scalar_kernel(("x0", "x1"), {("x0", "x0"): 1.0, ("x0", "x1"): 1.0,
                                     ("x1", "x0"): 1.0, ("x1", "x1"): 2.0})
    p = kn.partition_from_action(k.bundle, act)
    ok, _ = kn.is_invariant(k, act, TOL)
    assert ok
    rep = hl.invariant_representation(k, act, p, TOL)
    cls = classify(sg)
    assert cls.is_inverse
    recs = hl.partial_isometry_report(rep, cls, TOL)
    assert all(r.passed for r in recs)
    phi_t = rep.psi["t"]
    assert frob(phi_t @ phi_t - phi_t) <= 1e-10
    assert frob(phi_t - phi_t.conj().T) <= 1e-10


def test_partial_isometry_informational_on_non_inverse():
    from helpers import scalar_kernel
    from kgl.sgpd import LeftAction, StarSemigroupoid

    # truncated free semigroup {a, a2}: no element has a pseudo-inverse
    sg = StarSemigroupoid(
        symbols=("s",), elements=("a", "a2"),
        d={"a": "s", "a2": "s"}, c={"a": "s", "a2": "s"},
        compose={("a", "a"): "a2", ("a", "a2"): "a2", ("a2", "a"): "a2",
                 ("a2", "a2"): "a2"},
        star={"a": "a", "a2": "a2"})
    act = LeftAction(sg, base=("a", "a2"), anchor={"a": "s", "a2": "s"},
                     act={("a", "a"): "a2", ("a", "a2"): "a2",
                          ("a2", "a"): "a2", ("a2", "a2"): "a2"})
    # invariance forces K(a,a2) = K(a2,a) = K(a2,a2)
    k = scalar_kernel(("a", "a2"), {("a", "a"): 2.0, ("a", "a2"): 1.0,
                                    ("a2", "a"): 1.0, ("a2", "a2"): 1.0})
    p = kn.partition_from_action(k.bundle, act)
    ok, _ = kn.is_invariant(k, act, TOL)
    assert ok
    rep = hl.invariant_representation(k, act, p, TOL)
    cls = classify(sg)
    assert not cls.is_inverse
    recs = hl.partial_isometry_report(rep, cls, TOL)
    assert all(r.passed for r in recs)  # no requirement imposed
    assert all(r.witness[1] == "informational" for r in recs)
