import dataclasses

import numpy as np
import pytest

from helpers import FAMILIES, circulant_kernel, scalar_bundle, swap_gram_kernel, z2_swap
from kgl import generators
from kgl import hilbert_lin as hl
from kgl import kernel as kn
from kgl import krein_lin as kl
from kgl import numlin
from kgl.bundle import HilbertBundle
from kgl.errors import KernelNotDominated, NotInvariant, RankMismatch
from kgl.numlin import DEFAULT_TOL as TOL, frob, opnorm


def random_hermitian_instance(rng, n_points=3, max_dim=3):
    dims = {f"x{i}": int(rng.integers(1, max_dim + 1)) for i in range(n_points)}
    b = HilbertBundle(points=tuple(dims), dim=dims)
    p = kn.single_partition(b)
    t = sum(dims.values())
    m = rng.normal(size=(t, t)) + 1j * rng.normal(size=(t, t))
    k = kn.kernel_from_part_grams(p, {"all": (m + m.conj().T) / 2})
    return k, p


def test_canonical_dominant_frozen():
    k = swap_gram_kernel()
    p = kn.single_partition(k.bundle)
    l = kl.canonical_dominant(k, p, TOL)
    g_l = kn.conv_blocks(l, p)["all"]
    assert np.allclose(g_l, np.eye(2), atol=1e-12)  # abs of the swap

    kp = circulant_kernel(2.0, 1.0)
    lp = kl.canonical_dominant(kp, p, TOL)
    g = kn.conv_blocks(kp, p)["all"]
    assert frob(kn.conv_blocks(lp, p)["all"] - g) <= 1e-12

    k0 = kn.zero_kernel(k.bundle)
    l0 = kl.canonical_dominant(k0, p, TOL)
    assert not kn.conv_blocks(l0, p)["all"].any()


def test_canonical_dominant_invariance_flag():
    sg, act = z2_swap()
    k = swap_gram_kernel()
    p = kn.partition_from_action(k.bundle, act)
    l = kl.canonical_dominant(k, p, TOL)
    assert kn.is_invariant(l, act, TOL)[0]  # |G| = I commutes with the swap


def test_gram_operator_frozen():
    k = swap_gram_kernel()
    p = kn.single_partition(k.bundle)
    l = kl.canonical_dominant(k, p, TOL)
    data = kl.gram_operator(k, l, p, TOL)
    ghat = data.ghat["all"]
    # against the canonical dominant the Gram operator is a symmetry
    assert frob(ghat @ ghat - np.eye(ghat.shape[0])) <= 1e-12
    assert frob(ghat - ghat.conj().T) <= 1e-12
    assert data.contraction["all"] <= 1.0 + TOL.atol
    gn, gp = data.gaps["all"]
    assert gn == pytest.approx(1.0, abs=1e-9)
    assert gp == pytest.approx(1.0, abs=1e-9)

    kp = circulant_kernel(2.0, 1.0)
    data2 = kl.gram_operator(kp, kp, p, TOL)
    r = data2.ghat["all"].shape[0]
    assert frob(data2.ghat["all"] - np.eye(r)) <= 1e-12

    half = kn.kernel_lincomb([0.5], [kp])
    data3 = kl.gram_operator(half, kp, p, TOL)
    assert frob(data3.ghat["all"] - 0.5 * np.eye(r)) <= 1e-12
    gn3, gp3 = data3.gaps["all"]
    assert gn3 is None and gp3 == pytest.approx(0.5, abs=1e-9)


def test_gram_operator_rejects_non_dominating():
    k = swap_gram_kernel()
    p = kn.single_partition(k.bundle)
    with pytest.raises(KernelNotDominated):
        kl.gram_operator(k, kn.zero_kernel(k.bundle), p, TOL)  # inclusion
    small = kn.kernel_lincomb([0.5], [kl.canonical_dominant(k, p, TOL)])
    with pytest.raises(KernelNotDominated):
        kl.gram_operator(k, small, p, TOL)  # contraction


def test_jordan_split_frozen():
    k = swap_gram_kernel()
    p = kn.single_partition(k.bundle)
    kp, km, cert = kl.jordan_split(k, p, TOL)
    gp = kn.conv_blocks(kp, p)["all"]
    gm = kn.conv_blocks(km, p)["all"]
    assert np.allclose(gp, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-12)
    assert np.allclose(gm, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-12)
    c = cert["all"]
    assert c["rank_plus"] == 1 and c["rank_minus"] == 1
    assert c["rank_sum"] == 2 and c["disjoint"]

    kpsd = circulant_kernel(2.0, 1.0)
    _, km2, _ = kl.jordan_split(kpsd, p, TOL)
    assert not kn.conv_blocks(km2, p)["all"].any()

    kd = kn.kernel_from_part_grams(p, {"all": np.diag([2.0, -3.0]).astype(complex)})
    kp3, km3, _ = kl.jordan_split(kd, p, TOL)
    assert np.allclose(kn.conv_blocks(kp3, p)["all"], np.diag([2.0, 0.0]))
    assert np.allclose(kn.conv_blocks(km3, p)["all"], np.diag([0.0, 3.0]))


def test_jordan_split_reconstructs_exactly():
    rng = np.random.Generator(np.random.Philox(51))
    for _ in range(20):
        k, p = random_hermitian_instance(rng)
        kp, km, cert = kl.jordan_split(k, p, TOL)
        g = kn.conv_blocks(k, p)["all"]
        gp = kn.conv_blocks(kp, p)["all"]
        gm = kn.conv_blocks(km, p)["all"]
        assert frob(g - (gp - gm)) <= 1e-12 * max(1.0, frob(g))
        assert kn.is_partially_psd(kp, p, TOL)
        assert kn.is_partially_psd(km, p, TOL)
        assert cert["all"]["disjoint"]


def test_jordan_split_certificate_ignores_noise_side():
    # a PSD kernel whose eigendecomposition leaves rounding noise on the
    # negative side must still certify rank_minus = 0
    rng = np.random.Generator(np.random.Philox(59))
    p = kn.single_partition(scalar_bundle(("x1", "x2", "x3")))
    for _ in range(10):
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        g = b.conj().T @ b
        k = kn.kernel_from_part_grams(p, {"all": g})
        _kp, km, cert = kl.jordan_split(k, p, TOL)
        c = cert["all"]
        assert c["rank_minus"] == 0 and c["disjoint"]
        assert c["rank_plus"] == c["rank_sum"] == 2
        assert frob(kn.conv_blocks(km, p)["all"]) <= 1e-12


def test_krein_linearisation_swap_frozen():
    k = swap_gram_kernel()
    p = kn.single_partition(k.bundle)
    lin = kl.krein_linearisation(k, p, TOL)
    assert lin.spaces["all"].dim == 2
    assert lin.spaces["all"].signature == (1, 1)
    j = np.diag(lin.spaces["all"].jdiag)
    for x in ("x1", "x2"):
        for y in ("x1", "x2"):
            vx, vy = lin.features[x], lin.features[y]
            assert frob(vx.conj().T @ (j @ vy) - k.block(x, y)) <= 1e-10
    for rec in kl.verify_krein_factorization(lin, TOL):
        assert rec.passed, rec.name


def test_krein_linearisation_psd_matches_hilbert():
    k = circulant_kernel(2.0, 1.0)
    p = kn.single_partition(k.bundle)
    lin = kl.krein_linearisation(k, p, TOL)
    assert lin.spaces["all"].signature == (2, 0)
    hlin = hl.minimal_linearisation(k, p, TOL)
    assert np.array_equal(lin.wmap["all"], hlin.wmap["all"])
    assert (lin.family, hlin.family) == (kl.KREIN, hl.HILBERT)


def test_krein_linearisation_zero_kernel():
    b = scalar_bundle(("x1", "x2"))
    k = kn.zero_kernel(b)
    p = kn.single_partition(b)
    lin = kl.krein_linearisation(k, p, TOL)
    assert lin.spaces["all"].dim == 0
    _, records = kl.rk_krein_space(lin, TOL)
    assert all(r.passed for r in records)


def test_rk_krein_space_records_pass():
    rng = np.random.Generator(np.random.Philox(53))
    for _ in range(10):
        k, p = random_hermitian_instance(rng)
        lin = kl.krein_linearisation(k, p, TOL)
        view, records = kl.rk_krein_space(lin, TOL)
        assert records
        for rec in records:
            assert rec.passed, (rec.name, rec.residual)


def test_rk_krein_member_and_column():
    k = swap_gram_kernel()
    p = kn.single_partition(k.bundle)
    lin = kl.krein_linearisation(k, p, TOL)
    view, _ = kl.rk_krein_space(lin, TOL)
    col = view.kernel_column("x1", np.array([1.0]))
    # column section at y is K(y, x1) h
    assert np.allclose(col.at("x1"), k.block("x1", "x1") @ np.array([1.0]))
    assert np.allclose(col.at("x2"), k.block("x2", "x1") @ np.array([1.0]))


def test_uniqueness_report_frozen():
    k = swap_gram_kernel()
    p = kn.single_partition(k.bundle)
    l = kl.canonical_dominant(k, p, TOL)
    recs = kl.uniqueness_report(k, l, p, TOL)
    assert len(recs) == 1
    r = recs[0]
    assert r.passed
    assert r.witness["gap_neg"] == pytest.approx(1.0, abs=1e-9)
    assert r.witness["gap_pos"] == pytest.approx(1.0, abs=1e-9)
    assert r.witness["eps"] == pytest.approx(1.0, abs=1e-9)
    assert "collapse" in r.witness["note"]

    kp = circulant_kernel(2.0, 1.0)
    recs2 = kl.uniqueness_report(kp, kp, p, TOL)
    w = recs2[0].witness
    assert w["gap_neg"] is None and w["gap_pos"] == pytest.approx(1.0, abs=1e-9)

    half = kn.kernel_lincomb([0.5], [kp])
    recs3 = kl.uniqueness_report(half, kp, p, TOL)
    w3 = recs3[0].witness
    assert w3["gap_neg"] is None and w3["gap_pos"] == pytest.approx(0.5, abs=1e-9)
    assert w3["eps"] == pytest.approx(0.5, abs=1e-9)


def test_j_unitary_equivalence_routes():
    rng = np.random.Generator(np.random.Philox(57))
    for _ in range(10):
        k, p = random_hermitian_instance(rng)
        direct = kl.krein_linearisation(k, p, TOL)
        dom = kl.krein_linearisation(k, p, TOL, dominant=kl.canonical_dominant(k, p, TOL))
        res = kl.j_unitary_equivalence(direct, dom, TOL)
        assert res.ok, [r.residual for r in res.records]
        # the map is J-unitary for the part's symmetry
        for label, u in res.maps.items():
            j = np.diag(direct.spaces[label].jdiag)
            assert frob(u.conj().T @ j @ u - j) <= 1e-8 * max(1.0, opnorm(u) ** 2)


def test_j_unitary_equivalence_signature_mismatch():
    p1 = kn.single_partition(swap_gram_kernel().bundle)
    lin_swap = kl.krein_linearisation(swap_gram_kernel(), p1, TOL)
    lin_psd = kl.krein_linearisation(circulant_kernel(2.0, 1.0), p1, TOL)
    with pytest.raises(RankMismatch):
        kl.j_unitary_equivalence(lin_swap, lin_psd, TOL)


def test_invariant_krein_representation_swap_frozen():
    sg, act = z2_swap()
    k = swap_gram_kernel()
    p = kn.partition_from_action(k.bundle, act)
    lin, rep = kl.invariant_krein_representation(k, act, p, TOL)
    psi_g = rep.psi["g"]
    j = np.diag(lin.spaces["s"].jdiag)
    # J-unitary: psi* J psi = J, and an involution
    assert frob(psi_g.conj().T @ j @ psi_g - j) <= 1e-10
    assert frob(psi_g @ psi_g - np.eye(2)) <= 1e-10
    for rec in rep.records:
        assert rec.passed, rec.name


def test_invariant_krein_representation_psd_matches_hilbert():
    sg, act = z2_swap()
    k = circulant_kernel(2.0, 1.0)
    p = kn.partition_from_action(k.bundle, act)
    lin, rep = kl.invariant_krein_representation(k, act, p, TOL)
    assert lin.spaces["s"].signature == (2, 0)
    hrep = hl.invariant_representation(k, act, p, TOL)
    assert np.allclose(rep.psi["g"], hrep.psi["g"], atol=1e-10)


def test_invariant_krein_representation_rejects_noninvariant():
    from helpers import scalar_kernel

    sg, act = z2_swap()
    k = scalar_kernel(("x1", "x2"), {("x1", "x1"): 1.0, ("x2", "x2"): 2.0})
    p = kn.partition_from_action(k.bundle, act)
    with pytest.raises(NotInvariant):
        kl.invariant_krein_representation(k, act, p, TOL)


def test_representation_laws_on_generated_hermitian_instances():
    from kgl import generators

    for family in ("pair_groupoid", "partial_bijections", "group_action"):
        sg, act, bundle, k = generators.generate_instance(
            family, seed=13, mode="hermitian_invariant")
        p = kn.partition_from_action(bundle, act)
        lin, rep = kl.invariant_krein_representation(k, act, p, TOL)
        for rec in rep.records:
            assert rec.passed, (family, rec.name, rec.residual)


def test_reducibility_z2_identity_dominant_frozen():
    sg, act = z2_swap()
    k = swap_gram_kernel()
    p = kn.partition_from_action(k.bundle, act)
    l = kn.identity_kernel(k.bundle)  # invariant dominant for the swap kernel
    lin, rep = kl.invariant_krein_representation(k, act, p, TOL, dominant=l)
    assert lin.provenance == "dominant"
    recs = kl.fundamental_reducibility_check(rep, TOL)
    assert recs
    for rec in recs:
        assert rec.passed
        assert rec.residual <= 1e-10


def test_reducibility_not_applicable_cases():
    from helpers import scalar_kernel

    sg, act = z2_swap()
    k = swap_gram_kernel()
    p = kn.partition_from_action(k.bundle, act)

    # direct route: nothing to check
    lin, rep = kl.invariant_krein_representation(k, act, p, TOL)
    recs = kl.fundamental_reducibility_check(rep, TOL)
    assert len(recs) == 1
    assert recs[0].passed and "not applicable" in recs[0].name

    # dominant exists but is not invariant
    l_bad = scalar_kernel(("x1", "x2"), {("x1", "x1"): 1.0, ("x2", "x2"): 4.0})
    lin2, rep2 = kl.invariant_krein_representation(k, act, p, TOL, dominant=l_bad)
    recs2 = kl.fundamental_reducibility_check(rep2, TOL)
    assert len(recs2) == 1
    assert recs2[0].passed and "not invariant" in recs2[0].name
    assert recs2[0].witness["invariance_witness"] is not None


def test_dominant_route_representation_on_generated_pairs():
    from kgl import generators

    for family, seed in (("pair_groupoid", 3), ("partial_bijections", 4),
                         ("group_as_groupoid", 5)):
        sg, act, bundle, _ = generators.generate_instance(
            family, seed=seed, mode="hermitian_invariant")
        k, l = generators.invariant_dominant_pair(act, bundle, seed=seed, tol=TOL)
        p = kn.partition_from_action(bundle, act)
        lin, rep = kl.invariant_krein_representation(k, act, p, TOL, dominant=l)
        for rec in rep.records:
            assert rec.passed, (family, rec.name, rec.residual)
        recs = kl.fundamental_reducibility_check(rep, TOL)
        for rec in recs:
            assert rec.passed, (family, rec.name, rec.residual)


@pytest.mark.parametrize("family", ["pair_groupoid", "group_action", "partial_bijections",
                                    "group_as_groupoid"])
def test_hilbert_is_the_definite_case_of_krein(family):
    from kgl import generators

    parts = 0
    for seed in range(6):
        sg, act, bundle, k = generators.generate_instance(family, seed=seed)
        p = kn.partition_from_action(bundle, act)
        lin, krep = kl.invariant_krein_representation(k, act, p, TOL)
        hrep = hl.invariant_representation(k, act, p, TOL)
        for label, space in lin.spaces.items():
            assert space.signature == (hrep.lin.spaces[label].dim, 0)
            assert hrep.lin.spaces[label].jdiag == space.jdiag
            assert np.array_equal(hrep.lin.wmap[label], lin.wmap[label])
            parts += 1
        for a in sg.elements:
            assert np.array_equal(hrep.psi[a], krep.psi[a])
        laws = hrep.records[:3]
        assert [r.residual for r in laws] == [r.residual for r in krep.records]
        assert [r.tolerance for r in laws] == [r.tolerance for r in krep.records]
    assert parts >= 6


def test_canonical_dominant_carries_the_spectra_of_its_part_grams():
    # gram_operator reads the dominant's factors from the spectra it carries;
    # the same Gram matrices decomposed afresh give the same data to rounding
    rng = np.random.Generator(np.random.Philox(58))
    for _ in range(5):
        k, p = random_hermitian_instance(rng, n_points=4)
        l = kl.canonical_dominant(k, p, TOL)
        carried = kn.part_spectra(l, p, TOL)
        fresh_l = kn.kernel_from_part_grams(p, kn.conv_blocks(l, p))
        for label, s in carried.items():
            fresh = kn.part_spectra(fresh_l, p, TOL)[label]
            assert s is not fresh
            assert np.allclose(s.eigenvalues, fresh.eigenvalues, atol=1e-12 * fresh.norm)
        data = kl.gram_operator(k, l, p, TOL)
        again = kl.gram_operator(k, fresh_l, p, TOL)
        for label in p.parts:
            assert data.dominant_rank[label] == again.dominant_rank[label]
            assert np.allclose(np.sort(np.linalg.eigvalsh(data.ghat[label])),
                               np.sort(np.linalg.eigvalsh(again.ghat[label])), atol=1e-8)
            assert data.contraction[label] == pytest.approx(again.contraction[label], abs=1e-8)


def test_direct_linearisation_reads_its_pseudo_inverses_from_its_spectra():
    rng = np.random.Generator(np.random.Philox(59))
    k, p = random_hermitian_instance(rng, n_points=4)
    lin = kl.krein_linearisation(k, p, TOL)
    dom = kl.krein_linearisation(k, p, TOL, dominant=kl.canonical_dominant(k, p, TOL))
    for label, w in lin.wmap.items():
        assert lin.pinv(label, TOL) is lin.spectra[label].factor_pinv
        assert np.allclose(lin.pinv(label, TOL), np.linalg.pinv(w), atol=1e-10)
        assert lin.norm(label) == pytest.approx(opnorm(w), rel=1e-12)
        assert dom.spectra is None
        assert np.allclose(dom.pinv(label, TOL), np.linalg.pinv(dom.wmap[label]), atol=1e-10)
    # a map replaced after construction has no spectrum: its pseudo-inverse is an SVD's
    label = next(iter(lin.wmap))
    r = lin.spaces[label].dim
    q = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))[0]
    moved = dataclasses.replace(lin, wmap={label: q @ lin.wmap[label]})
    assert np.allclose(moved.pinv(label, TOL), lin.pinv(label, TOL) @ q.conj().T, atol=1e-10)
    assert moved.norm(label) == pytest.approx(lin.norm(label), rel=1e-12)


def _reproducing_residual_loop(lin, label, f):
    """The reproducing residual of one member, coordinate by coordinate: the
    reference of verify_reproducing's vectorised residual."""
    idx, dims = lin.partition.index(label), lin.partition.bundle.dim
    sec = kl.RkKreinView(lin).member(label, f)
    jdiag = np.asarray(lin.spaces[label].jdiag, dtype=np.float64)
    resid = 0.0
    for x in idx.part:
        for i in range(dims[x]):
            h = np.zeros(dims[x], dtype=np.complex128)
            h[i] = 1.0
            lhs = complex(np.vdot(h, sec.at(x)))
            rhs = complex(np.vdot(lin.features[x] @ h, jdiag * f))
            resid = max(resid, abs(lhs - rhs))
    return resid


def test_reproducing_residual_matches_the_coordinate_loop():
    # the sums run in another order, so the residuals agree to rounding; a
    # feature map that disagrees with W shows in both
    rng = np.random.Generator(np.random.Philox(60))
    for broken in (False, True):
        k, p = random_hermitian_instance(rng, n_points=4)
        lin = kl.krein_linearisation(k, p, TOL)
        if broken:
            x = next(iter(lin.features))
            lin.features = dict(lin.features, **{x: 2.0 * lin.features[x]})
        trials = np.random.Generator(np.random.Philox(67890))
        m = lin.spaces["all"].dim
        fs = [trials.standard_normal(m) + 1j * trials.standard_normal(m) for _ in range(3)]
        expected = max(_reproducing_residual_loop(lin, "all", f) for f in fs)
        record = kl.verify_reproducing(kl.RkKreinView(lin), TOL)[1]
        scale = max(1.0, frob(lin.gram["all"]))
        assert abs(record.residual - expected) <= 1e-13 * scale
        assert record.passed != broken


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_gram_operator_guards_do_not_depend_on_the_scale(c):
    # K = c I on one point of fiber 2 has rank 2; L = c diag(1, 0) has a form
    # kernel on which K's form does not vanish, so L does not dominate K at any c
    b = HilbertBundle(points=("x",), dim={"x": 2})
    p = kn.single_partition(b)
    k = kn.OpKernel(b, {("x", "x"): c * np.eye(2)})
    l = kn.OpKernel(b, {("x", "x"): c * np.diag([1.0, 0.0])})
    with pytest.raises(KernelNotDominated):
        kl.gram_operator(k, l, p, TOL)
    with pytest.raises(KernelNotDominated):
        kl.krein_linearisation(k, p, TOL, dominant=l)
    # a dominant that does dominate passes at every c
    l2 = kn.OpKernel(b, {("x", "x"): 2 * c * np.eye(2)})
    data = kl.gram_operator(k, l2, p, TOL)
    assert data.dominant_rank["all"] == 2 and abs(data.contraction["all"] - 0.5) < 1e-12


def test_represented_shifts_are_a_read_only_mapping_rebuilt_on_access():
    k = circulant_kernel(2.0, 1.0)
    sg, act = z2_swap()
    rep = hl.invariant_representation(k, act, kn.partition_from_action(k.bundle, act), TOL)
    assert isinstance(rep.psi, kl.RepresentedShifts)
    assert list(rep.psi) == list(sg.elements) and len(rep.psi) == 2
    first = rep.psi["g"]
    assert first is not rep.psi["g"] and np.array_equal(first, rep.psi["g"])
    with pytest.raises(TypeError):
        rep.psi["g"] = first
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    with pytest.raises(KeyError):
        rep.psi["h"]
    assert abs(opnorm(first) - rep.norms["g"]) < 1e-12


def test_the_representation_needs_a_star_that_is_an_involution():
    from helpers import z2_group
    from kgl.errors import InvalidSemigroupoid
    from kgl.sgpd import LeftAction
    sg, act = z2_swap()
    bad = dataclasses.replace(z2_group(), star={"e": "e", "g": "e"})
    bad_act = LeftAction(bad, act.base, act.anchor, act.act)
    k = circulant_kernel(2.0, 1.0)
    lin = kl.krein_linearisation(k, kn.partition_from_action(k.bundle, bad_act), TOL)
    with pytest.raises(InvalidSemigroupoid, match="star of 'g' is not an involution"):
        kl.represent(lin, bad_act, TOL)


def _old_readings(k, p, lin, label):
    """The split's rank sum, split residual, member residual, factorization
    residual and minimality span of a part, each computed directly: the
    spectrum of G+ + G-, the split kernels' difference, W*J W_x per point
    with a dense J, and the SVD of W."""
    s = kn.part_spectra(k, p, TOL)[label]
    w, u, g, idx = s.eigenvalues, s.basis, lin.gram[label], p.index(label)
    g_plus = (u * np.clip(w, 0.0, None)) @ u.conj().T
    g_minus = (u * np.clip(-w, 0.0, None)) @ u.conj().T
    wj = lin.wmap[label].conj().T @ np.diag(lin.spaces[label].jdiag)
    sv = np.linalg.svd(lin.wmap[label], compute_uv=False)
    return (numlin.spectrum(g_plus + g_minus, TOL).rank,
            frob(g - (g_plus - g_minus)),
            max(frob(wj @ lin.features[x] - g[:, idx.slice_of(x)]) for x in idx.part),
            frob(wj @ lin.wmap[label] - g),
            int(np.count_nonzero(sv > TOL.rank_rel * sv[0])) if sv.size else 0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", ("psd_invariant", "hermitian_invariant", "arbitrary"))
def test_spectrum_readings_match_the_direct_computations(family, mode):
    # the split and view records read from the part spectrum and one
    # E = W*JW - G per part give the ranks, spans and verdicts of the direct
    # computations, with residuals equal to rounding
    for seed in (1, 2):
        _, act, bundle, k = generators.generate_instance(family, seed=seed, mode=mode)
        p = kn.partition_from_action(bundle, act)
        lin = kl.krein_linearisation(k, p, TOL)
        n = len(p.parts)
        split = kl.split_records(k, p, TOL)
        view = kl.rk_krein_space(lin, TOL)[1]
        for i, label in enumerate(p.parts):
            rank_sum, split_resid, member, factor, span = _old_readings(k, p, lin, label)
            scale = max(1.0, frob(lin.gram[label]))
            recon, ranks = split[2 * i], split[2 * i + 1]
            assert ranks.witness["rank_sum"] == rank_sum and ranks.passed
            for record, old in ((recon, split_resid), (view[2 * i], member),
                                (view[2 * n + 2 * i], factor)):
                assert abs(record.residual - old) <= 1e-13 * scale, (label, record.name)
                assert record.passed == (old <= record.tolerance)
            minimality = view[2 * n + 2 * i + 1]
            assert minimality.residual == abs(span - lin.spaces[label].dim)
            assert minimality.passed


def test_a_corrupted_map_fails_minimality_factorization_and_members():
    # a W put into lin.wmap is no longer its spectrum's map: its span is an SVD's
    k, p = random_hermitian_instance(np.random.Generator(np.random.Philox(67)), n_points=4)
    lin = kl.krein_linearisation(k, p, TOL)
    w = lin.wmap["all"].copy()
    w[1] = w[0]  # one rank short of the space's dimension
    lin.wmap["all"] = w
    assert lin.sigma_min("all") <= 1e-12 * lin.norm("all")
    records = {r.name: r for r in kl.rk_krein_space(lin, TOL)[1]}
    factorization, minimality, members = (records[kl.KREIN[c][0]]
                                          for c in ("factorization", "minimality", "members"))
    assert not factorization.passed
    assert minimality.residual == 1.0 and not minimality.passed
    # the member residual is the largest per-point residual W*J W_x - G[:, x]
    g, idx = lin.gram["all"], p.index("all")
    wj = w.conj().T @ np.diag(lin.spaces["all"].jdiag)
    per_point = [frob(wj @ w[:, idx.slice_of(x)] - g[:, idx.slice_of(x)]) for x in idx.part]
    assert int(np.argmax(per_point)) > 0
    assert members.residual == pytest.approx(max(per_point), rel=1e-12)
    assert not members.passed
