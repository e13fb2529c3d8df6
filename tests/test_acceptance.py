"""Desk-scale acceptance checks, one test per headline guarantee.

Each test sweeps a seeded corpus (a few hundred random kernels, or a
hundred generated invariant instances) and asserts the advertised residual
bounds. Every test prints a single summary line with the observed worst
residuals; run pytest with -s to see them, or read the verbose test list
for the per-criterion pass/fail verdicts.

Corpus scale stays small on purpose: at most a few dozen base points,
fiber dimensions below eight, structure sizes below a hundred elements.
"""

import time
from functools import lru_cache

import numpy as np

from kgl import (
    HilbertBundle,
    RkKreinView,
    canonical_dominant,
    classify,
    conv_blocks,
    fundamental_reducibility_check,
    invariant_krein_representation,
    invariant_representation,
    is_invariant,
    j_unitary_equivalence,
    jordan_split,
    krein_adjoint,
    krein_linearisation,
    lift_operator,
    minimal_linearisation,
    partial_isometry_report,
    partition_from_action,
    partition_from_anchor,
    rk_krein_space,
    uniqueness_report,
)
import kgl.generators as generators
import kgl.numlin as numlin
import kgl.sgpd as sgpd
from kgl.krein_lin import verify_reproducing
from kgl.numlin import DEFAULT_TOL, frob, opnorm

RESID = 1e-8
SHIFT_CONST_REL = 1e-6
SPLIT_RESID = 1e-12  # exact up to eigendecomposition rounding

FAMILIES = ("pair_groupoid", "group_action", "partial_bijections", "group_as_groupoid")


def _random_setup(seed):
    """Random bundle and anchor partition at desk scale."""
    rng = np.random.Generator(np.random.Philox(seed))
    npoints = int(rng.integers(2, 7))
    points = tuple(f"x{j}" for j in range(npoints))
    dims = {x: int(rng.integers(1, 5)) for x in points}
    bundle = HilbertBundle(points=points, dim=dims)
    nparts = int(rng.integers(1, 4))
    anchor = {x: f"s{int(rng.integers(0, nparts))}" for x in points}
    assert len(points) <= 30 and max(dims.values()) <= 8
    return bundle, partition_from_anchor(bundle, anchor)


@lru_cache(maxsize=None)
def _psd_corpus():
    return tuple(
        (generators.random_psd_kernel(*_random_setup(1000 + s), 2000 + s), _random_setup(1000 + s)[1])
        for s in range(200)
    )


@lru_cache(maxsize=None)
def _hermitian_corpus():
    return tuple(
        (generators.random_hermitian_kernel(*_random_setup(5000 + s), 6000 + s), _random_setup(5000 + s)[1])
        for s in range(200)
    )


@lru_cache(maxsize=None)
def _invariant_psd_instances():
    out = []
    for i in range(100):
        fam = FAMILIES[i % 4]
        sg, act, bundle, k = generators.generate_instance(fam, seed=i, mode="psd_invariant")
        assert len(sg.elements) <= 100 and max(bundle.dim.values()) <= 8
        p = partition_from_action(bundle, act)
        rep = invariant_representation(k, act, p)
        out.append((sg, act, k, p, rep, classify(sg)))
    return tuple(out)


def test_01_psd_factorization_reconstructs_kernel():
    start = time.monotonic()
    worst = 0.0
    for k, p in _psd_corpus():
        lin = minimal_linearisation(k, p)
        grams = conv_blocks(k, p)
        for label, idx in p.parts.items():
            rank = numlin.spectrum(grams[label], DEFAULT_TOL).rank
            assert lin.wmap[label].shape[0] == rank == lin.spaces[label].dim
            scale = max(1.0, frob(grams[label]))
            for x in idx.part:
                for y in idx.part:
                    r = frob(lin.features[x].conj().T @ lin.features[y] - k.block(x, y))
                    worst = max(worst, r / scale)
    elapsed = time.monotonic() - start
    assert worst <= RESID
    assert elapsed <= 60.0
    print(f"PASS 01 factorization reconstructs 200 kernels: "
          f"worst scaled residual {worst:.2e}, ranks exact, {elapsed:.1f}s")


def test_02_reproducing_kernel_space_identities():
    worst = 0.0
    for k, p in _psd_corpus():
        lin = minimal_linearisation(k, p)
        scales = {label: max(1.0, frob(g)) for label, g in lin.gram.items()}
        for r in verify_reproducing(RkKreinView(lin)):
            assert r.passed, r.name
            if r.witness in scales and "span" not in r.name:
                worst = max(worst, r.residual / scales[r.witness])
    assert worst <= RESID
    print(f"PASS 02 reproducing identities on 200 kernels: worst scaled residual {worst:.2e}")


def test_03_factorizations_unitarily_equivalent_across_routes():
    worst = 0.0
    for k, p in _psd_corpus():
        lin_a = minimal_linearisation(k, p)
        lin_b = krein_linearisation(k, p, dominant=canonical_dominant(k, p))
        eq = j_unitary_equivalence(lin_a, lin_b)
        scales = {label: max(1.0, frob(g)) for label, g in lin_a.gram.items()}
        for r in eq.records:
            assert r.passed, r.name
            worst = max(worst, r.residual / scales[r.witness])
    assert worst <= RESID
    print(f"PASS 03 direct and dominant routes unitarily equivalent: "
          f"worst scaled residual {worst:.2e}")


def test_04_invariant_hilbert_representation_laws():
    worst = 0.0
    worst_bs = 0.0
    for sg, act, k, p, rep, _cls in _invariant_psd_instances():
        for r in rep.records:
            assert r.passed, r.name
        phi = rep.psi
        for (a, b), ab in sg.compose.items():
            worst = max(worst, frob(phi[ab] - phi[a] @ phi[b]))
        for a in sg.elements:
            worst = max(worst, frob(phi[sg.star[a]] - phi[a].conj().T))
            for x in p.index(sg.d[a]).part:
                worst = max(worst, frob(phi[a] @ rep.lin.features[x]
                                        - rep.lin.features[act.apply(a, x)]))
            m = rep.shift_constants[a]
            assert m is not None
            worst_bs = max(worst_bs, abs(m - opnorm(phi[a]) ** 2) / max(1.0, m))
    assert worst <= RESID
    assert worst_bs <= SHIFT_CONST_REL
    print(f"PASS 04 representation laws on 100 invariant instances: "
          f"worst law residual {worst:.2e}, shift-constant mismatch {worst_bs:.2e}")


def test_05_inverse_instances_represent_by_partial_isometries():
    worst = 0.0
    covered = 0
    for _sg, _act, _k, _p, rep, cls in _invariant_psd_instances():
        if not (cls.is_inverse and cls.star_matches_inverse):
            continue
        covered += 1
        for r in partial_isometry_report(rep, cls):
            assert r.passed and r.witness[1] == "required"
        for m in rep.psi.values():
            worst = max(worst, frob(m @ m.conj().T @ m - m))
    assert covered == len(_invariant_psd_instances())
    assert worst <= RESID
    print(f"PASS 05 partial isometries on {covered} inverse instances: worst residual {worst:.2e}")


def test_06_hermitian_split_and_indefinite_factorization():
    worst_split = 0.0
    worst_fact = 0.0
    for k, p in _hermitian_corpus():
        kp, km, cert = jordan_split(k, p)
        gk = conv_blocks(k, p)
        gp = conv_blocks(kp, p)
        gm = conv_blocks(km, p)
        for label in p.parts:
            scale = max(1.0, frob(gk[label]))
            worst_split = max(worst_split, frob(gp[label] - gm[label] - gk[label]) / scale)
            assert cert[label]["disjoint"]
            assert cert[label]["rank_plus"] + cert[label]["rank_minus"] == cert[label]["rank_sum"]
        lin = krein_linearisation(k, p)
        for label, idx in p.parts.items():
            scale = max(1.0, frob(gk[label]))
            j = np.diag(lin.spaces[label].jdiag)
            for x in idx.part:
                for y in idx.part:
                    r = frob(lin.features[x].conj().T @ j @ lin.features[y] - k.block(x, y))
                    worst_fact = max(worst_fact, r / scale)
        _view, records = rk_krein_space(lin)
        for r in records:
            assert r.passed, r.name
    assert worst_split <= SPLIT_RESID
    assert worst_fact <= RESID
    print(f"PASS 06 split + indefinite factorization on 200 kernels: "
          f"split residual {worst_split:.2e}, factorization residual {worst_fact:.2e}")


def test_07_operator_lifts_factor_through_canonical_maps():
    worst = 0.0
    for seed in range(100):
        n = 2 + seed % 5
        m = 2 + (seed // 5) % 5
        a, b, t, s = generators.random_lift_quadruple(n, m, seed)
        pair = lift_operator(a, b, t, s)
        assert all(r.passed for r in pair.records), seed
        t_lift, s_lift = pair
        r1 = frob(t_lift @ pair.source.pi - pair.target.pi @ t)
        r2 = frob(krein_adjoint(t_lift, pair.source.space, pair.target.space) - s_lift)
        worst = max(worst, r1, r2)
    assert worst <= RESID
    print(f"PASS 07 lifts on 100 quadruples: worst factoring/adjoint residual {worst:.2e}")


def test_08_invariant_krein_representation_laws():
    worst = 0.0
    for i in range(100):
        fam = FAMILIES[i % 4]
        sg, act, bundle, k = generators.generate_instance(fam, seed=i, mode="hermitian_invariant")
        p = partition_from_action(bundle, act)
        lin, rep = invariant_krein_representation(k, act, p)
        for r in rep.records:
            assert r.passed, (fam, i, r.name)
            worst = max(worst, r.residual)
    assert worst <= RESID
    print(f"PASS 08 indefinite representation laws on 100 instances: worst residual {worst:.2e}")


def test_09_invariant_dominants_give_reducing_symmetries():
    worst = 0.0
    checked = 0
    for i in range(100):
        fam = FAMILIES[i % 4]
        sg, act = sgpd.generate(fam, i)
        rng = generators.rng_for(i)
        dim = int(rng.integers(1, 4))
        bundle = HilbertBundle(points=act.base, dim={x: dim for x in act.base})
        k, l = generators.invariant_dominant_pair(act, bundle, i)
        p = partition_from_action(bundle, act)
        ok, _ = is_invariant(l, act)
        assert ok  # the dominant must be verified invariant before the law applies
        _lin, rep = invariant_krein_representation(k, act, p, dominant=l)
        records = fundamental_reducibility_check(rep)
        for r in records:
            assert r.name.startswith("represented shift commutes"), r.name
            assert r.passed
            worst = max(worst, r.residual)
        checked += 1
    assert checked == 100
    assert worst <= RESID
    print(f"PASS 09 symmetry commutators on {checked} dominant-route instances: "
          f"worst residual {worst:.2e}")


def test_10_induced_space_uniqueness_always_decided():
    for k, p in _hermitian_corpus():
        for r in uniqueness_report(k, canonical_dominant(k, p), p):
            assert r.passed
            w = r.witness
            assert w["eps"] > 0
            for gap in (w["gap_neg"], w["gap_pos"]):
                assert gap is None or gap > 0
            assert "unreachable in finite dimensions" in w["note"]
    print("PASS 10 uniqueness decided positively on all 200 instances, "
          "with positive spectral gaps and the finite-dimension collapse note")
