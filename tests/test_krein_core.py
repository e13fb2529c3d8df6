import numpy as np
import pytest

from kgl import krein_core as kc
from kgl import numlin
from kgl.errors import PairingViolated, ShapeMismatch
from kgl.numlin import DEFAULT_TOL as TOL, frob

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
J11 = kc.krein_space((1, -1))


def test_krein_space_construction():
    assert J11.dim == 2
    assert J11.signature == (1, 1)
    assert J11.jdiag == (1, -1)
    h = kc.hilbert_space(3)
    assert h.signature == (3, 0)
    with pytest.raises(ValueError):
        kc.krein_space((1, 2))
    # diagonal matrix input accepted, non-diagonal rejected
    assert kc.krein_space(np.diag([1.0, -1.0])).signature == (1, 1)
    with pytest.raises(ValueError):
        kc.krein_space(SWAP)


def test_pairing():
    u = np.array([1.0, 2.0])
    v = np.array([1.0, 1.0])
    # [u, v] = <Ju, v>
    assert J11.pairing(u, v) == pytest.approx(1.0 - 2.0)
    assert J11.pairing(u, u) == pytest.approx(1.0 - 4.0)
    with pytest.raises(ShapeMismatch):
        J11.pairing(u, np.array([1.0]))


def test_krein_adjoint_frozen():
    t = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    h2 = kc.hilbert_space(2)
    assert np.allclose(kc.krein_adjoint(t, h2, h2), t.conj().T)

    j = np.diag(J11.jdiag)
    assert np.allclose(kc.krein_adjoint(j, J11, J11), j)

    # worked 2x2 product: J swap J = -swap
    assert np.allclose(kc.krein_adjoint(SWAP, J11, J11),
                       np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_krein_adjoint_antimultiplicative_involutive():
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(10):
        n, m, k = (int(x) for x in rng.integers(1, 5, size=3))
        ja = kc.krein_space(tuple(rng.choice([1, -1], size=n)))
        jb = kc.krein_space(tuple(rng.choice([1, -1], size=m)))
        jc = kc.krein_space(tuple(rng.choice([1, -1], size=k)))
        t = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))  # A -> B
        s = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))  # B -> C
        lhs = kc.krein_adjoint(s @ t, ja, jc)
        rhs = kc.krein_adjoint(t, ja, jb) @ kc.krein_adjoint(s, jb, jc)
        assert frob(lhs - rhs) <= 1e-12
        assert frob(kc.krein_adjoint(kc.krein_adjoint(t, ja, jb), jb, ja) - t) <= 1e-12


def test_induced_krein_frozen():
    ik = kc.induced_krein(np.diag([1.0, -1.0]).astype(complex), TOL)
    assert ik.space.signature == (1, 1)
    assert np.allclose(ik.pi, np.eye(2), atol=1e-12)

    ik2 = kc.induced_krein(SWAP, TOL)
    assert ik2.space.signature == (1, 1)
    recon = ik2.pi.conj().T @ (np.diag(ik2.space.jdiag) @ ik2.pi)
    assert frob(recon - SWAP) <= 1e-12

    ik0 = kc.induced_krein(np.zeros((2, 2), dtype=complex), TOL)
    assert ik0.space.dim == 0
    assert ik0.pi.shape == (0, 2)


def test_induced_krein_reconstructs_random():
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (m + m.conj().T) / 2
        ik = kc.induced_krein(a, TOL)
        recon = ik.pi.conj().T @ (np.diag(ik.space.jdiag) @ ik.pi)
        assert frob(recon - a) <= 1e-10 * max(1.0, frob(a))
        p, q = ik.space.signature
        assert p + q == ik.space.dim <= n


def test_lift_operator_frozen():
    a = np.diag([1.0, -1.0]).astype(complex)
    t = SWAP.copy()
    s = -SWAP.copy()
    # BT = S*A holds: both sides are [[0,1],[-1,0]]
    lifted = kc.lift_operator(a, a, t, s, TOL)
    assert [r.passed for r in lifted.records] == [True, True, True]
    assert np.allclose(lifted.t_lift, t, atol=1e-12)
    assert np.allclose(lifted.s_lift, s, atol=1e-12)
    t_l, s_l = lifted
    assert np.allclose(t_l, t)

    z = np.zeros((2, 2), dtype=complex)
    lifted0 = kc.lift_operator(a, a, z, z, TOL)
    assert all(r.passed for r in lifted0.records)
    assert frob(lifted0.t_lift) <= 1e-12


def test_lift_operator_invertible_case():
    rng = np.random.Generator(np.random.Philox(29))
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = m + m.conj().T + 0.1 * np.eye(n)  # push away from singular
        if min(abs(np.linalg.eigvalsh(a))) < 1e-3:
            continue
        bm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = bm + bm.conj().T + 0.1 * np.eye(n)
        if min(abs(np.linalg.eigvalsh(b))) < 1e-3:
            continue
        t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = np.linalg.solve(a, t.conj().T @ b)  # S = A^-1 T* B gives BT = S*A
        lifted = kc.lift_operator(a, b, t, s, TOL)
        assert all(r.passed for r in lifted.records)
        ika, ikb = lifted.source, lifted.target
        assert frob(lifted.t_lift @ ika.pi - ikb.pi @ t) <= 1e-8 * max(1.0, frob(t))
        # the lifted pair are adjoints of each other in the induced pairings
        adj = kc.krein_adjoint(lifted.t_lift, ika.space, ikb.space)
        assert frob(adj - lifted.s_lift) <= 1e-8 * max(1.0, frob(lifted.s_lift))


def test_lift_operator_rejects_incompatible_pair():
    a = np.diag([1.0, -1.0]).astype(complex)
    t = SWAP.copy()
    s = SWAP.copy()  # wrong sign: BT != S*A
    lifted = kc.lift_operator(a, a, t, s, TOL)
    [compat] = lifted.records  # no lift is made, so no further record
    assert compat.name == "compatibility identity holds" and not compat.passed
    assert compat.residual > compat.tolerance
    assert lifted.t_lift is None and lifted.s_lift is None
    with pytest.raises(PairingViolated, match="compatibility identity holds"):
        t_l, s_l = lifted


def _gaps_unique_of(a):
    return kc.gaps_unique(*numlin.spectrum(a, TOL).gaps)


def test_gap_uniqueness_frozen():
    unique, gn, gp = _gaps_unique_of(np.diag([1.0, -1.0]).astype(complex))
    assert unique and gn == pytest.approx(1.0) and gp == pytest.approx(1.0)

    unique0, gn0, gp0 = _gaps_unique_of(np.zeros((2, 2), dtype=complex))
    assert unique0
    assert gn0 is None and gp0 is None

    rng = np.random.Generator(np.random.Philox(37))
    for _ in range(15):
        n = int(rng.integers(1, 6))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        unique, _, _ = _gaps_unique_of((m + m.conj().T) / 2)
        assert unique  # finite spectrum always leaves a gap at zero
