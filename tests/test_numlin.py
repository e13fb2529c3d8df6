import numpy as np
import pytest

from kgl import numlin
from kgl.errors import NonFinite, NotHermitian
from kgl.numlin import DEFAULT_TOL as TOL

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
IRT2 = 1.0 / np.sqrt(2.0)


def test_tolerances_frozen():
    assert TOL.atol == 1e-9
    assert TOL.rank_rel == 1e-10
    with pytest.raises(Exception):
        TOL.atol = 1.0
    with pytest.raises(ValueError):
        numlin.Tolerances(atol=-1.0)
    for rank_rel in (0.0, 1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            numlin.Tolerances(rank_rel=rank_rel)


def test_herm_eig_swap_frozen():
    # eigenpairs of [[0,1],[1,0]] worked out from the characteristic polynomial
    w, u = numlin.herm_eig(SWAP, TOL)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    expected = np.array([[IRT2, IRT2], [-IRT2, IRT2]], dtype=complex)
    assert np.allclose(u, expected, atol=1e-14)


def test_herm_eig_identity_and_diagonal():
    w, u = numlin.herm_eig(np.eye(3, dtype=complex), TOL)
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(u, np.eye(3))
    w2, _ = numlin.herm_eig(np.diag([2.0, -3.0]).astype(complex), TOL)
    assert np.allclose(w2, [-3.0, 2.0])


def test_herm_eig_rejects_bad_input():
    with pytest.raises(NotHermitian):
        numlin.herm_eig(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), TOL)
    with pytest.raises(NonFinite):
        numlin.herm_eig(np.array([[np.nan]], dtype=complex), TOL)


def test_hermitian_check_does_not_depend_on_the_scale():
    # the Hermitian residual is compared with atol times the matrix's own norm
    bad = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
    good = np.array([[1.0, 1j], [-1j, 2.0]])
    for c in (1e-150, 1e-12, 1.0, 1e12, 1e150):
        with pytest.raises(NotHermitian):
            numlin.spectrum(c * bad, TOL)
        assert numlin.spectrum(c * good, TOL).rank == 2
    assert numlin.spectrum(np.zeros((2, 2)), TOL).rank == 0


def test_herm_eig_deterministic_under_column_sign_noise():
    # phase canonicalisation: the decomposition of the same matrix is bitwise stable
    rng = np.random.Generator(np.random.Philox(99))
    for _ in range(20):
        n = int(rng.integers(1, 7))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = b + b.conj().T
        w1, u1 = numlin.herm_eig(a, TOL)
        w2, u2 = numlin.herm_eig(a.copy(), TOL)
        assert np.array_equal(u1, u2)
        assert np.array_equal(w1, w2)


def _sign(a):
    """sign(A) = E+ - E-, eigenvalues inside the cutoff sent to 0."""
    e_minus, _, e_plus = numlin.spectral_projections(a, TOL)
    return e_plus - e_minus


def test_herm_abs_frozen_values():
    assert np.allclose(numlin.herm_abs(SWAP, TOL), np.eye(2), atol=1e-14)
    assert np.allclose(_sign(np.diag([5.0, -2.0, 0.0]).astype(complex)),
                       np.diag([1.0, -1.0, 0.0]), atol=1e-14)
    # the PSD square root U_k sqrt(w_k) U_k* from the root factor sqrt(w_k) U_k*
    s = numlin.spectrum(np.diag([4.0, 9.0]).astype(complex), TOL)
    assert np.allclose(s.basis[:, s.retained] @ s.factor, np.diag([2.0, 3.0]), atol=1e-14)


def test_polar_identity_property():
    # sign(A) abs(A) = A on random Hermitian input
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(25):
        n = int(rng.integers(1, 8))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (b + b.conj().T) / 2
        s = _sign(a)
        m = numlin.herm_abs(a, TOL)
        assert numlin.frob(s @ m - a) <= 1e-10 * max(1.0, numlin.frob(a))


def test_spectral_projections_frozen():
    em, ez, ep = numlin.spectral_projections(np.diag([1.0, -1.0]).astype(complex), TOL)
    assert np.allclose(em, np.diag([0.0, 1.0]), atol=1e-14)
    assert np.allclose(ez, np.zeros((2, 2)), atol=1e-14)
    assert np.allclose(ep, np.diag([1.0, 0.0]), atol=1e-14)

    em, ez, ep = numlin.spectral_projections(np.zeros((2, 2), dtype=complex), TOL)
    assert np.allclose(ez, np.eye(2))
    assert np.allclose(em, 0) and np.allclose(ep, 0)

    em, ez, ep = numlin.spectral_projections(SWAP, TOL)
    half = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    halfm = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(ep, half, atol=1e-14)
    assert np.allclose(em, halfm, atol=1e-14)


def test_spectral_projections_resolution_of_identity():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(20):
        n = int(rng.integers(1, 7))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (b + b.conj().T) / 2
        em, ez, ep = numlin.spectral_projections(a, TOL)
        assert numlin.frob(em + ez + ep - np.eye(n)) <= 1e-12
        for e in (em, ez, ep):
            assert numlin.frob(e @ e - e) <= 1e-12


def test_pinv_frozen():
    assert np.allclose(numlin.pinv(np.diag([2.0, 0.0]).astype(complex), TOL),
                       np.diag([0.5, 0.0]), atol=1e-14)
    assert np.allclose(numlin.pinv(np.eye(3, dtype=complex), TOL), np.eye(3))
    # normal equations by hand: pinv of the column (1,1)
    assert np.allclose(numlin.pinv(np.array([[1.0], [1.0]], dtype=complex), TOL),
                       np.array([[0.5, 0.5]]), atol=1e-14)


def test_pinv_penrose_properties():
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        ap = numlin.pinv(a, TOL)
        assert numlin.frob(a @ ap @ a - a) <= 1e-10 * max(1.0, numlin.frob(a))
        assert numlin.frob(ap @ a @ ap - ap) <= 1e-10 * max(1.0, numlin.frob(ap))


def test_rank_psd_gap_frozen():
    ones = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    assert numlin.spectrum(ones, TOL).is_psd          # eigenvalues 0 and 2
    assert not numlin.spectrum(SWAP, TOL).is_psd      # eigenvalues -1 and 1
    assert numlin.spectrum(ones, TOL).rank == 1
    assert numlin.spectrum(SWAP, TOL).rank == 2
    gn, gp = numlin.spectrum(np.diag([3.0, -0.5]).astype(complex), TOL).gaps
    assert gn == pytest.approx(0.5) and gp == pytest.approx(3.0)
    gn, gp = numlin.spectrum(np.diag([2.0, 1.0]).astype(complex), TOL).gaps
    assert gn is None and gp == pytest.approx(1.0)


def test_psd_root_factor():
    ones = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    s = numlin.spectrum(ones, TOL)
    b, r = s.factor, s.rank
    assert s.is_psd and r == 1 and b.shape == (1, 2)
    assert numlin.frob(b.conj().T @ b - ones) <= 1e-12
    assert not numlin.spectrum(SWAP, TOL).is_psd


def test_norms_on_empty():
    empty = np.zeros((0, 3), dtype=complex)
    assert numlin.frob(empty) == 0.0
    assert numlin.opnorm(empty) == 0.0
    assert numlin.pinv(empty, TOL).shape == (3, 0)


def _order_ties_by_sorting(w, u):
    """Loop reference for numlin._order_ties: descending Python tuple order of the columns."""
    def lex_key(k):
        return tuple(v for z in u[:, k] for v in (z.real, z.imag))
    order = np.arange(w.size)
    i = 0
    while i < w.size:
        j = i + 1
        while j < w.size and w[j] == w[i]:
            j += 1
        order[i:j] = sorted(range(i, j), key=lex_key, reverse=True)
        i = j
    return u[:, order]


def test_tie_order_matches_the_sorting_reference():
    rng = np.random.default_rng(7)
    for trial in range(400):
        n = int(rng.integers(1, 8))
        w = np.sort(rng.integers(0, 3, size=n).astype(float))
        # small integer coordinates force long shared prefixes; -0.0 must tie with 0.0
        u = (rng.integers(-1, 2, size=(n, n)) + 1j * rng.integers(-1, 2, size=(n, n)))
        u = u * np.where(rng.random((n, n)) < 0.3, -0.0, 1.0)
        if trial % 5 == 0 and n > 2:
            u[:, 2] = u[:, 1]  # equal columns keep their order, as in a stable sort
        got = numlin._order_ties(w, u)[1]
        want = _order_ties_by_sorting(w, u)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(got, want)


def test_psd_is_a_signature_with_no_negative_direction():
    # one spectral policy: PSD exactly when no eigenvalue lies below minus the cutoff
    rng = np.random.Generator(np.random.Philox(71))
    cases = [np.diag([1.0, -5e-10]).astype(complex)]
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        shift = rng.choice([0.0, 1e-11, 1e-9, 1.0]) * rng.choice([-1.0, 1.0])
        g = m @ m.conj().T if rng.integers(2) else m + m.conj().T
        cases.append(g + shift * np.eye(n) * np.linalg.norm(g, 2))
    verdicts = set()
    for a in cases:
        s = numlin.spectrum(a, TOL)
        assert s.is_psd == (s.signature[1] == 0)
        verdicts.add(s.is_psd)
    assert verdicts == {True, False}
    assert not numlin.spectrum(cases[0], TOL).is_psd


def test_tiny_negative_matrix_is_not_psd():
    # every eigenvalue lies far below minus the cutoff, whatever the matrix's scale
    tiny = np.diag([-1e-10, -1e-10]).astype(complex)
    s = numlin.spectrum(tiny, TOL)
    assert not s.is_psd and s.signature == (0, 2)


def _normalize_phases_loop(u):
    """The column-by-column phase normalization, the oracle of the vectorised one."""
    u = u.copy()
    n = u.shape[0]
    for j in range(u.shape[1]):
        col = u[:, j]
        for i in range(n):
            z = col[i]
            r = abs(z)
            if r > numlin._PHASE_FLOOR:
                u[:, j] = col * (z.conjugate() / r)
                break
    return u


def test_normalize_phases_gives_the_bytes_of_the_column_loop():
    rng = np.random.Generator(np.random.Philox(11))
    for trial in range(60):
        n = int(rng.integers(1, 90))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= 10.0 ** int(rng.integers(-150, 150))
        u = np.linalg.eigh(a + a.conj().T)[1]
        if trial % 3 == 0:
            u[: n // 2] = 1e-13  # pivots below the floor are skipped
        if trial % 5 == 0:
            u[:, 0] = 0.0  # a zero column is left alone
        assert numlin._normalize_phases(u).tobytes() == _normalize_phases_loop(u).tobytes()


def _projector(basis):
    return basis @ basis.conj().T


def test_abs_spectrum_matches_a_fresh_decomposition():
    rng = np.random.Generator(np.random.Philox(12))
    for rank in (7, 4):  # full rank, and a form kernel of dimension 3
        x = rng.standard_normal((7, rank)) + 1j * rng.standard_normal((7, rank))
        g = (x * rng.choice([-1.0, 1.0], rank) * rng.uniform(0.5, 3.0, rank)) @ x.conj().T
        g = 0.5 * (g + g.conj().T)
        derived = numlin.abs_spectrum(numlin.spectrum(g, TOL))
        fresh = numlin.spectrum(numlin.herm_abs(g, TOL), TOL)
        scale = fresh.norm
        assert np.allclose(derived.eigenvalues, fresh.eigenvalues, rtol=0, atol=1e-12 * scale)
        assert np.isclose(derived.cutoff, fresh.cutoff, rtol=1e-12, atol=0)
        assert derived.rank == fresh.rank == rank and derived.is_psd
        # the eigenvectors of the nonzero eigenvalues are unique up to a phase, which is pinned
        keep = derived.retained
        assert np.array_equal(keep, fresh.retained)
        assert np.allclose(derived.basis[:, keep], fresh.basis[:, keep], atol=1e-10)
        assert np.allclose(derived.factor, fresh.factor, atol=1e-10 * np.sqrt(scale))
        assert np.allclose(derived.factor_pinv, fresh.factor_pinv, atol=1e-10 / np.sqrt(scale))
        assert np.allclose(_projector(derived.kernel_basis), _projector(fresh.kernel_basis),
                           atol=1e-10)


def test_abs_spectrum_orders_the_ties_of_plus_minus_pairs_canonically():
    # exact pairs +-lambda become exact ties of |G|; a permutation with phases
    # keeps the eigenvectors exact, so the two spectra agree bit for bit
    rng = np.random.Generator(np.random.Philox(13))
    d = np.array([2.0, -2.0, 1.0, -1.0, 3.0, 0.0, 0.0, -3.0, 1.0])
    for _ in range(5):
        u = np.eye(d.size)[rng.permutation(d.size)] * np.exp(1j * rng.uniform(0, 6, d.size))
        g = (u * d) @ u.conj().T
        derived = numlin.abs_spectrum(numlin.spectrum(g, TOL))
        fresh = numlin.spectrum(numlin.herm_abs(g, TOL), TOL)
        for name in ("eigenvalues", "basis", "factor", "factor_pinv", "kernel_basis"):
            assert np.array_equal(getattr(derived, name), getattr(fresh, name)), name


def test_spectrum_values_decide_as_the_full_spectrum():
    rng = np.random.Generator(np.random.Philox(14))
    x = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    g = (x * np.array([3.0, 1.0, -2.0, 0.5])) @ x.conj().T
    g = 0.5 * (g + g.conj().T)
    full, values = numlin.spectrum(g, TOL), numlin.spectrum_values(g, TOL)
    assert values.basis is None
    assert np.allclose(values.eigenvalues, full.eigenvalues, atol=1e-12 * full.norm)
    assert (values.rank, values.signature, values.is_psd) == (full.rank, full.signature,
                                                              full.is_psd) == (4, (3, 1), False)
    assert np.allclose(values.gaps, full.gaps) and np.isclose(values.norm, full.norm)
    assert numlin.spectrum_values(np.zeros((0, 0)), TOL).rank == 0
    with pytest.raises(NotHermitian):
        numlin.spectrum_values(np.array([[0.0, 1.0], [0.0, 0.0]]), TOL)


def test_factor_pinv_is_the_pseudo_inverse_of_the_canonical_map():
    # the induced map of an indefinite matrix, positives first, and its SVD pseudo-inverse
    rng = np.random.Generator(np.random.Philox(15))
    x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    g = (x * np.array([2.0, -1.0, 0.5])) @ x.conj().T
    s = numlin.spectrum(0.5 * (g + g.conj().T), TOL)
    assert s.factor.shape == (3, 5)
    assert np.allclose(s.factor_pinv, numlin.pinv(s.factor, TOL), atol=1e-12)
    assert np.isclose(np.sqrt(s.norm), numlin.opnorm(s.factor), rtol=1e-12)


def test_spectrum_checks_and_symmetrizes_its_input_once(monkeypatch):
    calls = []
    check = numlin._require_hermitian
    monkeypatch.setattr(numlin, "_require_hermitian",
                        lambda a, tol: calls.append(1) or check(a, tol))
    m = np.array([[2.0, 1.0 - 1e-12j], [1.0 + 1e-12j, 3.0]])
    s = numlin.spectrum(m, TOL)
    assert calls == [1]
    w, u = numlin.herm_eig(m, TOL)
    assert np.array_equal(s.eigenvalues, w) and np.array_equal(s.basis, u)
    with pytest.raises(NotHermitian):
        numlin.spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]), TOL)


def test_checked_spectrum_decomposes_with_no_second_check(monkeypatch):
    # a matrix whose Hermitian residual was accepted elsewhere gets spectrum's bytes
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = x @ x.conj().T - 2.0 * np.eye(6)
    m += 1e-13 * rng.standard_normal((6, 6))  # not exactly Hermitian
    m.setflags(write=False)
    fresh = numlin.spectrum(m, TOL)
    calls = []
    check = numlin._require_hermitian
    monkeypatch.setattr(numlin, "_require_hermitian",
                        lambda a, tol: calls.append(1) or check(a, tol))
    s = numlin.checked_spectrum(m, TOL)
    assert calls == []
    assert np.array_equal(s.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(s.basis, fresh.basis)
    assert s.cutoff == fresh.cutoff
    assert numlin.checked_spectrum(np.zeros((0, 0), dtype=complex), TOL).rank == 0


def test_spectrum_arrays_are_read_only():
    g = np.array([[2.0, 1.0], [1.0, -2.0]], dtype=complex)
    s, v = numlin.spectrum(g, TOL), numlin.spectrum_values(g, TOL)
    for a in (s.eigenvalues, s.basis, s.kernel_basis, s.positive, s.negative, s.retained,
              s.factor, s.factor_pinv, v.eigenvalues, numlin.abs_spectrum(s).basis,
              numlin.stack_eigenvalues(np.stack([g, g])), numlin.pinv(g, TOL)):
        with pytest.raises(ValueError):
            a[...] = 0
