"""Deterministic dense complex linear algebra.

All matrices are numpy arrays with dtype complex128. Hermitian
eigendecompositions are post-processed into a canonical form: eigenvalues
ascending, every eigenvector phase pinned (its first coordinate of modulus
above a floor is made real positive) and exact eigenvalue ties ordered
lexicographically by the normalized eigenvector coordinates. This is the
one canonical form: two invocations on bit-identical input produce
bit-identical output.

Two thresholds decide, each in one place:

- the eigenvalue cutoff ``rank_rel * max|eigenvalue|``: eigenvalues within
  it count as zero for rank, sign, spectral projections, kernel bases,
  induced Krein spaces and the canonical map ``Spectrum.factor`` with its
  pseudo-inverse ``Spectrum.factor_pinv`` (for a PSD matrix, the root
  factor), and a Hermitian matrix is PSD exactly when no eigenvalue lies
  below minus the cutoff (``Spectrum.is_psd``), that is when its signature
  counts no negative direction. The cutoff scales with the matrix, so
  neither decision depends on the matrix's overall scale;
- the singular-value cutoff ``rank_rel * largest singular value``, which
  applies only to ``pinv`` and to the minimality records (singular values
  of a spectrum's ``factor`` are sqrt|w_k|, read with no SVD).

A :class:`Spectrum` carries one canonical decomposition with the cutoff's
decisions read from it, and everything that is a spectral function of the
matrix is read from it rather than decomposed again: its norm max|w|, its
canonical map and that map's pseudo-inverse U_k / sqrt|w_k| (no SVD) with
their operator norms, and the canonical spectrum of |G| = U|w|U*
(``abs_spectrum``). A check that reads only the eigenvalues of a stack of
matrices of its own uses ``stack_eigenvalues`` (one batched
``np.linalg.eigvalsh``). Every call computes afresh: nothing here keeps a
result, and a decomposition is made once by whoever holds the matrix (a
kernel holds its part spectra, see ``kernel.part_spectra``; an induced
space, the spectrum of its matrix).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFinite, NotHermitian

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "Spectrum",
    "as_cmatrix",
    "frob",
    "frobs",
    "adjoints",
    "opnorm",
    "herm_eig",
    "spectrum",
    "checked_spectrum",
    "herm_abs",
    "spectral_projections",
    "pinv",
    "stack_eigenvalues",
    "abs_spectrum",
]

# coordinates below this modulus never define an eigenvector phase;
# a unit vector always has a coordinate of modulus >= 1/sqrt(n) >> this
_PHASE_FLOOR = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Residual acceptance threshold and relative rank cutoff.

    atol bounds accepted residuals, scaled by a norm of the data they
    compare (some bounds still floor that norm at 1). rank_rel is the
    relative eigenvalue cutoff below which spectrum is treated as zero.
    """

    atol: float = 1e-9
    rank_rel: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.atol < 1.0:
            raise ValueError("atol must lie strictly between 0 and 1")
        if not 0.0 < self.rank_rel < 1.0:
            raise ValueError("rank_rel must lie strictly between 0 and 1")


DEFAULT_TOL = Tolerances()


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a fresh 2-d complex128 array, rejecting non-finite entries."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise NonFinite(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m.view(np.float64)).all():
        raise NonFinite("matrix has NaN or Inf entries")
    return m


def frob(a) -> float:
    return float(np.linalg.norm(a, "fro"))


def frobs(a) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack (over the last two axes)."""
    a = np.asarray(a)
    sq = a.real ** 2
    sq += a.imag ** 2
    return np.sqrt(sq.sum(axis=(-2, -1)))


def adjoints(a) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack (over the last two axes)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def opnorm(a) -> float:
    """Operator (spectral) norm; 0.0 for empty matrices."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _require_hermitian(a, tol: Tolerances) -> np.ndarray:
    """Validate Hermitian-ness and return the symmetrized matrix (in the residual's buffer)."""
    m = as_cmatrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotHermitian(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    adj = m.conj().T
    out = m - adj
    resid = frob(out)
    if resid > tol.atol * frob(m):
        raise NotHermitian(f"Hermitian residual {resid:.3e} above tolerance")
    return np.multiply(np.add(m, adj, out=out), 0.5, out=out)


def _normalize_phases(u: np.ndarray) -> np.ndarray:
    """Pin each column's phase by making its first coordinate of modulus
    above the floor real positive.

    Zero columns (cannot happen for unitary input) are left alone. The
    moduli are np.hypot's, the modulus of a complex scalar, so every column
    gets the bytes of a column-by-column loop.
    """
    big = np.hypot(u.real, u.imag) > _PHASE_FLOOR
    rows = big.argmax(axis=0)
    cols = np.flatnonzero(big.any(axis=0))
    z = u[rows[cols], cols]
    out = u.copy()
    out[:, cols] = u[:, cols] * (z.conj() / np.hypot(z.real, z.imag))
    return out


def _order_ties(w: np.ndarray, u: np.ndarray):
    """Reorder columns inside groups of exactly equal eigenvalues.

    Within a tie group, columns are sorted in descending lexicographic order
    of their (already phase-normalized) coordinates, compared as the
    sequence re u[0], im u[0], re u[1], ..., which keeps identity input
    fixed. This never changes the ascending eigenvalue sequence.
    """
    order = np.arange(w.size)
    starts = np.flatnonzero(np.diff(w, prepend=np.nan) != 0.0)
    for i, j in zip(starts.tolist(), starts[1:].tolist() + [w.size]):
        if j - i > 1:
            block = u[:, i:j]
            keys = np.stack([block.real, block.imag], axis=1).reshape(-1, j - i).T.tolist()
            order[i:j] = sorted(range(i, j), key=lambda k: keys[k - i], reverse=True)
    return w, u[:, order]


def _symmetrized(g: np.ndarray) -> np.ndarray:
    """0.5*(g + g^H) in one new array, the matrix _require_hermitian returns
    for g, with no check."""
    m = g.conj().T
    m += g
    m *= 0.5
    return m


def herm_eig(a, tol: Tolerances = DEFAULT_TOL):
    """Canonical eigendecomposition (w, u) of a Hermitian matrix: the real
    eigenvalues w ascending, the eigenvectors as the columns of the unitary
    u, in canonical phase and tie order.

    a is checked (NotHermitian) and symmetrized first. With tol None, a is
    a finite square complex128 matrix whose Hermitian residual was already
    accepted (checked_spectrum), and is only symmetrized.
    """
    m = _symmetrized(a) if tol is None else _require_hermitian(a, tol)
    if m.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    w, u = np.linalg.eigh(m)
    u = u.astype(np.complex128, copy=False)
    return _order_ties(w, _normalize_phases(u))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A canonical eigendecomposition with the decisions read from it.

    eigenvalues and basis are those of herm_eig, read-only. cutoff is the
    eigenvalue cutoff rank_rel * max|eigenvalue| of the tolerances it was
    made with.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    cutoff: float

    @cached_property
    def positive(self) -> np.ndarray:
        """Mask of the eigenvalues above the cutoff, read-only."""
        return _frozen(self.eigenvalues > self.cutoff)

    @cached_property
    def negative(self) -> np.ndarray:
        """Mask of the eigenvalues below minus the cutoff, read-only."""
        return _frozen(self.eigenvalues < -self.cutoff)

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(np.abs(self.eigenvalues) > self.cutoff))

    @property
    def norm(self) -> float:
        """max|eigenvalue|, the operator norm of the Hermitian matrix."""
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

    @cached_property
    def retained(self) -> np.ndarray:
        """Indices of the eigenvalues beyond the cutoff, positives first, read-only."""
        return _frozen(np.concatenate([np.flatnonzero(self.positive),
                                       np.flatnonzero(self.negative)]))

    @cached_property
    def factor(self) -> np.ndarray:
        """The canonical map sqrt|w_k| U_k* over the retained eigenpairs k,
        read-only: induced_krein's map, and a PSD matrix's root factor."""
        k = self.retained
        return _frozen(np.sqrt(np.abs(self.eigenvalues[k]))[:, None] * self.basis[:, k].conj().T)

    @cached_property
    def factor_pinv(self) -> np.ndarray:
        """The pseudo-inverse U_k / sqrt|w_k| of factor, with no SVD, read-only."""
        k = self.retained
        return _frozen(self.basis[:, k] / np.sqrt(np.abs(self.eigenvalues[k])))

    @property
    def factor_norms(self):
        """(||factor||, ||factor_pinv||) with no SVD: sqrt max|w|, and 1/sqrt
        of the least retained |w_k| (0.0 with none retained)."""
        kept = np.abs(self.eigenvalues[self.retained])
        return float(np.sqrt(self.norm)), float(1.0 / np.sqrt(kept.min())) if kept.size else 0.0

    @property
    def signature(self):
        """(count of positive, count of negative) eigenvalues beyond the cutoff."""
        return int(np.count_nonzero(self.positive)), int(np.count_nonzero(self.negative))

    @cached_property
    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis of the eigenvectors within the cutoff, read-only."""
        return _frozen(self.basis[:, np.abs(self.eigenvalues) <= self.cutoff])

    @property
    def psd_violation(self) -> float:
        """How far the lowest eigenvalue lies below zero (0 when none does)."""
        return max(0.0, -float(np.min(self.eigenvalues, initial=0.0)))

    @property
    def is_psd(self) -> bool:
        """No eigenvalue lies below minus the cutoff: the signature is (rank, 0)."""
        return not self.negative.any()

    @property
    def gaps(self):
        """Distances from 0 to the nearest negative / positive eigenvalue.

        Eigenvalues within the cutoff count as zero; a side with no
        eigenvalues is None (the gap is infinite).
        """
        neg = self.eigenvalues[self.negative]
        pos = self.eigenvalues[self.positive]
        return (float(-np.max(neg)) if neg.size else None,
                float(np.min(pos)) if pos.size else None)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def spectrum(a, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """The canonical decomposition of a Hermitian matrix (see herm_eig),
    which checks and symmetrizes it, once."""
    return _spectrum_of(*herm_eig(a, tol), tol)


def checked_spectrum(g: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """spectrum of g, a finite square complex128 matrix whose Hermitian
    residual was already accepted at tol: the same decomposition of
    0.5*(g + g^H), with no second check and no copy of g."""
    return _spectrum_of(*herm_eig(g, None), tol)


def stack_eigenvalues(a) -> np.ndarray:
    """The ascending eigenvalues of each matrix of a stack of Hermitian
    matrices, symmetrized first: one batched np.linalg.eigvalsh, read-only.
    The matrices are not checked to be Hermitian."""
    m = np.asarray(a, dtype=np.complex128)
    m = m + adjoints(m)
    m *= 0.5
    return _frozen(np.linalg.eigvalsh(m) if m.shape[-1] else np.zeros(m.shape[:-1]))


def _spectrum_of(w: np.ndarray, basis: np.ndarray, tol: Tolerances) -> Spectrum:
    w = _frozen(w)
    top = float(np.max(np.abs(w), initial=0.0))
    return Spectrum(w, _frozen(basis), tol.rank_rel * top)


def abs_spectrum(s: Spectrum) -> Spectrum:
    """The canonical spectrum of |G| = U |w| U*, read from the canonical
    spectrum (w, U) of G, with no decomposition.

    The eigenvalues |w| are sorted ascending with their eigenvectors, whose
    phases are already pinned; eigenvalues that become exactly equal (a
    pair +-lambda, say) are ordered as herm_eig orders ties. The cutoff,
    rank_rel * max|w|, is G's.
    """
    a = np.abs(s.eigenvalues)
    order = np.argsort(a, kind="stable")
    w, u = _order_ties(a[order], s.basis[:, order])
    return Spectrum(_frozen(w), _frozen(u), s.cutoff)


def herm_abs(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """|A| = U |w| U* of a Hermitian matrix A."""
    s = spectrum(a, tol)
    return (s.basis * np.abs(s.eigenvalues)) @ s.basis.conj().T


def spectral_projections(a, tol: Tolerances = DEFAULT_TOL):
    """Orthogonal projections onto the negative/zero/positive spectral parts.

    Returns (E_minus, E_zero, E_plus) with E_zero = I - E_minus - E_plus,
    so the three sum to the identity exactly as constructed. Eigenvalues
    inside the cutoff count as zero.
    """
    s = spectrum(a, tol)
    un = s.basis[:, s.negative]
    up = s.basis[:, s.positive]
    e_minus = un @ un.conj().T
    e_plus = up @ up.conj().T
    e_zero = np.eye(s.eigenvalues.size, dtype=np.complex128) - e_minus - e_plus
    return e_minus, e_zero, e_plus


def pinv(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the singular-value cutoff, read-only."""
    m = as_cmatrix(a)
    if m.size == 0:
        return _frozen(np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128))
    return _frozen(np.linalg.pinv(m, rcond=tol.rank_rel))
