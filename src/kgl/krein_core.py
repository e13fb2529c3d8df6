"""Finite-dimensional Krein spaces and the induced-space construction.

A Krein space is stored as a dimension together with a diagonal
fundamental symmetry (entries +1 and -1); every indefinite inner product
this package produces is realized in such coordinates. A Hermitian matrix
A induces a Krein space in which the pairing of mapped vectors recovers
the form of A; operators compatible with two such forms lift to the
induced spaces, and the spectral gap of A at zero measures how canonical
the induced space is.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import PairingViolated, ShapeMismatch
from .numlin import DEFAULT_TOL, Tolerances, frob, opnorm

__all__ = [
    "KreinSpace",
    "InducedKrein",
    "LiftedPair",
    "krein_space",
    "hilbert_space",
    "krein_adjoint",
    "induced_krein",
    "induced_from_spectrum",
    "lift_operator",
    "gap_uniqueness",
    "gaps_unique",
]


@dataclass(frozen=True, eq=False)
class KreinSpace:
    """Dimension plus a diagonal fundamental symmetry with entries +-1."""

    jdiag: tuple

    def __post_init__(self):
        for e in self.jdiag:
            if e not in (1, -1):
                raise ValueError(f"fundamental symmetry entries must be +-1, got {e!r}")

    @property
    def dim(self) -> int:
        return len(self.jdiag)

    @property
    def signature(self):
        """(count of +1 entries, count of -1 entries)."""
        p = sum(1 for e in self.jdiag if e == 1)
        return p, self.dim - p

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.jdiag, dtype=np.complex128)) if self.dim else np.zeros(
            (0, 0), dtype=np.complex128)

    def pairing(self, u, v) -> complex:
        """The indefinite inner product [u, v] (second argument conjugated)."""
        uu = np.asarray(u, dtype=np.complex128).reshape(-1)
        vv = np.asarray(v, dtype=np.complex128).reshape(-1)
        if uu.size != self.dim or vv.size != self.dim:
            raise ShapeMismatch("vector length does not match the space dimension")
        return complex(np.vdot(vv, np.asarray(self.jdiag) * uu))


def krein_space(j) -> KreinSpace:
    """Build a space from a +-1 diagonal given as a sequence or diagonal matrix."""
    arr = np.asarray(j)
    if arr.ndim == 2:
        if arr.shape[0] != arr.shape[1]:
            raise ShapeMismatch("fundamental symmetry must be square")
        if arr.size and np.abs(arr - np.diag(np.diagonal(arr))).max() > 0:
            raise ValueError("fundamental symmetry must be diagonal in these coordinates")
        arr = np.diagonal(arr)
    entries = []
    for z in np.atleast_1d(arr):
        e = int(round(complex(z).real))
        if e not in (1, -1) or abs(complex(z) - e) > 1e-12:
            raise ValueError(f"diagonal entry {z!r} is not +-1")
        entries.append(e)
    return KreinSpace(tuple(entries))


def hilbert_space(dim: int) -> KreinSpace:
    """The definite case: J = I."""
    return KreinSpace((1,) * dim)


def krein_adjoint(t, j_dom: KreinSpace, j_cod: KreinSpace) -> np.ndarray:
    """Adjoint with respect to the indefinite pairings: J_dom T* J_cod.

    T maps the domain space into the codomain space; the result maps back.
    Applying it twice returns T exactly.
    """
    m = numlin.as_cmatrix(t)
    if m.shape != (j_cod.dim, j_dom.dim):
        raise ShapeMismatch(
            f"operator shape {m.shape} does not map dim {j_dom.dim} to dim {j_cod.dim}")
    jd = np.asarray(j_dom.jdiag, dtype=np.float64)
    jc = np.asarray(j_cod.jdiag, dtype=np.float64)
    return jd[:, None] * m.conj().T * jc[None, :]


@dataclass(eq=False)
class InducedKrein:
    """A Krein space carrying the form of a Hermitian matrix.

    The canonical map sends a source vector h to Pi h; the pairing of
    images recovers the form: Pi* J Pi equals the inducing matrix. The map
    is onto, so the space has dimension the rank of the matrix, positive
    directions listed first.
    """

    source_dim: int
    space: KreinSpace
    pi: np.ndarray  # (space.dim, source_dim)


def induced_krein(a, tol: Tolerances = DEFAULT_TOL, tie_break: str = "first") -> InducedKrein:
    """Spectral construction of the Krein space induced by a Hermitian matrix.

    Nonzero eigenpairs are retained; eigenvalues inside the cutoff belong
    to the form's kernel and are dropped. Rows of the canonical map are
    sqrt(|eigenvalue|) times the adjoint eigenvector, positives first.
    """
    return induced_from_spectrum(numlin.spectrum(a, tol, tie_break=tie_break))


def induced_from_spectrum(s: numlin.Spectrum) -> InducedKrein:
    """induced_krein of the matrix whose canonical spectrum is s: the map is
    s.factor, its pseudo-inverse s.factor_pinv."""
    p, n = s.signature
    return InducedKrein(source_dim=int(s.eigenvalues.size), space=KreinSpace((1,) * p + (-1,) * n),
                        pi=s.factor)


@dataclass(eq=False)
class LiftedPair:
    """Lift of a form-compatible operator pair to the induced spaces.

    Unpacks as (t_lift, s_lift); also carries both induced spaces so the
    adjoint pairing can be re-checked downstream.
    """

    t_lift: np.ndarray
    s_lift: np.ndarray
    source: InducedKrein  # induced by A
    target: InducedKrein  # induced by B

    def __iter__(self):
        return iter((self.t_lift, self.s_lift))


def lift_operator(a, b, t, s, tol: Tolerances = DEFAULT_TOL) -> LiftedPair:
    """Lift T (and its form-adjoint partner S) to the induced Krein spaces.

    Requires the compatibility identity B T = S* A up to tolerance; it
    makes T map the form kernel of A into the form kernel of B, which is
    re-verified so the lift T_lift = Pi_B T Pi_A+ is well defined and
    satisfies T_lift Pi_A = Pi_B T. The partner lifts symmetrically and
    equals the Krein adjoint of the lift.
    """
    am = numlin.as_cmatrix(a)
    bm = numlin.as_cmatrix(b)
    tm = numlin.as_cmatrix(t)
    sm = numlin.as_cmatrix(s)
    n = am.shape[0]
    m = bm.shape[0]
    if tm.shape != (m, n) or sm.shape != (n, m):
        raise ShapeMismatch(f"T {tm.shape} and S {sm.shape} must map between dims {n} and {m}")

    scale = max(1.0, opnorm(bm) * opnorm(tm), opnorm(sm) * opnorm(am))
    resid = frob(bm @ tm - sm.conj().T @ am)
    if resid > tol.atol * scale:
        raise PairingViolated(
            f"compatibility residual {resid:.3e} above {tol.atol * scale:.3e}")

    ika = induced_krein(am, tol)
    ikb = induced_krein(bm, tol)
    t_lift = ikb.pi @ tm @ numlin.pinv(ika.pi, tol)
    s_lift = ika.pi @ sm @ numlin.pinv(ikb.pi, tol)

    fact = frob(t_lift @ ika.pi - ikb.pi @ tm)
    if fact > tol.atol * max(1.0, opnorm(ikb.pi) * opnorm(tm)):
        raise PairingViolated(
            f"lift does not factor the mapped form (residual {fact:.3e}); "
            "the operator moves the form kernel off the form kernel")
    return LiftedPair(t_lift=t_lift, s_lift=s_lift, source=ika, target=ikb)


def gap_uniqueness(a, tol: Tolerances = DEFAULT_TOL):
    """Spectral gaps of a Hermitian matrix at zero and the uniqueness flag.

    Returns (unique, gap_neg, gap_pos): a side with no spectrum reports
    None (infinite gap). A finite matrix always has an open interval free
    of spectrum on at least one side of zero, so unique is always True
    here; infinite-dimensional forms can fail this.
    """
    return gaps_unique(*numlin.gap_at_zero(a, tol))


def gaps_unique(gap_neg, gap_pos):
    """(unique, gap_neg, gap_pos) of gap_uniqueness from the two gaps."""
    unique = (gap_neg is None or gap_neg > 0.0) or (gap_pos is None or gap_pos > 0.0)
    return unique, gap_neg, gap_pos
