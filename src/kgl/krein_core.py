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
from functools import cached_property

import numpy as np

from . import numlin
from .errors import PairingViolated, ShapeMismatch
from .numlin import DEFAULT_TOL, Tolerances, frob, opnorm
from .reports import Record

__all__ = [
    "KreinSpace",
    "InducedKrein",
    "LiftedPair",
    "krein_space",
    "hilbert_space",
    "krein_adjoint",
    "induced_krein",
    "lift_operator",
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


@dataclass(frozen=True, eq=False)
class InducedKrein:
    """The Krein space induced by a Hermitian matrix, read from the
    matrix's canonical spectrum.

    The canonical map pi (the spectrum's factor, shape (space.dim, source
    dimension)) sends a source vector h to Pi h; the pairing of images
    recovers the form: Pi* J Pi equals the inducing matrix. The map is
    onto, so the space has dimension the rank of the matrix, positive
    directions listed first. Pi+ and both norms are the spectrum's too.
    """

    spectrum: numlin.Spectrum

    @cached_property
    def space(self) -> KreinSpace:
        p, n = self.spectrum.signature
        return KreinSpace((1,) * p + (-1,) * n)

    @property
    def pi(self) -> np.ndarray:
        return self.spectrum.factor


def induced_krein(a, tol: Tolerances = DEFAULT_TOL) -> InducedKrein:
    """Spectral construction of the Krein space induced by a Hermitian matrix.

    Nonzero eigenpairs are retained; eigenvalues inside the cutoff belong
    to the form's kernel and are dropped. Rows of the canonical map are
    sqrt(|eigenvalue|) times the adjoint eigenvector, positives first.
    """
    return InducedKrein(numlin.spectrum(a, tol))


@dataclass(eq=False)
class LiftedPair:
    """Lift of an operator pair to the induced spaces, with the krein/lift
    records that certify it.

    Unpacks as (t_lift, s_lift); also carries both induced spaces so the
    adjoint pairing can be re-checked downstream. When the compatibility
    record fails no lift is made: the lifts and spaces are None, and
    unpacking raises PairingViolated.
    """

    t_lift: np.ndarray
    s_lift: np.ndarray
    source: InducedKrein  # induced by A
    target: InducedKrein  # induced by B
    records: list

    def __iter__(self):
        if self.t_lift is None:
            compat = self.records[0]
            raise PairingViolated(
                f"no lift: {compat.name} fails (residual {compat.residual:.3e}"
                f" > {compat.tolerance:.3e})")
        return iter((self.t_lift, self.s_lift))


def lift_operator(a, b, t, s, tol: Tolerances = DEFAULT_TOL) -> LiftedPair:
    """Lift T (and its form-adjoint partner S) to the induced Krein spaces.

    The records are the compatibility identity B T = S* A, then, once it
    holds, the two facts it implies: T maps the form kernel of A into the
    form kernel of B, so the lift T_lift = Pi_B T Pi_A+ satisfies
    T_lift Pi_A = Pi_B T, and the partner, lifted symmetrically, equals the
    Krein adjoint of the lift. Each residual is compared with atol times
    the scale of the data it compares, with no floor: max(||B|| ||T||,
    ||S|| ||A||), ||Pi_B|| ||T|| and max(||Pi_B|| ||T|| ||Pi_A+||,
    ||Pi_A|| ||S|| ||Pi_B+||), the scales of the two lifted products, so
    a pair with one side zero (T = 0 and S into the form kernel of A, say)
    is not held to a bound of zero. The canonical maps, their
    pseudo-inverses and their norms are read from the spectra of A and B.
    """
    am = numlin.as_cmatrix(a)
    bm = numlin.as_cmatrix(b)
    tm = numlin.as_cmatrix(t)
    sm = numlin.as_cmatrix(s)
    n = am.shape[0]
    m = bm.shape[0]
    if tm.shape != (m, n) or sm.shape != (n, m):
        raise ShapeMismatch(f"T {tm.shape} and S {sm.shape} must map between dims {n} and {m}")

    def record(name, resid, bound):
        return Record(name, "krein/lift", resid, bound, resid <= bound)

    t_norm, s_norm = opnorm(tm), opnorm(sm)
    scale = max(opnorm(bm) * t_norm, s_norm * opnorm(am))
    records = [record("compatibility identity holds",
                      frob(bm @ tm - sm.conj().T @ am), tol.atol * scale)]
    if not records[0].passed:
        return LiftedPair(None, None, None, None, records)

    ika = induced_krein(am, tol)
    ikb = induced_krein(bm, tol)
    (pi_a, pinv_a), (pi_b, pinv_b) = ika.spectrum.factor_norms, ikb.spectrum.factor_norms
    t_lift = ikb.pi @ tm @ ika.spectrum.factor_pinv
    s_lift = ika.pi @ sm @ ikb.spectrum.factor_pinv
    records.append(record("lift factors through the canonical maps",
                          frob(t_lift @ ika.pi - ikb.pi @ tm), tol.atol * pi_b * t_norm))
    lift_scale = max(pi_b * t_norm * pinv_a, pi_a * s_norm * pinv_b)
    records.append(record("lifted pair are indefinite adjoints",
                          frob(krein_adjoint(t_lift, ika.space, ikb.space) - s_lift),
                          tol.atol * lift_scale))
    return LiftedPair(t_lift, s_lift, ika, ikb, records)


def gaps_unique(gap_neg, gap_pos):
    """Spectral gaps of a Hermitian matrix at zero (Spectrum.gaps) and the
    uniqueness flag: (unique, gap_neg, gap_pos), a side with no spectrum
    reporting None (infinite gap). A finite matrix always has an open
    interval free of spectrum on at least one side of zero, so unique is
    always True here; infinite-dimensional forms can fail this.
    """
    unique = (gap_neg is None or gap_neg > 0.0) or (gap_pos is None or gap_pos > 0.0)
    return unique, gap_neg, gap_pos
