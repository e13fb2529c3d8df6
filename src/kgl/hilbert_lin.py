"""Minimal Hilbert-space factorizations of partially PSD kernels.

A partially PSD kernel is the case J = I of a partially Hermitian one: its
direct Krein linearisation has signature (r, 0) on every part, so each
part's stacked map B has G = B* B and full row rank, and its columns at x
form the feature map V_x with K(x, y) = V_x* V_y. minimal_linearisation is
that KreinLinearisation with the hilbert family below, so the checks of
krein_lin (verify_krein_factorization, rk_krein_space, j_unitary_equivalence)
certify it under the hilbert names and tags. Only what has no
indefinite counterpart lives here: the bounded-shift constants with their
consistency record, and the partial-isometry law of inverse semigroupoids.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import krein_lin, numlin
from .errors import NotInvariant, NotPartiallyPSD
from .kernel import (
    OpKernel,
    Partition,
    _batches,
    _part_pairs,
    _shift_constants,
    is_invariant,
    is_partially_psd,
)
from .numlin import DEFAULT_TOL, Tolerances, adjoints, frobs
from .reports import Record
from .sgpd import Classification, LeftAction

__all__ = [
    "HILBERT",
    "HilbertRepresentation",
    "minimal_linearisation",
    "is_definite",
    "definite_representation",
    "invariant_representation",
    "partial_isometry_report",
]

# The records of the definite family: check -> (record name, tag).
HILBERT = {
    "factorization": ("factorization reconstructs the kernel", "hilbert/factorization"),
    "minimality": ("feature columns span the whole space", "hilbert/minimality"),
    "members": ("kernel columns are members", "hilbert/rkhs"),
    "reproducing": ("reproducing identity", "hilbert/rkhs"),
    "unitary": ("canonical map is unitary", "hilbert/uniqueness"),
    "matches": ("canonical map matches features", "hilbert/uniqueness"),
    "multiplicative": ("multiplicative on composable pairs", "hilbert/representation"),
    "star": ("star-compatible", "hilbert/representation"),
    "intertwining": ("intertwines the feature maps", "hilbert/representation"),
    "well-defined": ("represented shifts are well defined", "hilbert/representation"),
}


def minimal_linearisation(k: OpKernel, p: Partition,
                          tol: Tolerances = DEFAULT_TOL) -> krein_lin.KreinLinearisation:
    """The direct linearisation of a partially PSD kernel (NotPartiallyPSD
    otherwise), in the hilbert family."""
    if not is_partially_psd(k, p, tol):
        raise NotPartiallyPSD("kernel must be PSD on every part")
    lin = krein_lin.krein_linearisation(k, p, tol)
    return dataclasses.replace(lin, family=HILBERT)


def is_definite(lin) -> bool:
    """Every part space of lin has signature (r, 0). For the direct
    linearisation of a partially Hermitian kernel, this holds exactly when
    the kernel is partially PSD."""
    return all(space.signature[1] == 0 for space in lin.spaces.values())


@dataclass(eq=False)
class HilbertRepresentation(krein_lin.KreinRepresentation):
    """Represented shifts on the factor spaces, with bounded-shift constants."""

    shift_constants: dict = field(default_factory=dict)  # element -> float or None


def definite_representation(rep: krein_lin.KreinRepresentation,
                            tol: Tolerances = DEFAULT_TOL) -> HilbertRepresentation:
    """rep, a representation on the linearisation of a partially PSD kernel,
    with its records rekeyed to the hilbert family, plus the bounded-shift
    constant of every element and the record that each defined one equals
    the squared represented norm, to within atol relative to max(1, constant)."""
    act, lin = rep.action, dataclasses.replace(rep.lin, family=HILBERT)
    spectra = lin.spectra or {label: numlin.spectrum(g, tol) for label, g in lin.gram.items()}
    constants = _shift_constants(act, lin.partition, lin.gram, spectra, tol, act.sg.elements)
    resid_bs, wit_bs = 0.0, None
    for a, m in constants.items():
        if m is None:
            continue
        r = abs(m - rep.norms[a] ** 2) / max(1.0, m)
        if r > resid_bs:
            resid_bs, wit_bs = r, (a,)
    records = krein_lin.rekey(rep.records, rep.lin.family, HILBERT)
    records.append(Record("shift constant equals squared represented norm",
                          "hilbert/bounded-shift-consistency",
                          resid_bs, tol.atol, resid_bs <= tol.atol, witness=wit_bs))
    return HilbertRepresentation(act, lin, rep.psi, rep.norms, records, constants)


def invariant_representation(k: OpKernel, act: LeftAction, p: Partition,
                             tol: Tolerances = DEFAULT_TOL) -> HilbertRepresentation:
    """minimal_linearisation, the invariance check (NotInvariant), then the representation."""
    lin = minimal_linearisation(k, p, tol)
    ok, witness = is_invariant(k, act, tol)
    if not ok:
        raise NotInvariant(f"kernel is not invariant; witness {witness!r}")
    return definite_representation(krein_lin.represent(lin, act, tol), tol)


def partial_isometry_report(rep: HilbertRepresentation, cls: Classification,
                            tol: Tolerances = DEFAULT_TOL):
    """Partial-isometry residuals of every represented shift.

    The law is required exactly when the semigroupoid is inverse and its
    involution is the pseudo-inverse map (the canonical star of an inverse
    semigroupoid); otherwise the residuals are informational.

    Where it is required and J = I (is_definite), the table gives
    a a* a = a, and the residual is the derived bound of
    _derived_partial_isometry, read from what the laws read of the shifts
    (krein_lin._law_data): no product of shifts is formed. Otherwise it is
    the direct residual max(||psi psi* psi - psi||, ||p p - p||) with
    p = psi* psi, the shifts of one (domain, codomain) part pair checked as
    one stack per batch.
    """
    required = bool(cls.is_inverse and cls.star_matches_inverse)
    sg = rep.action.sg
    if required and is_definite(rep.lin):
        resid = _derived_partial_isometry(rep, krein_lin._law_data(rep, tol))
    else:
        resid = _direct_partial_isometry(rep)
    records = []
    for a in sg.elements:
        bound = tol.atol * max(1.0, rep.norms[a] ** 3)
        passed = (resid[a] <= bound) if required else True
        records.append(Record("partial isometry law", "hilbert/partial-isometry",
                              resid[a], bound, passed,
                              witness=(a, "required" if required else "informational")))
    return records


def _derived_partial_isometry(rep, data) -> dict:
    """Per element a of an inverse semigroupoid whose star is its inverse
    map, a certified upper bound of max(||psi psi* psi - psi||, ||p p - p||).

    With psi = psi(a), s the star residual ||psi(a*) - psi*|| and m(a, b) the
    derived multiplicativity bound of a pair (krein_lin._pair_bounds),
    psi psi* psi = psi(a) psi(a*) psi - psi (psi(a*) - psi*) psi, and
    a a* a = a gives psi(a) psi(a*) psi(a) = psi(a) + (psi(a) psi(a*) -
    psi(aa*)) psi(a) + (psi(aa*) psi(a) - psi(a)), so

        ||psi psi* psi - psi|| <= ||psi||^2 s + ||psi|| m(a, a*) + m(aa*, a),

    and p p - p = psi* (psi psi* psi - psi) adds a factor ||psi||.
    """
    sg, code = rep.action.sg, rep.action.sg.code
    bounds = krein_lin._pair_bounds(rep.action, rep.lin, data)[0]
    n_el = len(sg.elements)
    keys = code.pairs[:, 0].astype(np.int64) * n_el + code.pairs[:, 1]
    order = np.argsort(keys, kind="stable")

    def m(a, b):  # the bound of each pair (a[i], b[i]), all composable
        return bounds[order[np.searchsorted(keys, a * n_el + b, sorter=order)]]

    own = np.arange(n_el, dtype=np.int64)
    star = code.star.astype(np.int64)
    norm = np.array([data.norms[a] for a in sg.elements])
    s = np.array([data.star[a] for a in sg.elements])
    law = norm ** 2 * s + norm * m(own, star) + m(code.T[own, star].astype(np.int64), own)
    return dict(zip(sg.elements, np.maximum(law, norm * law).tolist()))


def _direct_partial_isometry(rep) -> dict:
    """Per element, max(||psi psi* psi - psi||, ||p p - p||) with p = psi* psi,
    the shifts of one (domain, codomain) part pair read from rep.psi and
    checked as one stack per batch."""
    sg, psi, spaces = rep.action.sg, rep.psi, rep.lin.spaces
    resid = {}
    for (sd, sc), group in _part_pairs(sg, sg.elements).items():
        r_c, r_d = spaces[sc].dim, spaces[sd].dim
        for batch in _batches(group, 16 * 4 * (r_c * r_d + r_d * r_d)):
            m = np.stack([psi[a] for a in batch])
            p = adjoints(m) @ m
            r = np.maximum(frobs(m @ adjoints(m) @ m - m), frobs(p @ p - p))
            resid.update(zip(batch, r.tolist()))
    return resid
