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
    semigroupoid); otherwise the residuals are informational. The shifts of
    one (domain, codomain) part pair are checked as one stack per batch.
    """
    required = bool(cls.is_inverse and cls.star_matches_inverse)
    sg, psi = rep.action.sg, rep.psi
    resid = {}
    for group in _part_pairs(sg, psi).values():
        r_c, r_d = psi[group[0]].shape
        for batch in _batches(group, 16 * 4 * (r_c * r_d + r_d * r_d)):
            m = np.stack([psi[a] for a in batch])
            p = adjoints(m) @ m
            r = np.maximum(frobs(m @ adjoints(m) @ m - m), frobs(p @ p - p))
            resid.update(zip(batch, r.tolist()))
    records = []
    for a in psi:
        bound = tol.atol * max(1.0, rep.norms[a] ** 3)
        passed = (resid[a] <= bound) if required else True
        records.append(Record("partial isometry law", "hilbert/partial-isometry",
                              resid[a], bound, passed,
                              witness=(a, "required" if required else "informational")))
    return records
