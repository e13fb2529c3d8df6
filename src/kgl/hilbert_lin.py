"""Minimal Hilbert-space factorizations of partially PSD kernels.

Per partition part, the Gram block matrix G is factored as G = B* B with
B of full row rank; the columns of B belonging to a point x form the
feature map V_x, so that K(x, y) = V_x* V_y within the part. This is the
case J = I of the Krein pipeline: a HilbertLinearisation exposes B as its
stacked map and hilbert_space(rank) as its part spaces, and the checks of
krein_lin (factorization, reproducing kernel, canonical unitary,
represented shifts and their laws) certify it under the names and tags of
the hilbert family below. Only what has no indefinite counterpart lives
here: the bounded-shift constants with their consistency record, and the
partial-isometry law of inverse semigroupoids.
As in krein_lin, a representation is built from a linearisation (represent).
"""

from dataclasses import dataclass, field
from functools import cached_property

from . import krein_lin, numlin
from .errors import NotInvariant, NotPartiallyPSD
from .kernel import (
    OpKernel,
    Partition,
    _shift_constants,
    conv_blocks,
    is_invariant,
    is_partially_psd,
)
from .krein_core import hilbert_space
from .numlin import DEFAULT_TOL, Tolerances, frob
from .reports import Record
from .sgpd import Classification, LeftAction

__all__ = [
    "HILBERT",
    "HilbertLinearisation",
    "RkhsView",
    "HilbertRepresentation",
    "minimal_linearisation",
    "verify_factorization",
    "rkhs",
    "verify_reproducing",
    "unitary_equivalence",
    "EquivalenceResult",
    "represent",
    "invariant_representation",
    "representation_laws",
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

# The views and checks are those of the Krein pipeline.
RkhsView = krein_lin.RkKreinView
EquivalenceResult = krein_lin.EquivalenceResult
verify_factorization = krein_lin.verify_krein_factorization
verify_reproducing = krein_lin.verify_reproducing
unitary_equivalence = krein_lin.j_unitary_equivalence


@dataclass(eq=False)
class HilbertLinearisation:
    """Per part: rank, factor B with G = B*B, and per point the feature map.

    Read as a KreinLinearisation, the stacked map W is B and each part's
    space is hilbert_space(rank).
    """

    partition: Partition
    gram: dict  # part label -> G
    rank: dict  # part label -> r
    factor: dict  # part label -> B, shape (r, total_dim)
    features: dict  # point -> V_x, shape (r, dim x)
    tie_break: str = "first"
    family = HILBERT

    def part_label(self, x):
        return self.partition.part_of[x]

    @property
    def wmap(self) -> dict:
        return self.factor

    @cached_property
    def spaces(self) -> dict:
        return {label: hilbert_space(r) for label, r in self.rank.items()}


def minimal_linearisation(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL,
                          tie_break: str = "first") -> HilbertLinearisation:
    """Factor each part Gram matrix through a space of dimension its rank.

    tie_break picks one of the two deterministic eigendecomposition
    conventions; both give valid factorizations of the same kernel.
    """
    if not is_partially_psd(k, p, tol):
        raise NotPartiallyPSD("kernel must be PSD on every part")
    gram = conv_blocks(k, p)
    rank, factor = {}, {}
    for label, g in gram.items():
        factor[label], rank[label] = numlin.psd_root_factor(g, tol, tie_break=tie_break)
    return HilbertLinearisation(p, gram, rank, factor, krein_lin.feature_maps(p, factor),
                                tie_break)


def rkhs(lin: HilbertLinearisation) -> RkhsView:
    """The factor data reread as a space of sections x -> V_x* f."""
    return RkhsView(lin)


@dataclass(eq=False)
class HilbertRepresentation(krein_lin.KreinRepresentation):
    """Represented shifts on the factor spaces, with bounded-shift constants."""

    shift_constants: dict = field(default_factory=dict)  # element -> float or None

    @property
    def phi(self) -> dict:
        return self.psi


def represent(lin: HilbertLinearisation, act: LeftAction,
              tol: Tolerances = DEFAULT_TOL) -> HilbertRepresentation:
    """Compress the shift matrices of an invariant PSD kernel onto the factors.

    The represented shift of an element is B_c Psi B_d+, built and guarded
    by krein_lin.represented_shifts (PairingViolated when a shift does not
    descend to the quotient). The bounded-shift constant of every element,
    from the part Gram matrices of lin, is kept with it. Invariance is not checked.
    """
    psi, norms = krein_lin.represented_shifts(lin, act, tol)
    constants = _shift_constants(act, lin.partition, lin.gram, tol, act.sg.elements)
    return HilbertRepresentation(act, lin, psi, norms, shift_constants=constants)


def invariant_representation(k: OpKernel, act: LeftAction, p: Partition,
                             tol: Tolerances = DEFAULT_TOL) -> HilbertRepresentation:
    """minimal_linearisation, the invariance check (NotInvariant), then represent."""
    lin = minimal_linearisation(k, p, tol)
    ok, witness = is_invariant(k, act, tol)
    if not ok:
        raise NotInvariant(f"kernel is not invariant; witness {witness!r}")
    return represent(lin, act, tol)


def representation_laws(rep: HilbertRepresentation, tol: Tolerances = DEFAULT_TOL):
    """The laws of krein_representation_laws, then the bounded-shift
    consistency: each defined constant equals the squared represented norm."""
    records = krein_lin.krein_representation_laws(rep, tol)
    resid_bs, wit_bs = 0.0, None
    for a, m in rep.shift_constants.items():
        if m is None:
            continue
        r = abs(m - rep.norms[a] ** 2) / max(1.0, m)
        if r > resid_bs:
            resid_bs, wit_bs = r, (a,)
    bs_tol = 1e-8
    records.append(Record("shift constant equals squared represented norm",
                          "hilbert/bounded-shift-consistency",
                          resid_bs, bs_tol, resid_bs <= bs_tol, witness=wit_bs))
    return records


def partial_isometry_report(rep: HilbertRepresentation, cls: Classification,
                            tol: Tolerances = DEFAULT_TOL):
    """Partial-isometry residuals of every represented shift.

    The law is required exactly when the semigroupoid is inverse and its
    involution is the pseudo-inverse map (the canonical star of an inverse
    semigroupoid); otherwise the residuals are informational.
    """
    required = bool(cls.is_inverse and cls.star_matches_inverse)
    records = []
    for a, m in rep.phi.items():
        scale = max(1.0, rep.norms[a] ** 3)
        r1 = frob(m @ m.conj().T @ m - m)
        p = m.conj().T @ m
        r2 = frob(p @ p - p)
        resid = max(r1, r2)
        bound = tol.atol * scale
        passed = (resid <= bound) if required else True
        records.append(Record("partial isometry law", "hilbert/partial-isometry",
                              resid, bound, passed, witness=(a, "required" if required else "informational")))
    return records
