"""Linearisation pipeline for partially Hermitian kernels, indefinite and definite.

A Hermitian kernel need not be PSD on its parts, but it always splits as a
difference of PSD kernels, is dominated by a PSD kernel, and factors
through a finite-dimensional Krein space: K(x, y) = V_x* J V_y. Two
construction routes are kept side by side. The direct route applies the
induced-space construction to each part Gram matrix. The dominant route
factors through a dominating PSD kernel L: the kernel's form becomes a
Hermitian contraction (the Gram operator) on the L-quotient, whose induced
space composed with the L-factor gives the same linearisation up to a
J-unitary. The dominant route is the one that supports the distinguished
fundamental symmetries used by the reducibility check.

The Hilbert pipeline of PSD kernels (hilbert_lin) is the case J = I: the
direct linearisation of a partially PSD kernel, signature (r, 0) on every
part. The checks here read a linearisation only through its part spaces,
its stacked feature maps W, its feature slices and its family, a table
giving the name and tag of each of its records, so one implementation
certifies both: factorization and minimality, the reproducing-kernel
identities, the canonical (J-)unitary, the represented shifts and their
laws.

A representation is built from a linearisation that already exists
(represent), once the kernel's invariance has been decided.
"""

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .bundle import Section, stack, unstack
from .errors import (
    InvalidSemigroupoid,
    KernelNotDominated,
    NotHermitian,
    NotInvariant,
    PairingViolated,
    RankMismatch,
)
from .kernel import (
    OpKernel,
    Partition,
    _batches,
    _carry_spectra,
    _gather_index,
    _part_pairs,
    _shift_coordinates,
    conv_blocks,
    is_invariant,
    is_partially_hermitian,
    kernel_from_part_grams,
    part_spectra,
)
from .krein_core import gaps_unique, induced_from_spectrum, induced_krein, krein_adjoint
from .numlin import DEFAULT_TOL, Tolerances, frob, frobs
from .reports import Record
from .sgpd import LeftAction

__all__ = [
    "KREIN",
    "rekey",
    "GramData",
    "KreinLinearisation",
    "RkKreinView",
    "EquivalenceResult",
    "KreinRepresentation",
    "RepresentedShifts",
    "canonical_dominant",
    "gram_operator",
    "jordan_split",
    "split_records",
    "krein_linearisation",
    "feature_maps",
    "verify_krein_factorization",
    "verify_reproducing",
    "rk_krein_space",
    "uniqueness_report",
    "j_unitary_equivalence",
    "represented_shifts",
    "represent",
    "invariant_krein_representation",
    "krein_representation_laws",
    "fundamental_reducibility_check",
]

# The records of the indefinite family: check -> (record name, tag).
KREIN = {
    "factorization": ("indefinite factorization reconstructs the kernel", "krein/factorization"),
    "minimality": ("feature columns span the whole space", "krein/factorization"),
    "members": ("kernel columns are members", "krein/rk-space"),
    "reproducing": ("indefinite reproducing identity", "krein/rk-space"),
    "unitary": ("canonical map is J-unitary", "krein/gap-uniqueness"),
    "matches": ("canonical map matches features", "krein/gap-uniqueness"),
    "multiplicative": ("multiplicative on composable pairs", "krein/representation"),
    "star": ("star maps to the indefinite adjoint", "krein/representation"),
    "intertwining": ("intertwines the feature maps", "krein/representation"),
    "well-defined": ("represented shifts are well defined", "krein/representation"),
}


def _record(family: dict, check: str, resid: float, bound: float, witness) -> Record:
    name, tag = family[check]
    return Record(name, tag, resid, bound, resid <= bound, witness=witness)


def rekey(records, source: dict, target: dict) -> list:
    """Records of the source family as the same records of the target
    family: each check's name and tag replaced, every number kept."""
    check = {key: c for c, key in source.items()}
    return [Record(*target[check[r.name, r.tag]], r.residual, r.tolerance, r.passed,
                   witness=r.witness) for r in records]


def canonical_dominant(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL):
    """The dominating PSD kernel whose part Gram matrices are |G_s| = U|w|U*.

    Built from each part Gram's canonical spectrum (w, U), it carries the
    spectra of the |G_s| read from those (numlin.abs_spectrum), so its root
    factors, their pseudo-inverses and its form kernels cost no
    decomposition. Satisfies -L <= K <= L partwise. Taking spectral
    absolute values does not always preserve invariance, so is_invariant
    decides it per instance.
    """
    spectra = part_spectra(k, p, tol)
    l = kernel_from_part_grams(p, {label: (s.basis * np.abs(s.eigenvalues)) @ s.basis.conj().T
                                   for label, s in spectra.items()})
    _carry_spectra(l, p, tol, {label: numlin.abs_spectrum(s) for label, s in spectra.items()})
    return l


@dataclass(eq=False)
class GramData:
    """Per part: the dominant's factor, the kernel's Gram operator on the
    quotient, its gaps at zero and contraction norm (both read from its
    eigenvalues)."""

    partition: Partition
    dominant_factor: dict  # label -> B_L, shape (r_L, total_dim)
    dominant_rank: dict  # label -> r_L
    ghat: dict  # label -> Hermitian contraction, shape (r_L, r_L)
    gaps: dict  # label -> (gap_neg or None, gap_pos or None)
    contraction: dict  # label -> operator norm of ghat


def gram_operator(k: OpKernel, l: OpKernel, p: Partition,
                  tol: Tolerances = DEFAULT_TOL) -> GramData:
    """Compress the kernel's form onto the quotient coordinates of a dominant.

    The factor of the dominating PSD kernel L, that factor's pseudo-inverse
    and its form kernel are read from L's part spectra (part_spectra, made
    with tol; canonical_dominant carries them). The result per part is the
    unique Hermitian matrix with B_L* Ghat B_L = G_K; it is a contraction
    exactly when -L <= K <= L. Raises KernelNotDominated when L's form
    kernel is not contained in K's (the quotient is then undefined) or the
    contraction bound fails. The norm and gaps of the Gram operator come
    from its eigenvalues alone. Both residual bounds are atol times ||G_K||,
    with no floor.
    """
    if not is_partially_hermitian(k, p, tol):
        raise NotHermitian("Gram operator needs a partially Hermitian kernel")
    grams_k = conv_blocks(k, p)
    factor, ranks, ghat, gaps, contraction = {}, {}, {}, {}, {}
    for label, s_l in part_spectra(l, p, tol).items():
        g_k = grams_k[label]
        if not s_l.is_psd:
            raise KernelNotDominated(f"part {label!r}: the dominant is not PSD")
        b_l, r_l = s_l.factor, s_l.rank
        nl = s_l.kernel_basis
        scale = frob(g_k)
        if nl.shape[1]:
            resid = frob(g_k @ nl)
            if resid > tol.atol * scale:
                raise KernelNotDominated(
                    f"part {label!r}: kernel form does not vanish on the dominant's "
                    f"form kernel (residual {resid:.3e})")
        bp = s_l.factor_pinv
        gh = bp.conj().T @ g_k @ bp
        gh = 0.5 * (gh + gh.conj().T)
        s_gh = numlin.spectrum_values(gh, tol)
        norm = s_gh.norm  # ||ghat||, ghat Hermitian
        if norm > 1.0 + tol.atol:
            raise KernelNotDominated(
                f"part {label!r}: Gram operator norm {norm:.12f} exceeds 1, "
                "so the dominance inequality fails")
        resid = frob(b_l.conj().T @ gh @ b_l - g_k)
        if resid > tol.atol * scale:
            raise KernelNotDominated(
                f"part {label!r}: quotient compression loses the form "
                f"(residual {resid:.3e})")
        factor[label] = b_l
        ranks[label] = r_l
        ghat[label] = gh
        gaps[label] = s_gh.gaps
        contraction[label] = norm
    return GramData(p, factor, ranks, ghat, gaps, contraction)


def _split_certificate(s) -> dict:
    """The ranks of the split sides U diag(w+-) U* of a part Gram's spectrum
    (w, U) and of their sum U|w|U*, counted at the Gram's own scale; additive
    ranks mean the ranges intersect trivially (disjointness)."""
    r_plus, r_minus = s.signature
    return {"rank_plus": r_plus, "rank_minus": r_minus, "rank_sum": s.rank,
            "disjoint": r_plus + r_minus == s.rank}


def jordan_split(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL):
    """Split K = K_plus - K_minus with both parts PSD and range-disjoint,
    spectrally per part; cert holds each part's _split_certificate."""
    plus, minus, cert = {}, {}, {}
    for label, s in part_spectra(k, p, tol).items():
        w, u = s.eigenvalues, s.basis
        plus[label] = (u * np.clip(w, 0.0, None)) @ u.conj().T
        minus[label] = (u * np.clip(-w, 0.0, None)) @ u.conj().T
        cert[label] = _split_certificate(s)
    return kernel_from_part_grams(p, plus), kernel_from_part_grams(p, minus), cert


def split_records(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> list:
    """The krein/split records, read from the part spectra (w, U) with no
    split kernel built: per part, that K_plus - K_minus = U diag(w) U*
    reconstructs the kernel and that the ranks of the sides add up."""
    grams, records = conv_blocks(k, p), []
    for label, s in part_spectra(k, p, tol).items():
        g, u = grams[label], s.basis
        recon = u @ (u.conj() * s.eigenvalues).T  # U diag(w) U*
        recon -= g
        resid = frob(recon)
        bound = tol.atol * max(1.0, frob(g))
        c = _split_certificate(s)
        records.append(Record("split reconstructs the kernel", "krein/split",
                              resid, bound, resid <= bound, witness=label))
        records.append(Record("split parts have disjoint ranges", "krein/split",
                              float(abs(c["rank_plus"] + c["rank_minus"] - c["rank_sum"])),
                              0.5, c["disjoint"], witness={"part": label, **c}))
    return records


@dataclass(eq=False)
class KreinLinearisation:
    """Per part: a Krein space and the stacked feature map W with W*JW = G.

    features[x] is the column slice of W at x, so K(x, y) = V_x* J V_y
    within each part. The dominant kernel is kept when the dominant route
    built the object, and the part Grams' canonical spectra, whose canonical
    maps are the W, when the direct route did. family names the records of
    its checks: KREIN, or HILBERT when J = I.
    """

    partition: Partition
    gram: dict  # label -> G_K
    spaces: dict  # label -> KreinSpace
    wmap: dict  # label -> W, shape (space.dim, total_dim)
    features: dict  # point -> V_x
    dominant: OpKernel = None
    family: dict = field(default_factory=lambda: KREIN)
    spectra: dict = None  # label -> Spectrum of G_K with W its factor (direct route)

    @property
    def provenance(self) -> str:
        """The construction route: "dominant" when a dominant built it, else "direct"."""
        return "direct" if self.dominant is None else "dominant"

    def _spectrum(self, label):
        """The spectrum whose canonical map W is, or None (dominant route,
        or a W replaced since)."""
        s = (self.spectra or {}).get(label)
        return s if s is not None and s.factor is self.wmap[label] else None

    def pinv(self, label, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """W+ of a part: U_k / sqrt|w_k| from its spectrum on the direct
        route, numlin.pinv (an SVD) where W has no spectrum."""
        s = self._spectrum(label)
        return numlin.pinv(self.wmap[label], tol) if s is None else s.factor_pinv

    def singular_values(self, label) -> np.ndarray:
        """The singular values of a part's W: sqrt|w_k| over the retained
        eigenvalues of its spectrum (in the spectrum's order), else those of
        a values-only SVD (descending)."""
        s, w = self._spectrum(label), self.wmap[label]
        if s is not None:
            return np.sqrt(np.abs(s.eigenvalues[s.retained]))
        return np.linalg.svd(w, compute_uv=False) if w.size else np.zeros(0)

    def norm(self, label) -> float:
        """||W|| of a part, its largest singular value (0.0 for dimension 0)."""
        return float(self.singular_values(label).max(initial=0.0))

    def sigma_min(self, label) -> float:
        """The smallest singular value of a part's W, positive since a minimal
        W has full row rank (0.0 for a part of dimension 0)."""
        sv = self.singular_values(label)
        return float(sv.min()) if sv.size else 0.0


def feature_maps(p: Partition, wmap: dict) -> dict:
    """Per point x, the column slice V_x of its part's stacked map W."""
    return {x: wmap[label][:, idx.slice_of(x)]
            for label, idx in p.parts.items() for x in idx.part}


def krein_linearisation(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL,
                        dominant: OpKernel = None) -> KreinLinearisation:
    """Build a minimal indefinite linearisation of a Hermitian kernel.

    Without a dominant, the direct route applies the induced-space
    construction to each part Gram matrix. With one, the dominant route goes
    through the Gram operator of that dominating PSD kernel (such as
    canonical_dominant(k, p)); the two routes agree up to a J-unitary map.
    """
    grams = conv_blocks(k, p)
    spaces, wmap = {}, {}
    spectra = None
    if dominant is None:
        spectra = part_spectra(k, p, tol)
        for label, s in spectra.items():
            ik = induced_from_spectrum(s)
            spaces[label] = ik.space
            wmap[label] = ik.pi
    else:
        gd = gram_operator(k, dominant, p, tol)
        for label in grams:
            ik = induced_krein(gd.ghat[label], tol)
            spaces[label] = ik.space
            wmap[label] = ik.pi @ gd.dominant_factor[label]
    return KreinLinearisation(p, grams, spaces, wmap, feature_maps(p, wmap),
                              dominant=dominant, spectra=spectra)


def _view_records(view, tol: Tolerances) -> list:
    """Per part, its (members, reproducing, factorization, minimality) records.

    One E = W*(JW) - G, J applied as its +-1 vector, gives the factorization
    residual ||E|| and the member residual max_x ||E[:, x]||: the member
    represented by V_x h stacks to W*JV_x h, the kernel column to G[:, x] h.
    The reproducing identity is read on three deterministic members W*J f,
    one batch of matrix-vector products (each rounded as W*J f alone), at
    every stacked coordinate (x, h) against the pairing [V_x h, f]_J of the
    feature column with f, summed coordinate by coordinate. Minimality
    counts W's singular values above the singular-value cutoff
    (singular_values: no SVD while W is its spectrum's).
    """
    lin = view.lin
    rng = np.random.Generator(np.random.Philox(67890))
    rows = []
    for label, idx in lin.partition.parts.items():
        w, g, dim = lin.wmap[label], lin.gram[label], lin.spaces[label].dim
        jdiag = np.asarray(lin.spaces[label].jdiag, dtype=np.float64)
        bound = tol.atol * max(1.0, frob(g))
        jw = w.conj() * jdiag[:, None]  # conj(JW), so that W*J is jw.T
        e = jw.T @ w
        e -= g
        col_resid = max((frob(e[:, idx.slice_of(x)]) for x in idx.part), default=0.0)
        factor_resid = frob(e)
        del e

        rep_resid = 0.0
        if dim:
            trials = np.stack([rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                               for _ in range(3)])
            members = (jw.T @ trials[:, :, None])[:, :, 0]
            pairing = np.hstack([lin.features[x] for x in idx.part]).conj()
            for f, lhs in zip(trials, members):
                rhs = np.sum(pairing * (jdiag * f)[:, None], axis=0)
                rep_resid = max(rep_resid, float(np.max(np.abs(lhs - rhs), initial=0.0)))

        sv = lin.singular_values(label)
        span = int(np.count_nonzero(sv > tol.rank_rel * sv.max(initial=0.0)))
        rows.append((_record(lin.family, "members", col_resid, bound, label),
                     _record(lin.family, "reproducing", rep_resid, bound, label),
                     _record(lin.family, "factorization", factor_resid, bound, label),
                     _record(lin.family, "minimality", float(abs(span - dim)), 0.5, label)))
    return rows


def verify_krein_factorization(lin, tol: Tolerances = DEFAULT_TOL):
    """Records certifying reconstruction and minimality (_view_records)."""
    return [r for row in _view_records(RkKreinView(lin), tol) for r in row[2:]]


@dataclass(eq=False)
class RkKreinView:
    """Sections x -> (J V_x)* f for f in a part's Krein space.

    The kernel column at (x, h) is the member represented by V_x h; the
    reproducing identity pairs evaluation against kernel columns in the
    indefinite inner product. With J = I this is the reproducing-kernel
    Hilbert space of a PSD kernel.
    """

    lin: KreinLinearisation

    def member(self, label, f) -> Section:
        w = self.lin.wmap[label]
        jdiag = np.asarray(self.lin.spaces[label].jdiag, dtype=np.float64)
        vec = w.conj().T @ (jdiag * np.asarray(f, dtype=np.complex128).reshape(-1))
        return unstack(vec, self.lin.partition.index(label))

    def kernel_column(self, x, h) -> Section:
        label = self.lin.partition.part_of[x]
        idx = self.lin.partition.index(label)
        col = self.lin.gram[label][:, idx.slice_of(x)] @ np.asarray(
            h, dtype=np.complex128).reshape(-1)
        return unstack(col, idx)


def verify_reproducing(view: RkKreinView, tol: Tolerances = DEFAULT_TOL):
    """Records certifying the reproducing-kernel identities (_view_records)."""
    return [r for row in _view_records(view, tol) for r in row[:2]]


def rk_krein_space(lin, tol: Tolerances = DEFAULT_TOL):
    """The reproducing-kernel view of a linearisation, plus its certificates.

    Returns (view, records): the records of verify_reproducing, then those
    of verify_krein_factorization, from one pass over the parts.
    """
    view = RkKreinView(lin)
    rows = _view_records(view, tol)
    return view, [r for row in rows for r in row[:2]] + [r for row in rows for r in row[2:]]


def uniqueness_report(k: OpKernel, l: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL):
    """Per part, the uniqueness verdict from the gaps at zero of the Gram
    operator of the dominating kernel l (see gram_operator).

    In finite dimensions every Hermitian contraction has spectrum free of
    an interval on at least one side of zero, so the induced space (hence
    the linearisation through L) is unique up to J-unitary equivalence;
    each record carries the witnessing half-gap. Non-uniqueness needs
    infinite-dimensional spectral accumulation at zero from both sides.
    """
    return [_uniqueness_record(label, *gaps)
            for label, gaps in gram_operator(k, l, p, tol).gaps.items()]


def _uniqueness_record(label, gap_neg, gap_pos) -> Record:
    """The krein/gap-uniqueness record of a part whose Gram operator has
    these gaps at zero (None for a side with no spectrum)."""
    unique = gaps_unique(gap_neg, gap_pos)[0]
    finite_gaps = [g for g in (gap_neg, gap_pos) if g is not None]
    eps = min(finite_gaps) if finite_gaps else 1.0
    note = ("finite-dimensional collapse: the Gram operator has finitely many "
            "eigenvalues, so a one-sided spectral gap at zero always exists; "
            "the non-uniqueness alternative needs spectral accumulation at "
            "zero from both sides and is unreachable in finite dimensions")
    return Record("induced space unique up to J-unitary equivalence", "krein/gap-uniqueness",
                  0.0 if unique else 1.0, 0.5, unique,
                  witness={"part": label, "gap_neg": gap_neg, "gap_pos": gap_pos, "eps": eps,
                           "note": note})


@dataclass(eq=False)
class EquivalenceResult:
    maps: dict  # part label -> J-unitary U with U W_a = W_b
    records: list

    @property
    def ok(self):
        return all(r.passed for r in self.records)


def j_unitary_equivalence(lin_a, lin_b, tol: Tolerances = DEFAULT_TOL) -> EquivalenceResult:
    """Certify the canonical J-unitary between two minimal linearisations.

    U = W_b W_a+ is pinned on the feature columns by minimality; the
    records certify the J-isometry law (the Krein adjoint of U inverts it)
    and that U matches the feature maps. Raises RankMismatch when the part
    dimensions or signatures disagree.
    """
    p = lin_a.partition
    maps, records = {}, []
    for label in p.parts:
        sa, sb = lin_a.spaces[label], lin_b.spaces[label]
        if sa.dim != sb.dim:
            raise RankMismatch(f"part {label!r}: dims {sa.dim} vs {sb.dim}")
        if sa.signature != sb.signature:
            raise RankMismatch(
                f"part {label!r}: signatures {sa.signature} vs {sb.signature}")
        u = lin_b.wmap[label] @ lin_a.pinv(label, tol)
        maps[label] = u
        bound = tol.atol * max(1.0, frob(lin_a.gram[label]))
        usharp = krein_adjoint(u, sa, sb)
        resid_iso = frob(usharp @ u - np.eye(sa.dim)) if sa.dim else 0.0
        resid_v = 0.0
        for x in p.index(label).part:
            resid_v = max(resid_v, frob(u @ lin_a.features[x] - lin_b.features[x]))
        records.append(_record(lin_a.family, "unitary", resid_iso, bound, label))
        records.append(_record(lin_a.family, "matches", resid_v, bound, label))
    return EquivalenceResult(maps, records)


@dataclass(eq=False)
class KreinRepresentation:
    """Represented shifts between part spaces, with their operator norms
    and law certificates."""

    action: LeftAction
    lin: KreinLinearisation
    psi: Mapping  # element -> matrix space_d -> space_c (RepresentedShifts)
    norms: dict  # element -> operator norm of psi
    records: list = field(default_factory=list)


@dataclass(eq=False)
class _LawData:
    """What the laws read of the shifts, per element, with E_a the pairing
    residual psi(a) W_d - W_c[:, c_a]."""

    norms: dict = field(default_factory=dict)  # ||psi(a)||
    pairing: dict = field(default_factory=dict)  # ||E_a||
    scale: dict = field(default_factory=dict)  # ||W_c Psi_a||, the scale of its bound
    cols: dict = field(default_factory=dict)  # squared column norms of E_a
    point: dict = field(default_factory=dict)  # norm of each point's column block of E_a
    star: dict = field(default_factory=dict)  # ||psi(a*) - J_d psi(a)* J_c||
    pairs: tuple = None  # _pair_bounds, once read


class RepresentedShifts(Mapping):
    """psi(a) = W_c[:, c_a] W_d+ of every element, a read-only mapping that
    rebuilds psi(a), read-only, on each access. laws holds what the pass
    that built it read of the shifts."""

    def __init__(self, lin, act: LeftAction, tol: Tolerances, laws: _LawData):
        self._lin, self._act, self.laws = lin, act, laws
        self._coords = _shift_coordinates(act, lin.partition)
        self._pinv = functools.cache(lambda label: lin.pinv(label, tol))

    def __getitem__(self, a) -> np.ndarray:
        sg = self._act.sg
        if a not in self._coords:
            raise KeyError(a)
        t = self._lin.wmap[sg.c[a]][:, self._coords[a]] @ self._pinv(sg.d[a])
        t.setflags(write=False)
        return t

    def __iter__(self):
        return iter(self._act.sg.elements)

    def __len__(self) -> int:
        return len(self._act.sg.elements)


def _require_involution(sg):
    """Raise InvalidSemigroupoid unless the star is an involution that swaps
    domain and codomain, as the pass's star orbits need."""
    for a in sg.elements:
        b = sg.star.get(a)
        if b is None or sg.star.get(b) != a or (sg.d[b], sg.c[b]) != (sg.c[a], sg.d[a]):
            raise InvalidSemigroupoid(f"the star of {a!r} is not an involution that "
                                      "swaps its domain and codomain")


def _star_orbits(sg, elements) -> dict:
    """elements as star orbits, (a, a*), or (a,) where a* is a or not among
    them, grouped by the (domain, codomain) symbol pair of a, in order."""
    members, seen, groups = set(elements), set(), {}
    for a in elements:
        if a in seen:
            continue
        b = sg.star[a]
        orbit = (a, b) if b != a and b in members else (a,)
        seen.update(orbit)
        groups.setdefault((sg.d[a], sg.c[a]), []).append(orbit)
    return groups


def _law_pass(lin, act: LeftAction, tol: Tolerances, elements, psi=None) -> _LawData:
    """The _LawData of elements, whose action values must be usable, read
    in one pass over batches of star orbits (a, a*). A batch's shifts are
    stacked per part pair, a bounded part at a time: W_c[:, c_a] W_d+ (W_d+
    and ||W_c|| from the part spectra on the direct route), or read from a
    given mapping psi. The star residual pairs psi(a) with psi(a*) from the
    batch. Only scalars and per-column vectors outlive a batch.
    """
    sg, p = act.sg, lin.partition
    _require_involution(sg)
    coords = _shift_coordinates(act, p)
    w_pinv = functools.cache(lambda s: lin.pinv(s, tol))
    w_norm = functools.cache(lin.norm)
    starts = {label: np.array([idx.offsets[x] for x in idx.part], dtype=np.int64)
              for label, idx in p.parts.items()}
    jdiag = {label: np.asarray(space.jdiag, dtype=np.float64)
             for label, space in lin.spaces.items()}
    data = _LawData()

    def read(part, sd, sc):
        """The stacked shifts of part, of one part pair, with what data reads of them."""
        c = np.stack([coords[a] for a in part])
        t = (lin.wmap[sc][:, c].transpose(1, 0, 2) @ w_pinv(sd) if psi is None
             else np.stack([psi[a] for a in part]))
        _read_pairing(lin, data, part, sd, sc, c, t, starts[sd], w_norm(sc))
        return t

    def read_batch(groups: dict):
        """Read a batch of star orbits, grouped by part pair: the shifts, then
        the star residuals that pair them."""
        stacks = []  # (part pair, elements, their stacked shifts)
        for (sd, sc), group in groups.items():
            item = 16 * lin.spaces[sc].dim * (2 * lin.wmap[sd].shape[1] + lin.spaces[sd].dim)
            stacks += [((sd, sc), part, read(part, sd, sc)) for part in _batches(group, item)]
        shifts = {a: m for _, part, t in stacks for a, m in zip(part, t)}
        for (sd, sc), part, t in stacks:
            if not all(sg.star[a] in shifts for a in part):
                continue  # a star outside the pass: no star residual is read
            mirror = ([shifts[sg.star[part[0]]]] if len(part) == 1  # no copy of one shift
                      else np.stack([shifts[sg.star[a]] for a in part]))
            # psi(a*) - J_d psi(a)* J_c, formed in place in row-major order
            sharp = np.conjugate(t.swapaxes(-1, -2), order="C")
            np.multiply(jdiag[sd][:, None], sharp, out=sharp)
            np.multiply(sharp, jdiag[sc][None, :], out=sharp)
            np.subtract(mirror, sharp, out=sharp)
            data.star.update(zip(part, frobs(sharp).tolist()))

    for (sd, sc), orbits in _star_orbits(sg, elements).items():
        # a batch keeps its orbits' shifts, in stacks formed a part at a time
        for batch in _batches(orbits, 2 * 16 * lin.spaces[sd].dim * lin.spaces[sc].dim):
            read_batch(_part_pairs(sg, [a for o in batch for a in o]))
    return data


def _read_pairing(lin, data: _LawData, group, sd, sc, c, t, starts, w_norm: float):
    """Read into data what the laws need of the stacked shifts t of group,
    one (domain, codomain) part pair, with their coordinate maps c."""
    w_c, w_d = lin.wmap[sc], lin.wmap[sd]
    (r_c, n_c), r_d = w_c.shape, w_d.shape[0]
    e = t @ w_d
    e -= w_c[:, c].transpose(1, 0, 2)
    sq = e.real ** 2
    sq += e.imag ** 2
    del e
    cols = sq.sum(axis=1)
    pairing = np.sqrt(sq.sum(axis=(-2, -1)))
    del sq
    per_point = (np.sqrt(np.add.reduceat(cols, starts, axis=1)) if starts.size
                 else np.zeros((len(group), 0)))
    # ||Psi||^2 is the largest number of coordinates sent to one coordinate;
    # the pairing bound scales with ||W_c Psi||, as the residual does, with no floor
    width = max(n_c, 1)
    hits = np.bincount((c + width * np.arange(len(group))[:, None]).ravel(),
                       minlength=width * len(group))
    mult = np.sqrt(hits.reshape(len(group), width).max(axis=1))
    top = (np.linalg.svd(t, compute_uv=False)[:, 0] if r_c and r_d
           else np.zeros(len(group)))
    for i, a in enumerate(group):
        data.norms[a], data.pairing[a] = float(top[i]), float(pairing[i])
        data.scale[a] = w_norm * float(mult[i])
        data.cols[a], data.point[a] = cols[i], per_point[i]


def represented_shifts(lin, act: LeftAction, tol: Tolerances = DEFAULT_TOL):
    """The represented shift W_c Psi W_d+ of every element, and its norm.

    W_c Psi is a column gather of W_c. Invariance makes the shift respect
    the form kernels, so the compression satisfies W_c Psi = Psi_rep W_d;
    that pairing identity is verified, with a bound that scales with the
    kernel, and raised as PairingViolated on failure, at the first element,
    in order, whose gather or pairing fails. One pass (_law_pass) reads what
    the laws need. Returns (psi, norms): psi the RepresentedShifts, which
    keep what the pass read.
    """
    sg, p = act.sg, lin.partition
    coords = _shift_coordinates(act, p)
    usable = [a for a in sg.elements if coords[a].size == 0 or coords[a].min() >= 0]
    data = _law_pass(lin, act, tol, usable)
    for alpha in sg.elements:
        if alpha not in data.pairing:
            _gather_index(act, p, coords, alpha)
        if data.pairing[alpha] > tol.atol * data.scale[alpha]:
            raise PairingViolated(
                f"shift of {alpha!r} does not descend to the quotient "
                f"(residual {data.pairing[alpha]:.3e})")
    return RepresentedShifts(lin, act, tol, data), {a: data.norms[a] for a in sg.elements}


def represent(lin, act: LeftAction, tol: Tolerances = DEFAULT_TOL) -> KreinRepresentation:
    """The shifts of represented_shifts on lin, with rep.records certifying
    their laws. The kernel lin linearises must be invariant; this is not checked."""
    rep = KreinRepresentation(act, lin, *represented_shifts(lin, act, tol))
    rep.records = krein_representation_laws(rep, tol)
    return rep


def invariant_krein_representation(k: OpKernel, act: LeftAction, p: Partition,
                                   tol: Tolerances = DEFAULT_TOL,
                                   dominant: OpKernel = None):
    """Linearise an invariant Hermitian kernel and represent the shifts.

    Returns (lin, rep). With a dominant supplied the linearisation goes
    through its Gram operator (required for the reducibility check);
    otherwise the direct route is used, so a non-invariant canonical
    dominant never blocks construction. Raises NotInvariant when the
    kernel, once linearised, is not invariant.
    """
    lin = krein_linearisation(k, p, tol, dominant)
    ok, witness = is_invariant(k, act, tol)
    if not ok:
        raise NotInvariant(f"kernel is not invariant; witness {witness!r}")
    return lin, represent(lin, act, tol)


def _law_data(rep, tol: Tolerances) -> _LawData:
    """The _LawData rep.psi keeps, if it is the RepresentedShifts of rep's
    own maps and action, else that of a pass over rep.psi, so that a psi
    put in place of the represented shifts is certified as it is."""
    psi = rep.psi
    if (isinstance(psi, RepresentedShifts) and psi._lin.wmap is rep.lin.wmap
            and psi._act is rep.action):
        return psi.laws
    return _law_pass(rep.lin, rep.action, tol, rep.action.sg.elements, psi=psi)


def krein_representation_laws(rep, tol: Tolerances = DEFAULT_TOL):
    """Records for multiplicativity, indefinite-adjoint compatibility and
    intertwining of a representation (with J = I, the adjoint is the
    ordinary one). The bounds are atol * max(1, largest squared norm of a
    shift), and for intertwining also times the largest norm of a part's W,
    which scales with the kernel's square root.

    Every law is read from the pairing residuals E_a = psi(a) W_d - W_c[:, c_a]
    of rep.psi (_law_data), with no loop over pairs of elements and no stack
    of shifts kept. Intertwining is the largest Frobenius norm of a point's
    column block of some E_a (witness (a, x)); star is the largest
    ||psi(a*) - J_d psi(a)* J_c|| (witness (a,)). Multiplicativity is
    derived: psi(a)psi(b) W_d = W_c[:, c_a[c_b]] + E_a[:, c_b] + psi(a) E_b and
    psi(ab) W_d = W_c[:, c_ab] + E_ab, and a minimal W_d has full row rank,
    so on every composable pair

        ||psi(a)psi(b) - psi(ab)|| <= (||W_c[:, c_a[c_b]] - W_c[:, c_ab]||
                                       + ||E_a[:, c_b]|| + ||psi(a)|| ||E_b||
                                       + ||E_ab||) / sigma_min(W_d),

    Frobenius norms but for the operator norm ||psi(a)||. The first term is 0
    wherever the integer identity c_a[c_b] == c_ab holds (action axiom A3 on
    coordinates), and is computed only where it fails. The record's residual
    is the largest such bound, a certified upper bound of the exhaustive
    residual, with witness ((a, b), sigma_min(W_d)); ties go to the first
    element or pair in table order.
    """
    act, lin = rep.action, rep.lin
    sg, p = act.sg, lin.partition
    coords = _shift_coordinates(act, p)
    for a in sg.elements:
        _gather_index(act, p, coords, a)
    data = _law_data(rep, tol)
    bound = tol.atol * max([1.0] + [data.norms[a] ** 2 for a in sg.elements])
    feature_scale = max((frob(w) for w in lin.wmap.values()), default=0.0)
    resid_int, wit_int = 0.0, None
    for a in sg.elements:
        point = data.point[a]
        if point.size:
            j = int(np.argmax(point))
            if point[j] > resid_int:
                resid_int, wit_int = float(point[j]), (a, p.index(sg.d[a]).part[j])
    resid_sharp, wit_sharp = 0.0, None
    for a in sg.elements:
        if data.star[a] > resid_sharp:
            resid_sharp, wit_sharp = data.star[a], (a,)
    resid_mul, wit_mul = 0.0, None
    resid, margin = _pair_bounds(act, lin, data)
    if resid.size:
        i = int(np.argmax(resid))
        if resid[i] > 0.0:
            a, b = sg.code.pairs[i]
            resid_mul = float(resid[i])
            wit_mul = ((sg.elements[a], sg.elements[b]), float(margin[i]))
    return [_record(lin.family, "multiplicative", resid_mul, bound, wit_mul),
            _record(lin.family, "star", resid_sharp, bound, wit_sharp),
            _record(lin.family, "intertwining", resid_int, bound * feature_scale, wit_int)]


def _pair_bounds(act: LeftAction, lin, data: _LawData):
    """(bound, sigma_min(W_d)) per composable pair, in table order: the
    derived multiplicativity bound of krein_representation_laws, from each
    element's squared column norms cols of E_a. Pairs are taken per
    (middle, domain) symbol in batches."""
    if data.pairs is not None:
        return data.pairs
    sg, code = act.sg, act.sg.code
    coords = _shift_coordinates(act, lin.partition)
    n_sym = len(sg.symbols)
    ka, kb = code.pairs[:, 0].astype(np.int64), code.pairs[:, 1].astype(np.int64)
    kab = code.T[ka, kb].astype(np.int64)
    bad = np.flatnonzero((code.d[ka] != code.c[kb]) | (code.d[kab] != code.d[kb])
                         | (code.c[kab] != code.c[ka]))
    if bad.size:
        a, b = code.pairs[bad[0]]
        raise InvalidSemigroupoid(
            f"product of the composable pair ({sg.elements[a]!r}, {sg.elements[b]!r}) "
            "has the wrong domain or codomain")
    # per domain symbol, the stacked coordinates and squared column norms of its
    # elements; row[i] is element i's row in its symbol's stacks
    row = np.zeros(len(sg.elements), dtype=np.int64)
    stacks = {}
    by_domain = {}
    for a in sg.elements:
        by_domain.setdefault(sg.d[a], []).append(a)
    for s, members in by_domain.items():
        row[[code.index[a] for a in members]] = np.arange(len(members))
        stacks[s] = (np.stack([coords[a] for a in members]),
                     np.stack([data.cols[a] for a in members]))
    norm = np.array([data.norms[a] for a in sg.elements])
    eres = np.array([float(np.sqrt(data.cols[a].sum())) for a in sg.elements])
    sigma = functools.cache(lin.sigma_min)
    resid = np.zeros(len(ka))
    margin = np.zeros(len(ka))
    key = code.c[kb].astype(np.int64) * n_sym + code.d[kb]
    for k in np.flatnonzero(np.bincount(key, minlength=1)).tolist():
        mid, dom = sg.symbols[k // n_sym], sg.symbols[k % n_sym]
        if not lin.spaces[dom].dim:
            continue  # psi(a)psi(b) - psi(ab) has no columns
        c_mid, q_mid = stacks[mid]
        c_dom = stacks[dom][0]
        s_min = sigma(dom)
        sel = np.flatnonzero(key == k)
        for batch in _batches(sel, 8 * (2 * c_mid.shape[1] + 3 * c_dom.shape[1])):
            a, b, ab = ka[batch], kb[batch], kab[batch]
            c_b = c_dom[row[b]]
            composed = np.take_along_axis(c_mid[row[a]], c_b, axis=1)
            gathered = np.sqrt(np.take_along_axis(q_mid[row[a]], c_b, axis=1).sum(axis=1))
            total = gathered + norm[a] * eres[b] + eres[ab]
            for i in np.flatnonzero((composed != c_dom[row[ab]]).any(axis=1)).tolist():
                w = lin.wmap[sg.c[sg.elements[a[i]]]]
                total[i] += frob(w[:, composed[i]] - w[:, c_dom[row[ab[i]]]])
            resid[batch] = total / s_min
            margin[batch] = s_min
    data.pairs = resid, margin
    return data.pairs


def fundamental_reducibility_check(rep: KreinRepresentation, tol: Tolerances = DEFAULT_TOL):
    """Check that the represented shifts commute with the part symmetries.

    The distinguished fundamental symmetries exist when the linearisation
    was built through a dominant kernel that is itself invariant; then the
    diagonal J of each part space realizes the sign of the Gram operator
    in induced coordinates, and every represented shift must commute with
    the J bundle. When the hypothesis fails (direct route, or dominant not
    invariant) the report says not-applicable instead of testing a law
    that is not guaranteed.
    """
    if rep.lin.provenance != "dominant":
        return [Record("not applicable: linearisation was not built through a dominant",
                       "krein/reducibility", 0.0, 0.5, True,
                       witness={"provenance": rep.lin.provenance})]
    ok, witness = is_invariant(rep.lin.dominant, rep.action, tol)
    if not ok:
        return [Record("not applicable: the dominant kernel is not invariant",
                       "krein/reducibility", 0.0, 0.5, True,
                       witness={"invariance_witness": witness})]
    records = []
    sg = rep.action.sg
    jdiag = {label: np.asarray(space.jdiag, dtype=np.float64)
             for label, space in rep.lin.spaces.items()}
    for a, m in rep.psi.items():
        scale = max(1.0, rep.norms[a])
        resid = frob(jdiag[sg.c[a]][:, None] * m - m * jdiag[sg.d[a]])
        records.append(Record("represented shift commutes with the symmetry bundle",
                              "krein/reducibility", resid, tol.atol * scale,
                              resid <= tol.atol * scale, witness=(a,)))
    return records
