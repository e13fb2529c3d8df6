"""Minimal Hilbert-space factorizations of partially PSD kernels.

Per partition part, the Gram block matrix G is factored as G = B* B with
B of full row rank; the columns of B belonging to a point x form the
feature map V_x, so that K(x, y) = V_x* V_y within the part. The same
data read the other way is a reproducing-kernel space of sections. For an
invariant kernel, compressing the shift matrices onto the factor spaces
yields a star-representation of the semigroupoid.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import numlin
from .bundle import Section, unstack
from .errors import (
    NotInvariant,
    NotPartiallyPSD,
    QuotientIncompatible,
    RankMismatch,
)
from .kernel import (
    OpKernel,
    Partition,
    _PartForm,
    _shift,
    conv_blocks,
    is_invariant,
    is_partially_psd,
)
from .numlin import DEFAULT_TOL, Tolerances, frob, opnorm
from .reports import Record
from .sgpd import Classification, LeftAction

__all__ = [
    "HilbertLinearisation",
    "RkhsView",
    "HilbertRepresentation",
    "minimal_linearisation",
    "verify_factorization",
    "rkhs",
    "verify_reproducing",
    "unitary_equivalence",
    "EquivalenceResult",
    "invariant_representation",
    "representation_laws",
    "partial_isometry_report",
]


@dataclass(eq=False)
class HilbertLinearisation:
    """Per part: rank, factor B with G = B*B, and per point the feature map."""

    partition: Partition
    gram: dict  # part label -> G
    rank: dict  # part label -> r
    factor: dict  # part label -> B, shape (r, total_dim)
    features: dict  # point -> V_x, shape (r, dim x)
    tie_break: str = "first"

    def part_label(self, x):
        return self.partition.part_of[x]


def minimal_linearisation(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL,
                          tie_break: str = "first") -> HilbertLinearisation:
    """Factor each part Gram matrix through a space of dimension its rank.

    tie_break picks one of the two deterministic eigendecomposition
    conventions; both give valid factorizations of the same kernel.
    """
    if not is_partially_psd(k, p, tol):
        raise NotPartiallyPSD("kernel must be PSD on every part")
    conv = conv_blocks(k, p)
    gram, rank, factor, features = {}, {}, {}, {}
    for label, g in conv.gram.items():
        b, r = numlin.psd_root_factor(g, tol, tie_break=tie_break)
        gram[label] = g
        rank[label] = r
        factor[label] = b
        idx = p.index(label)
        for x in idx.part:
            features[x] = b[:, idx.slice_of(x)]
    return HilbertLinearisation(p, gram, rank, factor, features, tie_break)


def verify_factorization(lin: HilbertLinearisation, k: OpKernel,
                         tol: Tolerances = DEFAULT_TOL):
    """Records certifying reconstruction and minimality of a factorization."""
    records = []
    for label, idx in lin.partition.parts.items():
        b = lin.factor[label]
        g = lin.gram[label]
        scale = max(1.0, frob(g))
        resid = 0.0
        for x in idx.part:
            for y in idx.part:
                resid = max(resid, frob(
                    lin.features[x].conj().T @ lin.features[y] - k.block(x, y)))
        records.append(Record("factorization reconstructs the kernel",
                              "hilbert/factorization", resid, tol.atol * scale,
                              resid <= tol.atol * scale, witness=label))
        if b.size:
            s = np.linalg.svd(b, compute_uv=False)
            span = int(np.count_nonzero(s > tol.rank_rel * s[0]))
        else:
            span = 0
        records.append(Record("feature columns span the whole space",
                              "hilbert/minimality", float(abs(span - lin.rank[label])),
                              0.5, span == lin.rank[label], witness=label))
    return records


@dataclass(eq=False)
class RkhsView:
    """The factor data reread as a space of sections with reproducing kernel."""

    kernel: OpKernel
    lin: HilbertLinearisation

    def member(self, label, f) -> Section:
        """Section x -> V_x* f determined by a vector f of the part's factor space."""
        b = self.lin.factor[label]
        return unstack(b.conj().T @ np.asarray(f, dtype=np.complex128).reshape(-1),
                       self.lin.partition.index(label))

    def kernel_column(self, x, h) -> Section:
        """The distinguished member y -> K(y, x) h, supported in the part of x."""
        label = self.lin.part_label(x)
        idx = self.lin.partition.index(label)
        g = self.lin.gram[label]
        col = g[:, idx.slice_of(x)] @ np.asarray(h, dtype=np.complex128).reshape(-1)
        return unstack(col, idx)

    def column_vector(self, x, h) -> np.ndarray:
        """The factor-space vector V_x h representing a kernel column."""
        return self.lin.features[x] @ np.asarray(h, dtype=np.complex128).reshape(-1)


def rkhs(k: OpKernel, p: Partition, lin: HilbertLinearisation) -> RkhsView:
    return RkhsView(kernel=k, lin=lin)


def verify_reproducing(view: RkhsView, tol: Tolerances = DEFAULT_TOL):
    """Certify the reproducing-kernel identities of the view.

    Checks, per part: kernel columns are members (their member vector is
    V_x h), the reproducing identity against a deterministic batch of
    member vectors, the column Gram identity, and minimality of the
    column span. Returns a list of records.
    """
    lin = view.lin
    p = lin.partition
    rng = np.random.Generator(np.random.Philox(12345))
    records = []
    for label, idx in p.parts.items():
        b = lin.factor[label]
        g = lin.gram[label]
        scale = max(1.0, frob(g))
        col_resid = 0.0
        gram_resid = 0.0
        for x in idx.part:
            vx = lin.features[x]
            # membership: the stacked section of the member V_x h is G iota_x h
            col_resid = max(col_resid, frob(b.conj().T @ vx - g[:, idx.slice_of(x)]))
            for y in idx.part:
                gram_resid = max(gram_resid,
                                 frob(vx.conj().T @ lin.features[y] - view.kernel.block(x, y)))
        records.append(Record("kernel columns are members", "hilbert/rkhs",
                              col_resid, tol.atol * scale, col_resid <= tol.atol * scale,
                              witness=label))
        records.append(Record("column gram identity", "hilbert/rkhs",
                              gram_resid, tol.atol * scale, gram_resid <= tol.atol * scale,
                              witness=label))

        rep_resid = 0.0
        r = lin.rank[label]
        trials = [rng.standard_normal(r) + 1j * rng.standard_normal(r) for _ in range(3)] if r else []
        for f in trials:
            sec = view.member(label, f)
            for x in idx.part:
                vxh = lin.features[x].conj().T @ f
                for i in range(view.kernel.bundle.dim[x]):
                    h = np.zeros(view.kernel.bundle.dim[x], dtype=np.complex128)
                    h[i] = 1.0
                    lhs = complex(np.vdot(h, sec.at(x)))
                    rhs = complex(np.vdot(lin.features[x] @ h, f))
                    rep_resid = max(rep_resid, abs(lhs - rhs), abs(lhs - complex(vxh[i])))
        rep_tol = tol.atol * scale
        records.append(Record("reproducing identity", "hilbert/rkhs",
                              rep_resid, rep_tol, rep_resid <= rep_tol, witness=label))

        if b.size:
            s = np.linalg.svd(b, compute_uv=False)
            span = int(np.count_nonzero(s > tol.rank_rel * s[0]))
        else:
            span = 0
        records.append(Record("column span is the whole space", "hilbert/minimality",
                              float(abs(span - r)), 0.5, span == r, witness=label))
    return records


@dataclass(eq=False)
class EquivalenceResult:
    unitaries: dict  # part label -> U with U B = B'
    records: list

    @property
    def ok(self):
        return all(r.passed for r in self.records)


def unitary_equivalence(lin_a: HilbertLinearisation, lin_b: HilbertLinearisation,
                        tol: Tolerances = DEFAULT_TOL) -> EquivalenceResult:
    """Certify the canonical unitary between two minimal factorizations.

    U = B' B+ maps the first factor space onto the second; minimality pins
    it on the feature columns, so certifying U*U = I and U V_x = V'_x
    proves unitary equivalence. Raises RankMismatch when the two ranks
    disagree on some part (impossible for honest minimal inputs).
    """
    p = lin_a.partition
    unitaries, records = {}, []
    for label in p.parts:
        ra, rb = lin_a.rank[label], lin_b.rank[label]
        if ra != rb:
            raise RankMismatch(f"part {label!r}: ranks {ra} vs {rb}")
        ba, bb = lin_a.factor[label], lin_b.factor[label]
        u = bb @ numlin.pinv(ba, tol)
        unitaries[label] = u
        scale = max(1.0, frob(lin_a.gram[label]))
        resid_u = frob(u.conj().T @ u - np.eye(ra)) if ra else 0.0
        resid_v = 0.0
        for x in p.index(label).part:
            resid_v = max(resid_v, frob(u @ lin_a.features[x] - lin_b.features[x]))
        records.append(Record("canonical map is unitary", "hilbert/uniqueness",
                              resid_u, tol.atol * scale, resid_u <= tol.atol * scale,
                              witness=label))
        records.append(Record("canonical map matches features", "hilbert/uniqueness",
                              resid_v, tol.atol * scale, resid_v <= tol.atol * scale,
                              witness=label))
    return EquivalenceResult(unitaries, records)


@dataclass(eq=False)
class HilbertRepresentation:
    """Represented shifts on the factor spaces, with bounded-shift constants."""

    action: LeftAction
    lin: HilbertLinearisation
    phi: dict  # element -> matrix r_{c} x r_{d}
    shift_constants: dict  # element -> float or None


def invariant_representation(k: OpKernel, act: LeftAction, p: Partition,
                             tol: Tolerances = DEFAULT_TOL,
                             lin: HilbertLinearisation = None) -> HilbertRepresentation:
    """Compress the shift matrices of an invariant PSD kernel onto the factors.

    The represented shift of an element is B_c Psi B_d+. Before building
    it, the well-definedness guard (the shift maps the Gram kernel at the
    domain part into the Gram kernel at the codomain part) is verified
    explicitly, so corrupted inputs fail loudly instead of silently
    producing a non-representation.
    """
    if not is_partially_psd(k, p, tol):
        raise NotPartiallyPSD("kernel must be PSD on every part")
    ok, witness = is_invariant(k, act, tol)
    if not ok:
        raise NotInvariant(f"kernel is not invariant; witness {witness!r}")
    if lin is None:
        lin = minimal_linearisation(k, p, tol)

    sg = act.sg
    forms = {s: _PartForm(g, tol) for s, g in lin.gram.items()}
    factor_pinv = functools.cache(lambda s: numlin.pinv(lin.factor[s], tol))
    phi, m_const = {}, {}
    for alpha in sg.elements:
        sd, sc = sg.d[alpha], sg.c[alpha]
        psi = _shift(act, k.bundle, alpha, p)
        leak = forms[sd].leak(psi, forms[sc])
        if leak is not None and leak[0] > leak[1]:
            raise QuotientIncompatible(
                f"shift of {alpha!r} moves the Gram kernel off the Gram kernel "
                f"(residual {leak[0]:.3e})")
        phi[alpha] = lin.factor[sc] @ psi @ factor_pinv(sd)
        # the guard above is bounded_shift_constant's, so the constant is
        # the compressed norm
        m_const[alpha] = forms[sd].compressed_norm(psi, forms[sc])
    return HilbertRepresentation(action=act, lin=lin, phi=phi, shift_constants=m_const)


def representation_laws(rep: HilbertRepresentation, tol: Tolerances = DEFAULT_TOL):
    """Records for multiplicativity, star-compatibility, intertwining and
    the bounded-shift consistency of a Hilbert representation."""
    sg = rep.action.sg
    phi = rep.phi
    records = []

    resid_mul = 0.0
    wit_mul = None
    for (a, b), ab in sg.compose.items():
        r = frob(phi[ab] - phi[a] @ phi[b])
        if r > resid_mul:
            resid_mul, wit_mul = r, (a, b)
    scale = max([1.0] + [opnorm(m) ** 2 for m in phi.values()])
    records.append(Record("multiplicative on composable pairs", "hilbert/representation",
                          resid_mul, tol.atol * scale, resid_mul <= tol.atol * scale,
                          witness=wit_mul))

    resid_star = 0.0
    wit_star = None
    for a in sg.elements:
        r = frob(phi[sg.star[a]] - phi[a].conj().T)
        if r > resid_star:
            resid_star, wit_star = r, (a,)
    records.append(Record("star-compatible", "hilbert/representation",
                          resid_star, tol.atol * scale, resid_star <= tol.atol * scale,
                          witness=wit_star))

    resid_int = 0.0
    wit_int = None
    p = rep.lin.partition
    for a in sg.elements:
        for x in p.index(sg.d[a]).part:
            ax = rep.action.apply(a, x)
            r = frob(phi[a] @ rep.lin.features[x] - rep.lin.features[ax])
            if r > resid_int:
                resid_int, wit_int = r, (a, x)
    records.append(Record("intertwines the feature maps", "hilbert/representation",
                          resid_int, tol.atol * scale, resid_int <= tol.atol * scale,
                          witness=wit_int))

    resid_bs = 0.0
    wit_bs = None
    for a in sg.elements:
        m = rep.shift_constants[a]
        if m is None:
            continue
        r = abs(m - opnorm(phi[a]) ** 2) / max(1.0, m)
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
        scale = max(1.0, opnorm(m) ** 3)
        r1 = frob(m @ m.conj().T @ m - m)
        p = m.conj().T @ m
        r2 = frob(p @ p - p)
        resid = max(r1, r2)
        bound = tol.atol * scale
        passed = (resid <= bound) if required else True
        records.append(Record("partial isometry law", "hilbert/partial-isometry",
                              resid, bound, passed, witness=(a, "required" if required else "informational")))
    return records
