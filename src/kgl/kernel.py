"""Operator-valued kernels over a bundle, and their partition calculus.

A kernel is one dense N x N Gram matrix (16 N^2 bytes) over the total fiber
dimension N, in bundle point order; the block at (x, y), the operator from
the fiber at y to the fiber at x, is a read-only view into it. Definiteness
and symmetry are partial: they read only the part Grams, the within-part
blocks of a partition of the base (usually an action's anchor partition).
Cross-part blocks may be stored but no partition-relative operation reads them.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numlin
from .bundle import HilbertBundle, PartIndex, Section, part_index, stack
from .errors import (
    BundleMismatch,
    CrossPartSupport,
    InvalidSemigroupoid,
    NonFinite,
    NotHermitian,
    NotPSD,
    OrbitBundleNotTrivial,
    ShapeMismatch,
    UnknownPoint,
)
from .numlin import DEFAULT_TOL, Tolerances, frob, opnorm, psd_root_factor
from .reports import Record
from .sgpd import LeftAction, StarSemigroupoid, orbit_trivial_bundle

__all__ = [
    "OpKernel",
    "Partition",
    "partition_from_anchor",
    "partition_from_action",
    "single_partition",
    "zero_kernel",
    "identity_kernel",
    "kernel_lincomb",
    "kernel_from_part_grams",
    "adjoint_kernel",
    "re_im",
    "conv_blocks",
    "hermitian_records",
    "psd_records",
    "is_partially_hermitian",
    "is_partially_psd",
    "kernel_inner",
    "dominates",
    "shift_map",
    "shift_maps",
    "invariance_bounds",
    "is_invariant",
    "invariance_record",
    "bounded_shift_constant",
    "bounded_shift_constants",
    "bounded_shift_records",
]


class OpKernel:
    """Kernel over a bundle, held as one read-only N x N matrix gram; the
    constructor writes each block (x, y) given, of shape (dim x, dim y)."""

    def __init__(self, bundle: HilbertBundle, blocks: dict = None):
        index = part_index(bundle, bundle.points)
        gram = np.zeros((index.total_dim, index.total_dim), dtype=np.complex128)
        for (x, y), m in (blocks or {}).items():
            bundle.require(x)
            bundle.require(y)
            a = numlin.as_cmatrix(m)
            want = (bundle.dim[x], bundle.dim[y])
            if a.shape != want:
                raise ShapeMismatch(f"block ({x!r},{y!r}) has shape {a.shape}, expected {want}")
            gram[index.slice_of(x), index.slice_of(y)] = a
        self._set(index, gram)

    def _set(self, index: PartIndex, gram: np.ndarray):
        gram.setflags(write=False)
        self.bundle = index.bundle
        self._index = index
        self.gram = gram

    def block(self, x, y) -> np.ndarray:
        """The block at (x, y): a read-only view into gram."""
        self.bundle.require(x)
        self.bundle.require(y)
        return self.gram[self._index.slice_of(x), self._index.slice_of(y)]

    @property
    def blocks(self) -> dict:
        """The nonzero blocks, keyed by (row point, column point), as views into gram."""
        pts = self._index.part
        cut = [self._index.slice_of(x) for x in pts]
        starts = [c.start for c in cut]
        nonzero = np.add.reduceat(np.add.reduceat(self.gram != 0, starts, axis=0), starts, axis=1)
        return {(pts[i], pts[j]): self.gram[cut[i], cut[j]]
                for i, j in zip(*np.nonzero(nonzero))}


def _from_gram(index: PartIndex, gram: np.ndarray) -> OpKernel:
    """The kernel whose Gram matrix is gram, a fresh array in the whole base's layout index."""
    if not np.isfinite(gram).all():
        raise NonFinite("kernel has NaN or Inf entries")
    k = object.__new__(OpKernel)
    k._set(index, gram)
    return k


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cover of the base by labelled parts, each with a block layout."""

    bundle: HilbertBundle
    parts: dict  # label -> PartIndex
    part_of: dict  # point -> label

    def index(self, label) -> PartIndex:
        return self.parts[label]


def partition_from_anchor(bundle: HilbertBundle, anchor: dict) -> Partition:
    missing = [x for x in bundle.points if x not in anchor]
    if missing:
        raise UnknownPoint(f"anchor does not cover point {missing[0]!r}")
    labels = []
    for x in bundle.points:  # label order follows first appearance
        if anchor[x] not in labels:
            labels.append(anchor[x])
    parts = {
        s: part_index(bundle, [x for x in bundle.points if anchor[x] == s]) for s in labels
    }
    return Partition(bundle=bundle, parts=parts, part_of={x: anchor[x] for x in bundle.points})


def partition_from_action(bundle: HilbertBundle, act: LeftAction) -> Partition:
    if set(act.base) != set(bundle.points):
        raise BundleMismatch("action base and bundle points differ")
    p = partition_from_anchor(bundle, act.anchor)
    # symbols with no anchored points get empty parts so every element
    # of the semigroupoid has well-defined (possibly empty) shift data
    missing = [s for s in act.sg.symbols if s not in p.parts]
    if not missing:
        return p
    parts = dict(p.parts)
    for s in missing:
        parts[s] = part_index(bundle, ())
    return Partition(bundle=bundle, parts=parts, part_of=dict(p.part_of))


def single_partition(bundle: HilbertBundle, label="all") -> Partition:
    parts = {label: part_index(bundle, bundle.points)}
    return Partition(bundle=bundle, parts=parts, part_of={x: label for x in bundle.points})


# ------------------------------------------------------------------
# kernel construction helpers


def zero_kernel(bundle: HilbertBundle) -> OpKernel:
    return OpKernel(bundle, {})


def identity_kernel(bundle: HilbertBundle, scale=1.0) -> OpKernel:
    """Diagonal kernel with scale times the identity on every fiber."""
    index = part_index(bundle, bundle.points)
    return _from_gram(index, scale * np.eye(index.total_dim, dtype=np.complex128))


def kernel_lincomb(coeffs, kernels) -> OpKernel:
    """Linear combination of kernels over one bundle."""
    ks = list(kernels)
    if not ks:
        raise ValueError("need at least one kernel")
    if any(k.bundle != ks[0].bundle for k in ks[1:]):
        raise BundleMismatch("kernels live over different bundles")
    total = sum((co * k.gram for co, k in zip(coeffs, ks)), np.zeros_like(ks[0].gram))
    return _from_gram(ks[0]._index, total)


def adjoint_kernel(k: OpKernel) -> OpKernel:
    return _from_gram(k._index, k.gram.conj().T)


def re_im(k: OpKernel):
    """Hermitian and skew parts: K = Re + i Im with both kernels Hermitian."""
    ks = adjoint_kernel(k)
    re = kernel_lincomb([0.5, 0.5], [k, ks])
    im = kernel_lincomb([-0.5j, 0.5j], [k, ks])
    return re, im


def _coordinates(whole: PartIndex, idx: PartIndex) -> np.ndarray:
    """A part's coordinates in the whole base's; both follow bundle point order."""
    inside = [x in idx.offsets for x in whole.part]
    return np.flatnonzero(np.repeat(inside, [whole.bundle.dim[x] for x in whole.part]))


def kernel_from_part_grams(p: Partition, grams: dict) -> OpKernel:
    """The kernel whose within-part blocks are those of the given part Gram
    matrices; cross-part blocks and parts not given are zero."""
    whole = part_index(p.bundle, p.bundle.points)
    gram = np.zeros((whole.total_dim, whole.total_dim), dtype=np.complex128)
    for label, g in grams.items():
        idx = p.index(label)
        m = numlin.as_cmatrix(g)
        if m.shape != (idx.total_dim, idx.total_dim):
            raise ShapeMismatch(f"part {label!r}: matrix {m.shape} vs total dim {idx.total_dim}")
        c = _coordinates(whole, idx)
        gram[np.ix_(c, c)] = m
    return _from_gram(whole, gram)


def conv_blocks(k: OpKernel, p: Partition) -> dict:
    """Per part label, the part's Gram matrix: gram restricted to the part's
    coordinates, in point order, read-only."""
    if k.bundle != p.bundle:
        raise BundleMismatch("kernel and partition bundles differ")
    grams = {}
    for label, idx in p.parts.items():
        c = _coordinates(k._index, idx)
        g = k.gram[np.ix_(c, c)]
        g.setflags(write=False)
        grams[label] = g
    return grams


def hermitian_records(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> list:
    """One kernel/hermitian record per part: the Hermitian residual of its
    Gram matrix against atol * max(1, its Frobenius norm)."""
    records = []
    for label, g in conv_blocks(k, p).items():
        resid = frob(g - g.conj().T)
        bound = tol.atol * max(1.0, frob(g))
        records.append(Record("kernel is Hermitian on the part", "kernel/hermitian",
                              resid, bound, resid <= bound, witness=label))
    return records


def psd_records(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> list:
    """One kernel/psd record per part: how far its lowest eigenvalue lies
    below zero, against the eigenvalue cutoff. A part that is not Hermitian
    fails with its Hermitian residual."""
    records = []
    for herm, g in zip(hermitian_records(k, p, tol), conv_blocks(k, p).values()):
        if not herm.passed:
            records.append(Record("kernel is PSD on the part", "kernel/psd",
                                  herm.residual, herm.tolerance, False,
                                  witness={"part": herm.witness, "reason": "not Hermitian"}))
            continue
        s = numlin.spectrum(g, tol)
        records.append(Record("kernel is PSD on the part", "kernel/psd",
                              s.psd_violation, s.cutoff, s.is_psd, witness=herm.witness))
    return records


def is_partially_hermitian(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> bool:
    return all(r.passed for r in hermitian_records(k, p, tol))


def is_partially_psd(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> bool:
    return all(r.passed for r in psd_records(k, p, tol))


def _support_part(f: Section, p: Partition):
    labels = {p.part_of[x] for x in f.support}
    if len(labels) > 1:
        raise CrossPartSupport(f"section spans parts {sorted(map(repr, labels))}")
    return labels.pop() if labels else None


def kernel_inner(k: OpKernel, f: Section, g: Section, p: Partition = None) -> complex:
    """The kernel form between two sections supported in one common part.

    With no partition the whole base counts as one part.
    """
    if f.bundle != k.bundle or g.bundle != k.bundle:
        raise BundleMismatch("sections and kernel live over different bundles")
    if p is None:
        p = single_partition(k.bundle)
    sf, sg = _support_part(f, p), _support_part(g, p)
    if sf is None or sg is None:
        return 0.0 + 0.0j
    if sf != sg:
        raise CrossPartSupport(f"sections live in parts {sf!r} and {sg!r}")
    idx = p.index(sf)
    gm = conv_blocks(k, p)[sf]
    return complex(stack(g, idx).conj() @ gm @ stack(f, idx))


def dominates(l: OpKernel, k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL,
              two_sided: bool = False) -> bool:
    """Partial order test: K <= L on every part; two_sided checks -L <= K <= L."""
    if not is_partially_hermitian(l, p, tol) or not is_partially_hermitian(k, p, tol):
        raise NotHermitian("dominance compares partially Hermitian kernels only")
    diff = kernel_lincomb([1.0, -1.0], [l, k])
    if not is_partially_psd(diff, p, tol):
        return False
    if two_sided:
        both = kernel_lincomb([1.0, 1.0], [l, k])
        return is_partially_psd(both, p, tol)
    return True


# ------------------------------------------------------------------
# shifts and invariance


def _require_orbit_trivial(act: LeftAction, bundle: HilbertBundle):
    if not orbit_trivial_bundle(act, bundle):
        raise OrbitBundleNotTrivial("fiber dimension is not constant on some orbit")


def shift_map(act: LeftAction, bundle: HilbertBundle, alpha, p: Partition = None) -> np.ndarray:
    """Stacked matrix of the shift "delta_x h -> delta_{alpha.x} h".

    Maps the part at the element's domain symbol into the part at its
    codomain symbol. Columns are identity blocks placed at the image
    point's offset; a non-injective action makes several columns share a
    row block.
    """
    _require_orbit_trivial(act, bundle)
    if p is None:
        p = partition_from_action(bundle, act)
    return _shift(act, bundle, alpha, p)


def _shift(act: LeftAction, bundle: HilbertBundle, alpha, p: Partition) -> np.ndarray:
    """shift_map for a bundle already known to be orbit-trivial."""
    sg = act.sg
    idx_d = p.index(sg.d[alpha])
    idx_c = p.index(sg.c[alpha])
    out = np.zeros((idx_c.total_dim, idx_d.total_dim), dtype=np.complex128)
    for x in idx_d.part:
        y = act.apply(alpha, x)
        m = bundle.dim[x]
        out[idx_c.slice_of(y), idx_d.slice_of(x)] = np.eye(m)
    return out


def _shift_norm(act: LeftAction, alpha, p: Partition) -> float:
    """Operator norm of _shift, exactly. Its columns are unit vectors, so
    Psi Psi* is diagonal, counting per row the domain points with that
    image: the norm is the square root of the largest such count."""
    images = Counter(act.apply(alpha, x) for x in p.index(act.sg.d[alpha]).part)
    return math.sqrt(max(images.values(), default=0))


def shift_maps(act: LeftAction, bundle: HilbertBundle, p: Partition = None) -> dict:
    """All shift matrices, keyed by element; the orbit check runs once."""
    _require_orbit_trivial(act, bundle)
    if p is None:
        p = partition_from_action(bundle, act)
    return {g: _shift(act, bundle, g, p) for g in act.sg.elements}


def invariance_bounds(grams: dict, sg: StarSemigroupoid,
                      tol: Tolerances = DEFAULT_TOL) -> dict:
    """Per element, the bound its invariance residuals are compared against.

    atol times the larger Frobenius norm of the element's domain and
    codomain part Gram matrices, so the verdict does not depend on the
    kernel's scale; the bound is 0 only where both Grams are exactly 0.
    """
    scale = {s: frob(g) for s, g in grams.items()}
    return {a: tol.atol * max(scale[sg.d[a]], scale[sg.c[a]]) for a in sg.elements}


def _part_layouts(p: Partition, act: LeftAction):
    """Stacked coordinates of every part, in the action's point numbering.

    Returns each point's offset inside its part and, per part label, the
    part's points, their block starts, and for every stacked coordinate the
    number of its point and its offset inside that point's fiber.
    """
    index = act.code.index
    offset = np.zeros(len(act.base), dtype=np.int64)
    layouts = {}
    for label, idx in p.parts.items():
        pts = np.array([index[x] for x in idx.part], dtype=np.int64)
        dims = np.array([p.bundle.dim[x] for x in idx.part], dtype=np.int64)
        starts = np.array([idx.offsets[x] for x in idx.part], dtype=np.int64)
        offset[pts] = starts
        layouts[label] = (idx.part, starts, np.repeat(pts, dims),
                          np.arange(idx.total_dim) - np.repeat(starts, dims))
    return offset, layouts


def _first_false(mask):
    miss = np.flatnonzero(~mask)
    return int(miss[0]) if miss.size else None


def _raise_unusable(act: LeftAction, g, x, label):
    """Raise for an action value that is undefined or lands outside the part."""
    y = act.apply(g, x)
    raise InvalidSemigroupoid(
        f"action of {g!r} on {x!r} lands at {y!r}, outside the part {label!r}")


def is_invariant(k: OpKernel, act: LeftAction, tol: Tolerances = DEFAULT_TOL):
    """Exhaustive invariance check of the kernel under the action.

    Compares the block at (alpha.x, y) with the block at (x, alpha*.y)
    for every element alpha, every x anchored at its domain and every y
    anchored at its codomain. Returns (True, None) or (False, witness)
    with witness = (alpha, x, y), the first failing triple in that loop
    order. Per element, the rows alpha.x of the codomain part's Gram matrix
    are compared with the columns alpha*.y of the domain part's, and the
    difference is reduced to one Frobenius norm per (x, y) block. An action
    value that is undefined, or lands outside the part it should, raises
    InvalidSemigroupoid where the loop order reaches it.
    """
    _require_orbit_trivial(act, k.bundle)
    p = partition_from_action(k.bundle, act)
    grams = conv_blocks(k, p)
    sg = act.sg
    bounds = invariance_bounds(grams, sg, tol)
    anchor, A = act.code.anchor, act.code.A
    offset, layouts = _part_layouts(p, act)
    for i, alpha in enumerate(sg.elements):
        sd, sc = sg.d[alpha], sg.c[alpha]
        astar = sg.star[alpha]
        xs, x_starts, x_pt, x_loc = layouts[sd]
        ys, y_starts, y_pt, y_loc = layouts[sc]
        if not xs:
            continue
        # per stacked coordinate: the point alpha.x, and the point alpha*.y
        ax = A[i, x_pt]
        ay = A[sg.code.index[astar], y_pt]
        ax_ok = (ax >= 0) & (anchor[ax] == sg.code.c[i])
        ay_ok = (ay >= 0) & (anchor[ay] == sg.code.d[i])
        bad = np.zeros((len(xs), len(ys)), dtype=bool)
        if ys:
            rows = np.where(ax_ok, offset[ax] + x_loc, 0)
            cols = np.where(ay_ok, offset[ay] + y_loc, 0)
            diff = grams[sc][rows] - grams[sd][:, cols]
            sq = np.add.reduceat(diff.real ** 2 + diff.imag ** 2, x_starts, axis=0)
            bad = np.sqrt(np.add.reduceat(sq, y_starts, axis=1)) > bounds[alpha]
        # in (alpha, x, y) order, alpha.x is needed from row x on and each
        # alpha*.y from the first row on: no block after an unusable value counts
        u = _first_false(ax_ok[x_starts])
        v = _first_false(ay_ok[y_starts]) if ys else None
        if u is not None:
            bad[u:] = False
        if v is not None:
            bad[1:] = False
            bad[0, v:] = False
        hits = np.flatnonzero(bad)
        if hits.size:
            r, q = divmod(int(hits[0]), len(ys))
            return False, (alpha, xs[r], ys[q])
        if u == 0 or (u is not None and v is None):
            _raise_unusable(act, alpha, xs[u], sc)
        if v is not None:
            _raise_unusable(act, astar, ys[v], sd)
    return True, None


def invariance_record(k: OpKernel, act: LeftAction, tol: Tolerances = DEFAULT_TOL) -> Record:
    """The kernel/invariant record of is_invariant.

    A pass carries the bound atol * max(every part's Frobenius norm); a
    failure carries the witness (alpha, x, y), the residual of its block
    and the bound of alpha (see invariance_bounds).
    """
    ok, wit = is_invariant(k, act, tol)
    grams = conv_blocks(k, partition_from_action(k.bundle, act))
    if ok:
        bound = tol.atol * max([frob(g) for g in grams.values()], default=0.0)
        return Record("kernel is invariant under the action", "kernel/invariant",
                      0.0, bound, True)
    alpha, x, y = wit
    ax = act.apply(alpha, x)
    ay = act.apply(act.sg.star[alpha], y)
    resid = frob(k.block(ax, y) - k.block(x, ay))
    return Record("kernel is invariant under the action", "kernel/invariant",
                  resid, invariance_bounds(grams, act.sg, tol)[alpha], False,
                  witness={"element": alpha, "x": x, "y": y})


class _PartForm:
    """One part's Gram matrix of a partially PSD kernel, with what the shift
    of any element from or into the part reads from it.

    Each derived value is computed on first use, once per part rather than
    once per element.
    """

    def __init__(self, gram: np.ndarray, tol: Tolerances):
        self.gram = gram
        self.tol = tol

    @cached_property
    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis of the form kernel."""
        return numlin.spectrum(self.gram, self.tol).kernel_basis

    @cached_property
    def norm(self) -> float:
        return opnorm(self.gram)

    @cached_property
    def factor_pinv(self):
        """Pseudo-inverse of the root factor B with G = B*B; None at rank 0."""
        b, r = psd_root_factor(self.gram, self.tol)
        return numlin.pinv(b, self.tol) if r else None

    def leak(self, psi: np.ndarray, cod: "_PartForm"):
        """(residual, bound) of the shift psi moving this part's form kernel
        off the form kernel of the codomain part; None when the form kernel
        is zero."""
        if not self.kernel_basis.shape[1]:
            return None
        lead = psi @ self.kernel_basis
        return (opnorm(lead.conj().T @ cod.gram @ lead),
                self.tol.atol * max(1.0, cod.norm))

    def compressed_norm(self, psi: np.ndarray, cod: "_PartForm") -> float:
        """Largest eigenvalue of the shifted form compressed to the quotient."""
        if self.factor_pinv is None:
            return 0.0
        comp = psi @ self.factor_pinv
        w = numlin.spectrum(comp.conj().T @ cod.gram @ comp, self.tol).eigenvalues
        return max(float(w[-1]), 0.0) if w.size else 0.0


def _psd_grams(l: OpKernel, act: LeftAction, tol: Tolerances):
    """The action's partition and the part Grams of a partially PSD kernel on it."""
    _require_orbit_trivial(act, l.bundle)
    p = partition_from_action(l.bundle, act)
    if not is_partially_psd(l, p, tol):
        raise NotPSD("bounded-shift constants are relative to a partially PSD kernel")
    return p, conv_blocks(l, p)


def _shift_constants(act: LeftAction, p: Partition, grams: dict, tol: Tolerances,
                     elements) -> dict:
    """The bounded-shift constant of each element, from the part Gram
    matrices of a partially PSD kernel on the action's partition p."""
    forms = {s: _PartForm(g, tol) for s, g in grams.items()}
    constants = {}
    for alpha in elements:
        psi = _shift(act, p.bundle, alpha, p)
        dom, cod = forms[act.sg.d[alpha]], forms[act.sg.c[alpha]]
        leak = dom.leak(psi, cod)
        undefined = leak is not None and leak[0] > leak[1]
        constants[alpha] = None if undefined else dom.compressed_norm(psi, cod)
    return constants


def bounded_shift_constant(l: OpKernel, act: LeftAction, alpha,
                           tol: Tolerances = DEFAULT_TOL):
    """Least constant bounding the shifted form by the original form.

    For a partially PSD kernel, this is the squared norm of the quotient
    shift operator: the largest eigenvalue of the compression of the
    shifted Gram matrix onto the quotient coordinates. Returns None
    (undefined) when the shift does not map the form kernel at the domain
    part into the form kernel at the codomain part, so no finite constant
    exists relative to the quotient.
    """
    return _shift_constants(act, *_psd_grams(l, act, tol), tol, (alpha,))[alpha]


def bounded_shift_constants(l: OpKernel, act: LeftAction,
                            tol: Tolerances = DEFAULT_TOL) -> dict:
    """bounded_shift_constant of every element, keyed by element.

    The PSD check, the Gram assembly and the per-part factors are done
    once for all elements.
    """
    return _shift_constants(act, *_psd_grams(l, act, tol), tol, act.sg.elements)


def bounded_shift_records(l: OpKernel, act: LeftAction, tol: Tolerances = DEFAULT_TOL) -> list:
    """The kernel/psd records of l on the action's partition and, when they
    all pass, one kernel/bounded-shift record per element: whether its
    bounded_shift_constant is defined. The PSD premise is decided once, by
    those records."""
    p = partition_from_action(l.bundle, act)
    records = psd_records(l, p, tol)
    if not all(r.passed for r in records):
        return records
    _require_orbit_trivial(act, l.bundle)
    constants = _shift_constants(act, p, conv_blocks(l, p), tol, act.sg.elements)
    return records + [Record("shifted form is boundedly dominated", "kernel/bounded-shift",
                             0.0 if m is not None else 1.0, 0.5, m is not None,
                             witness={"element": alpha, "constant": m})
                      for alpha, m in constants.items()]
