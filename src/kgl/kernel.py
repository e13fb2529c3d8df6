"""Operator-valued kernels over a bundle, and their partition calculus.

A kernel is one dense N x N Gram matrix (16 N^2 bytes) over the total fiber
dimension N, in bundle point order; the block at (x, y), the operator from
the fiber at y to the fiber at x, is a read-only view into it. Definiteness
and symmetry are partial: they read only the part Grams, the within-part
blocks of a partition of the base (usually an action's anchor partition).
Cross-part blocks may be stored but no partition-relative operation reads them.

An element's shift, delta_x h -> delta_{alpha.x} h, relabels coordinates.
_shift_coordinates says where it sends each one, and every reader gathers
there: the invariance check, the bounded-shift constants and the
represented shifts. No dense 0/1 shift matrix is built.
"""

import hashlib
from dataclasses import dataclass

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
from .numlin import DEFAULT_TOL, Tolerances, adjoints, frob, frobs
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
    "part_spectra",
    "hermitian_records",
    "psd_records",
    "is_partially_hermitian",
    "is_partially_psd",
    "kernel_inner",
    "dominates",
    "is_invariant",
    "invariance_record",
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
        self._parts = {}  # partition layout -> part Grams (conv_blocks)
        self._spectra = {}  # (partition layout, tolerances) -> part spectra (part_spectra)
        self._hermitian = {}  # (partition layout, tolerances) -> hermitian_records

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


def _layout(p: Partition) -> tuple:
    """What a partition's part Grams depend on: its labels and their points."""
    return tuple((label, idx.part) for label, idx in p.parts.items())


def kernel_from_part_grams(p: Partition, grams: dict) -> OpKernel:
    """The kernel whose within-part blocks are those of the given part Gram
    matrices; cross-part blocks and parts not given are zero. When every
    part is given, its part Grams on p are those matrices (see conv_blocks)."""
    whole = part_index(p.bundle, p.bundle.points)
    gram = np.zeros((whole.total_dim, whole.total_dim), dtype=np.complex128)
    parts = {}
    for label, g in grams.items():
        idx = p.index(label)
        m = numlin.as_cmatrix(g)
        if m.shape != (idx.total_dim, idx.total_dim):
            raise ShapeMismatch(f"part {label!r}: matrix {m.shape} vs total dim {idx.total_dim}")
        c = _coordinates(whole, idx)
        gram[np.ix_(c, c)] = m
        m.setflags(write=False)
        parts[label] = m
    k = _from_gram(whole, gram)
    if parts.keys() == p.parts.keys():
        k._parts[_layout(p)] = {label: parts[label] for label in p.parts}
    return k


def conv_blocks(k: OpKernel, p: Partition) -> dict:
    """Per part label, the part's Gram matrix: gram restricted to the part's
    coordinates, in point order, read-only. Each part Gram is gathered once
    per kernel and partition layout; later calls return the same arrays."""
    if k.bundle != p.bundle:
        raise BundleMismatch("kernel and partition bundles differ")
    key = _layout(p)
    grams = k._parts.get(key)
    if grams is None:
        grams = k._parts[key] = _gather_part_grams(k, p)
    return dict(grams)


def _gather_part_grams(k: OpKernel, p: Partition) -> dict:
    grams = {}
    for label, idx in p.parts.items():
        c = _coordinates(k._index, idx)
        g = k.gram[np.ix_(c, c)]
        g.setflags(write=False)
        grams[label] = g
    return grams


def part_spectra(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Per part label, the canonical Spectrum of the part's Gram matrix.

    This is the one place a kernel's part Grams are decomposed: once per
    kernel, partition layout and tolerances, parts whose Grams are equal
    sharing one Spectrum; a kernel built from spectra carries them
    (_carry_spectra). Each part's Hermitian verdict is hermitian_records':
    a part that fails it raises NotHermitian, and the others are decomposed
    with no second check (numlin.checked_spectrum).
    """
    spectra = _hermitian_spectra(k, p, tol)
    if len(spectra) < len(p.parts):
        bad = next(r for r in _hermitian_parts(k, p, tol) if not r.passed)
        raise NotHermitian(f"part {bad.witness!r}: Hermitian residual {bad.residual:.3e} "
                           "above tolerance")
    return dict(spectra)


def _hermitian_spectra(k: OpKernel, p: Partition, tol: Tolerances) -> dict:
    """part_spectra's spectra of the parts that pass hermitian_records (all
    of them for a carried set), in part order. With more than one part,
    equal Grams are found by shape and a SHA-256 digest of their bytes."""
    key = _layout(p), tol
    spectra = k._spectra.get(key)
    if spectra is None:
        grams = conv_blocks(k, p)
        shared = {}  # (shape, digest), or the label of a single part -> Spectrum
        spectra = {}
        for herm, (label, g) in zip(_hermitian_parts(k, p, tol), grams.items()):
            if herm.passed:
                content = (g.shape, hashlib.sha256(np.ascontiguousarray(g).data).digest()
                           if len(grams) > 1 else label)
                if content not in shared:
                    shared[content] = numlin.checked_spectrum(g, tol)
                spectra[label] = shared[content]
        k._spectra[key] = spectra
    return spectra


def _carry_spectra(k: OpKernel, p: Partition, tol: Tolerances, spectra: dict):
    """Let k carry the canonical spectra of its part Grams on p, made with
    tol, so that part_spectra returns them instead of decomposing."""
    k._spectra[_layout(p), tol] = dict(spectra)


def hermitian_records(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> list:
    """One kernel/hermitian record per part: the Hermitian residual of its
    Gram matrix against atol times its Frobenius norm, with no floor, so the
    verdict does not depend on the kernel's scale. Decided once per kernel,
    partition layout and tolerances (is_partially_hermitian reads the same)."""
    return list(_hermitian_parts(k, p, tol))


def _hermitian_parts(k: OpKernel, p: Partition, tol: Tolerances) -> tuple:
    key = _layout(p), tol
    records = k._hermitian.get(key)
    if records is None:
        records = []
        for label, g in conv_blocks(k, p).items():
            resid = frob(g - g.conj().T)
            bound = tol.atol * frob(g)
            records.append(Record("kernel is Hermitian on the part", "kernel/hermitian",
                                  resid, bound, resid <= bound, witness=label))
        records = k._hermitian[key] = tuple(records)
    return records


def psd_records(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> list:
    """One kernel/psd record per part: how far its lowest eigenvalue lies
    below zero, against the eigenvalue cutoff. A part that is not Hermitian
    fails with its Hermitian residual."""
    spectra, records = _hermitian_spectra(k, p, tol), []
    for herm in hermitian_records(k, p, tol):
        if not herm.passed:
            records.append(Record("kernel is PSD on the part", "kernel/psd",
                                  herm.residual, herm.tolerance, False,
                                  witness={"part": herm.witness, "reason": "not Hermitian"}))
            continue
        s = spectra[herm.witness]
        records.append(Record("kernel is PSD on the part", "kernel/psd",
                              s.psd_violation, s.cutoff, s.is_psd, witness=herm.witness))
    return records


def is_partially_hermitian(k: OpKernel, p: Partition, tol: Tolerances = DEFAULT_TOL) -> bool:
    return all(r.passed for r in _hermitian_parts(k, p, tol))


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


def _shift_coordinates(act: LeftAction, p: Partition) -> dict:
    """Per element alpha, the int array c over the stacked coordinates of
    the part at its domain symbol: c[j] is the coordinate, in the part at its
    codomain symbol, of the same fiber entry at alpha.x, or -1 where alpha.x
    is undefined or lands outside that part. The shift matrix Psi has its
    ones at (c[j], j), so W Psi = W[:, c] and Psi* G Psi = G[ix(c, c)].
    Computed once per action and block layout of p; the arrays are read-only."""
    key = tuple((label, tuple(idx.offsets.items()), idx.total_dim)
                for label, idx in p.parts.items())
    coords = act._shift_coords.get(key)
    if coords is None:
        coords = act._shift_coords[key] = _coordinate_maps(act, p)
    return coords


def _coordinate_maps(act: LeftAction, p: Partition) -> dict:
    index, anchor, A = act.code.index, act.code.anchor, act.code.A
    offset = np.zeros(len(act.base), dtype=np.int64)
    stacked = {}  # label -> (point number, offset in its fiber) per stacked coordinate
    for label, idx in p.parts.items():
        pts = np.array([index[x] for x in idx.part], dtype=np.int64)
        dims = np.array([p.bundle.dim[x] for x in idx.part], dtype=np.int64)
        starts = np.array([idx.offsets[x] for x in idx.part], dtype=np.int64)
        offset[pts] = starts
        stacked[label] = (np.repeat(pts, dims), np.arange(idx.total_dim) - np.repeat(starts, dims))
    sg = act.sg
    coords = {}
    for i, alpha in enumerate(sg.elements):
        pt, loc = stacked[sg.d[alpha]]
        ax = A[i, pt]
        ok = (ax >= 0) & (anchor[ax] == sg.code.c[i])
        coords[alpha] = np.where(ok, offset[ax] + loc, -1)
        coords[alpha].setflags(write=False)
    return coords


def _gather_index(act: LeftAction, p: Partition, coords: dict, alpha) -> np.ndarray:
    """coords[alpha] of _shift_coordinates, raising InvalidSemigroupoid at
    its first value, in point order, that is undefined or outside the part."""
    c = coords[alpha]
    j = _first_false(c >= 0)
    if j is not None:
        idx = p.index(act.sg.d[alpha])
        x = next(x for x in reversed(idx.part) if idx.offsets[x] <= j)
        _raise_unusable(act, alpha, x, act.sg.c[alpha])
    return c


# the stacked temporaries of one batch of elements hold about this many bytes
# at most, so batching costs little memory however many elements share a pair
_CHUNK_BYTES = 1 << 17


def _part_pairs(sg: StarSemigroupoid, elements) -> dict:
    """The elements grouped by (domain, codomain) symbol, each group in the
    order of elements."""
    groups = {}
    for a in elements:
        groups.setdefault((sg.d[a], sg.c[a]), []).append(a)
    return groups


def _batches(items: list, item_bytes: int):
    """Consecutive runs of items whose stacked temporaries, item_bytes per
    item, fit in _CHUNK_BYTES (at least one item per run)."""
    step = max(1, _CHUNK_BYTES // max(1, item_bytes))
    for lo in range(0, len(items), step):
        yield items[lo:lo + step]


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

    A block fails when its norm exceeds alpha's bound: atol times the larger
    Frobenius norm of alpha's domain and codomain part Grams, so the verdict
    does not depend on the kernel's scale.
    """
    witness = _invariance_check(k, act, tol)[0]
    return witness is None, witness


def _invariance_check(k: OpKernel, act: LeftAction, tol: Tolerances):
    """is_invariant's comparison as (witness, residual, bound): the first
    failing triple with its block's residual and alpha's bound, or None,
    0.0 and atol times the largest Frobenius norm of a part Gram."""
    _require_orbit_trivial(act, k.bundle)
    p = partition_from_action(k.bundle, act)
    grams = conv_blocks(k, p)
    sg = act.sg
    scale = {s: frob(g) for s, g in grams.items()}
    bounds = {a: tol.atol * max(scale[sg.d[a]], scale[sg.c[a]]) for a in sg.elements}
    coords = _shift_coordinates(act, p)
    starts = {label: np.array([idx.offsets[x] for x in idx.part], dtype=np.int64)
              for label, idx in p.parts.items()}
    for alpha in sg.elements:
        sd, sc = sg.d[alpha], sg.c[alpha]
        astar = sg.star[alpha]
        xs, ys = p.index(sd).part, p.index(sc).part
        if not xs:
            continue
        # per stacked coordinate: where alpha sends x, and where alpha* sends y;
        # a star that does not swap the parts sends no y into the domain part
        ax = coords[alpha]
        swaps = (sg.d[astar], sg.c[astar]) == (sc, sd)
        ay = coords[astar] if swaps else np.full(p.index(sc).total_dim, -1)
        bad = np.zeros((len(xs), len(ys)), dtype=bool)
        if ys:
            diff = grams[sc][np.maximum(ax, 0)]
            diff -= grams[sd][:, np.maximum(ay, 0)]
            sq = np.add.reduceat(diff.real ** 2 + diff.imag ** 2, starts[sd], axis=0)
            resid = np.sqrt(np.add.reduceat(sq, starts[sc], axis=1))
            bad = resid > bounds[alpha]
        # in (alpha, x, y) order, alpha.x is needed from row x on and each
        # alpha*.y from the first row on: no block after an unusable value counts
        u = _first_false(ax[starts[sd]] >= 0)
        v = _first_false(ay[starts[sc]] >= 0) if ys else None
        if u is not None:
            bad[u:] = False
        if v is not None:
            bad[1:] = False
            bad[0, v:] = False
        hits = np.flatnonzero(bad)
        if hits.size:
            r, q = divmod(int(hits[0]), len(ys))
            return (alpha, xs[r], ys[q]), float(resid[r, q]), bounds[alpha]
        if u == 0 or (u is not None and v is None):
            _raise_unusable(act, alpha, xs[u], sc)
        if v is not None:
            _raise_unusable(act, astar, ys[v], sd)
    return None, 0.0, tol.atol * max(scale.values(), default=0.0)


def invariance_record(k: OpKernel, act: LeftAction, tol: Tolerances = DEFAULT_TOL) -> Record:
    """The kernel/invariant record of is_invariant, with the residual and
    bound it compared: a pass carries the bound atol * max(every part's
    Frobenius norm), a failure its witness (alpha, x, y)."""
    witness, resid, bound = _invariance_check(k, act, tol)
    return Record("kernel is invariant under the action", "kernel/invariant", resid, bound,
                  witness is None, witness=witness and dict(zip(("element", "x", "y"), witness)))


def _psd_parts(l: OpKernel, act: LeftAction, tol: Tolerances):
    """The action's partition with the part Grams and part spectra of a
    partially PSD kernel on it."""
    _require_orbit_trivial(act, l.bundle)
    p = partition_from_action(l.bundle, act)
    if not is_partially_psd(l, p, tol):
        raise NotPSD("bounded-shift constants are relative to a partially PSD kernel")
    return p, conv_blocks(l, p), part_spectra(l, p, tol)


def _shift_constants(act: LeftAction, p: Partition, grams: dict, spectra: dict,
                     tol: Tolerances, elements) -> dict:
    """The bounded-shift constant of each element, from the part Gram
    matrices of a partially PSD kernel on the action's partition p and
    their canonical spectra (see _batch_shift_constants), one batch of
    each (domain, codomain) part pair at a time. An unusable action value
    raises InvalidSemigroupoid at the first element, in order, that has one.
    """
    coords = _shift_coordinates(act, p)
    for alpha in elements:
        _gather_index(act, p, coords, alpha)
    constants = {}
    for (sd, sc), group in _part_pairs(act.sg, elements).items():
        dim = p.index(sd).total_dim
        for batch in _batches(group, 16 * dim * dim):
            c = np.stack([coords[a] for a in batch])
            constants.update(zip(batch, _batch_shift_constants(
                grams[sc], spectra[sd], spectra[sc].norm, c, tol)))
    return {a: constants[a] for a in elements}


def _batch_shift_constants(g_c: np.ndarray, s_d: numlin.Spectrum, norm_c: float,
                           c: np.ndarray, tol: Tolerances) -> list:
    """The bounded-shift constants of a stack c of coordinate maps from one
    domain part to one codomain part, whose Gram is g_c with norm norm_c.

    The shifted form Psi* G_c Psi is the gather G_c[ix(c, c)]. It is
    compared with what the domain Gram's spectrum s_d gives: its form
    kernel's basis N and the pseudo-inverse F of its root factor. The shift
    moves the form kernel when ||N* G_c[ix(c, c)] N|| exceeds atol times
    norm_c, a bound with no floor, so the verdict does not depend on the
    kernel's scale; the constant is then None, else the top eigenvalue of
    F* G_c[ix(c, c)] F. Both compressions are formed at image width: with u
    the distinct coordinates c reaches, in order of first appearance, and Q
    the 0/1 map that sends each coordinate to its image,
    G_c[ix(c, c)] = Q* G_c[ix(u, u)] Q, so B* G_c[ix(c, c)] B is
    (QB)* G_c[ix(u, u)] (QB), where QB sums the rows of B sent to one image
    coordinate. Where c is injective, u = c and QB = B. Elements of equal
    image width are stacked, with batched products and values-only
    decompositions (stack_eigenvalues) per width, so no constant depends on
    the batch it is computed in.
    """
    n, f = s_d.kernel_basis, s_d.factor_pinv
    k_n = n.shape[1]
    if not c.shape[1]:
        return [0.0] * len(c)
    # per element: its coordinates sorted by image, stably, and where a new image starts
    order = np.argsort(c, axis=1, kind="stable")
    image = np.take_along_axis(c, order, axis=1)
    new = np.ones(image.shape, dtype=bool)
    new[:, 1:] = image[:, 1:] != image[:, :-1]
    width = new.sum(axis=1)
    out = [None] * len(c)
    for w in sorted(set(width.tolist())):
        rows = np.flatnonzero(width == w)
        if w == c.shape[1]:
            u, qn, qf = c[rows], n, f
        else:
            basis = np.hstack([n, f])
            sums = np.add.reduceat(basis[order[rows]].reshape(-1, basis.shape[1]),
                                   np.flatnonzero(new[rows].ravel()), axis=0)
            # the images in order of first appearance: each run of a stable sort starts there
            seq = np.argsort(order[rows][new[rows]].reshape(len(rows), w), axis=1)
            u = np.take_along_axis(image[rows][new[rows]].reshape(len(rows), w), seq, axis=1)
            qb = np.take_along_axis(sums.reshape(len(rows), w, -1), seq[:, :, None], axis=1)
            qn, qf = qb[:, :, :k_n], qb[:, :, k_n:]
        shifted = g_c[u[:, :, None], u[:, None, :]]
        moved = np.zeros(len(rows), dtype=bool)
        if k_n:
            # the norm of a Hermitian compression, max|eigenvalue|, is at most its
            # Frobenius norm, so only a compression above the bound is decomposed
            forms = adjoints(qn) @ shifted @ qn
            moved = frobs(forms) > tol.atol * norm_c
            if moved.any():
                ev = numlin.stack_eigenvalues(forms[moved])
                moved[moved] = np.maximum(-ev[:, 0], ev[:, -1]) > tol.atol * norm_c
            del forms
        top = np.zeros(len(rows))
        if f.shape[1] and not moved.all():
            keep = ~moved
            if not keep.all():
                shifted = shifted[keep]
                qf = qf[keep] if qf.ndim == 3 else qf
            forms = adjoints(qf) @ shifted @ qf
            del shifted
            top[keep] = np.maximum(numlin.stack_eigenvalues(forms)[:, -1], 0.0)
        for i, m, t in zip(rows.tolist(), moved.tolist(), top.tolist()):
            # None: the shift moves the form kernel off the codomain's;
            # else the top eigenvalue of the shifted form on the quotient
            out[i] = None if m else t
    return out


def bounded_shift_constants(l: OpKernel, act: LeftAction,
                            tol: Tolerances = DEFAULT_TOL) -> dict:
    """The least constant bounding each element's shifted form by the
    original form, keyed by element.

    For a partially PSD kernel, this is the squared norm of the quotient
    shift operator: the largest eigenvalue of the compression of the
    shifted Gram matrix onto the quotient coordinates. It is None
    (undefined) when the shift does not map the form kernel at the domain
    part into the form kernel at the codomain part, so no finite constant
    exists relative to the quotient. The PSD check, the Gram assembly and
    the per-part factors are done once for all elements.
    """
    return _shift_constants(act, *_psd_parts(l, act, tol), tol, act.sg.elements)


def bounded_shift_records(l: OpKernel, act: LeftAction, tol: Tolerances = DEFAULT_TOL) -> list:
    """The kernel/psd records of l on the action's partition and, when they
    all pass, one kernel/bounded-shift record per element: whether its
    bounded-shift constant is defined. The PSD premise is decided once, by
    those records."""
    p = partition_from_action(l.bundle, act)
    records = psd_records(l, p, tol)
    if not all(r.passed for r in records):
        return records
    _require_orbit_trivial(act, l.bundle)
    constants = _shift_constants(act, p, conv_blocks(l, p), part_spectra(l, p, tol), tol,
                                 act.sg.elements)
    return records + [Record("shifted form is boundedly dominated", "kernel/bounded-shift",
                             0.0 if m is not None else 1.0, 0.5, m is not None,
                             witness={"element": alpha, "constant": m})
                      for alpha, m in constants.items()]
