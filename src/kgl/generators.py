"""Seeded instance and kernel generators.

Randomness comes from numpy's counter-based Philox bit generator, keyed
directly by the seed, so instances reproduce bit-for-bit across runs and
platforms. Invariant kernels are built by construction, not by search:

- averaging: for a groupoid whose star is inversion, summing shifted
  copies of arbitrary per-symbol matrices over each domain fiber yields an
  invariant kernel (PSD input gives a PSD kernel, Hermitian gives
  Hermitian);
- representation oracle: for an inverse semigroupoid acting on itself by
  left multiplication, the partial-permutation matrices "compose when the
  domain idempotent fits" form a star-representation; Gram kernels of its
  orbits are invariant and PSD, and signed combinations of two of them
  give invariant Hermitian kernels together with an invariant dominant.
"""

import numpy as np

from . import numlin
from .bundle import HilbertBundle
from .errors import UnsupportedFamily
from .kernel import (
    OpKernel,
    Partition,
    _gather_index,
    _require_orbit_trivial,
    _shift_coordinates,
    kernel_from_part_grams,
    kernel_lincomb,
    partition_from_action,
)
from .numlin import DEFAULT_TOL, Tolerances
from .sgpd import LeftAction, classify
from .sgpd import generate as generate_structure

__all__ = [
    "rng_for",
    "random_hermitian",
    "random_psd",
    "random_psd_kernel",
    "random_hermitian_kernel",
    "generate_kernel",
    "invariant_dominant_pair",
    "generate_instance",
    "random_lift_quadruple",
]


def rng_for(seed: int) -> np.random.Generator:
    """The package-wide seeded generator (counter-based Philox stream)."""
    return np.random.Generator(np.random.Philox(int(seed)))


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_psd(rng, n: int, rank=None) -> np.ndarray:
    """Random PSD matrix of a chosen (or random) rank."""
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    b = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    return b.conj().T @ b if rank else np.zeros((n, n), dtype=np.complex128)


def random_psd_kernel(bundle: HilbertBundle, p: Partition, seed: int,
                      full_rank: bool = False) -> OpKernel:
    """Partially PSD kernel with independent random part Gram matrices."""
    rng = rng_for(seed)
    grams = {}
    for label, idx in p.parts.items():
        n = idx.total_dim
        grams[label] = random_psd(rng, n, rank=n if full_rank else None)
    return kernel_from_part_grams(p, grams)


def random_hermitian_kernel(bundle: HilbertBundle, p: Partition, seed: int) -> OpKernel:
    """Partially Hermitian kernel with independent random part Gram matrices."""
    rng = rng_for(seed)
    grams = {label: random_hermitian(rng, idx.total_dim) for label, idx in p.parts.items()}
    return kernel_from_part_grams(p, grams)


# ------------------------------------------------------------------
# invariant kernels by construction


def _averaged_grams(act: LeftAction, bundle: HilbertBundle, p: Partition, seeds):
    """Fiber sums of shifted per-symbol seed matrices.

    For each part s the Gram matrix is the sum over elements with domain s
    of (shift of the element)* seed-at-codomain (shift of the element), a
    gather of the seed. Star-equals-inversion makes right multiplication by
    any element a bijection between domain fibers, which is exactly what
    the invariance identity needs.
    """
    sg = act.sg
    _require_orbit_trivial(act, bundle)
    coords = _shift_coordinates(act, p)
    grams = {}
    for s in sg.symbols:
        n = p.index(s).total_dim
        g = np.zeros((n, n), dtype=np.complex128)
        for beta in sg.in_fiber(s):
            c = _gather_index(act, p, coords, beta)
            g += seeds[sg.c[beta]][np.ix_(c, c)]
        grams[s] = g
    return grams


def _is_self_action(act: LeftAction) -> bool:
    sg = act.sg
    if set(act.base) != set(sg.elements):
        return False
    return all(act.anchor[b] == sg.c[b] for b in act.base)


def _vp_matrices(act: LeftAction, p: Partition):
    """Partial-permutation star-representation of an inverse semigroupoid.

    Acting element alpha sends the basis vector of a point beta (an
    element with codomain equal to alpha's domain) to the basis vector of
    alpha*beta exactly when beta beta* lies below alpha* alpha in the
    idempotent order, and to zero otherwise. The cut-off is what makes the
    star land on the matrix adjoint.
    """
    sg = act.sg
    pos = {s: {x: i for i, x in enumerate(p.index(s).part)} for s in sg.symbols}

    def idem(g):
        return sg.compose[(g, sg.star[g])]

    def below(e, f):  # idempotent order: e <= f iff ef = e
        return sg.compose.get((e, f)) == e

    mats = {}
    for alpha in sg.elements:
        sd, sc = sg.d[alpha], sg.c[alpha]
        dom_idem = sg.compose[(sg.star[alpha], alpha)]
        m = np.zeros((len(pos[sc]), len(pos[sd])), dtype=np.complex128)
        for beta, j in pos[sd].items():
            if below(idem(beta), dom_idem):
                m[pos[sc][sg.compose[(alpha, beta)]], j] = 1.0
        mats[alpha] = m
    return mats


def _vp_grams(act: LeftAction, bundle: HilbertBundle, p: Partition, rng):
    """Part Gram matrices of the orbit kernel of the partial-permutation
    representation: the (x, y) block is (pi(x) C)* (pi(y) C)."""
    sg = act.sg
    mats = _vp_matrices(act, p)
    dim_of = {}
    for x in act.base:
        s = sg.d[x]
        n = bundle.dim[x]
        if dim_of.setdefault(s, n) != n:
            raise UnsupportedFamily(
                "representation oracle needs a constant fiber dimension per domain symbol")
    coeff = {}
    for s in sg.symbols:
        rows = len(p.index(s).part)
        cols = dim_of.get(s, 1)
        coeff[s] = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    feat = {x: mats[x] @ coeff[sg.d[x]] for x in act.base}
    grams = {}
    for s in sg.symbols:
        idx = p.index(s)
        n = idx.total_dim
        g = np.zeros((n, n), dtype=np.complex128)
        for x in idx.part:
            for y in idx.part:
                g[idx.slice_of(x), idx.slice_of(y)] = feat[x].conj().T @ feat[y]
        grams[s] = g
    return grams


def _oracle_route(act: LeftAction):
    cls = classify(act.sg)
    if cls.is_groupoid and cls.star_matches_inverse:
        return "averaging"
    if cls.is_inverse and cls.star_matches_inverse and _is_self_action(act):
        return "representation"
    return None


def generate_kernel(act: LeftAction, bundle: HilbertBundle, mode: str, seed: int,
                    tol: Tolerances = DEFAULT_TOL) -> OpKernel:
    """Deterministic kernel over the action's partition.

    mode "arbitrary" draws independent Hermitian part Gram matrices;
    "psd_invariant" and "hermitian_invariant" build kernels that are
    invariant by construction, through fiber averaging (groupoids) or the
    partial-permutation representation oracle (inverse semigroupoids
    acting on themselves). Raises UnsupportedFamily when neither oracle
    applies.
    """
    p = partition_from_action(bundle, act)
    if mode == "arbitrary":
        return random_hermitian_kernel(bundle, p, seed)
    if mode not in ("psd_invariant", "hermitian_invariant"):
        raise UnsupportedFamily(f"unknown kernel mode {mode!r}")
    rng = rng_for(seed)
    route = _oracle_route(act)
    if route == "averaging":
        sg = act.sg
        dims = {s: p.index(s).total_dim for s in sg.symbols}
        if mode == "psd_invariant":
            seeds = {
                s: random_psd(rng, dims[s], rank=int(rng.integers(1, dims[s] + 1)))
                for s in sg.symbols
            }
        else:
            seeds = {s: random_hermitian(rng, dims[s]) for s in sg.symbols}
        return kernel_from_part_grams(p, _averaged_grams(act, bundle, p, seeds))
    if route == "representation":
        k1 = kernel_from_part_grams(p, _vp_grams(act, bundle, p, rng))
        if mode == "psd_invariant":
            return k1
        k2 = kernel_from_part_grams(p, _vp_grams(act, bundle, p, rng))
        return kernel_lincomb([1.0, -2.0], [k1, k2])
    raise UnsupportedFamily(
        "invariant generation needs a groupoid with star equal to inversion "
        "(averaging) or an inverse semigroupoid acting on itself (representation oracle)")


def invariant_dominant_pair(act: LeftAction, bundle: HilbertBundle, seed: int,
                            tol: Tolerances = DEFAULT_TOL):
    """An invariant Hermitian kernel together with an invariant PSD dominant.

    Built so that L - K and L + K are PSD sums by construction and the
    form kernel of L is contained in that of K's Gram matrices, so the
    Gram-operator pipeline and the reducibility check both apply.
    """
    p = partition_from_action(bundle, act)
    rng = rng_for(seed)
    route = _oracle_route(act)
    if route == "averaging":
        sg = act.sg
        dims = {s: p.index(s).total_dim for s in sg.symbols}
        seeds = {s: random_hermitian(rng, dims[s]) for s in sg.symbols}
        abs_seeds = {s: numlin.herm_abs(h, tol) for s, h in seeds.items()}
        k = kernel_from_part_grams(p, _averaged_grams(act, bundle, p, seeds))
        l = kernel_from_part_grams(p, _averaged_grams(act, bundle, p, abs_seeds))
        return k, l
    if route == "representation":
        k1 = kernel_from_part_grams(p, _vp_grams(act, bundle, p, rng))
        k2 = kernel_from_part_grams(p, _vp_grams(act, bundle, p, rng))
        k = kernel_lincomb([1.0, -2.0], [k1, k2])
        l = kernel_lincomb([1.0, 2.0], [k1, k2])
        return k, l
    raise UnsupportedFamily(
        "no invariant dominant construction for this action; need a groupoid "
        "or a self-acting inverse semigroupoid")


def generate_instance(family: str, seed: int = 0, mode: str = "psd_invariant",
                      tol: Tolerances = DEFAULT_TOL, **params):
    """A complete generated instance: semigroupoid, action, bundle, kernel.

    The fiber dimension is a small constant across the base (drawn from
    the seed), which keeps every orbit trivially compatible.
    """
    sg, act = generate_structure(family, seed, **params)
    rng = rng_for(seed)
    n = int(rng.integers(1, 4))
    bundle = HilbertBundle(points=act.base, dim={x: n for x in act.base})
    kernel = generate_kernel(act, bundle, mode, seed, tol)
    return sg, act, bundle, kernel


def random_lift_quadruple(n: int, m: int, seed: int, tol: Tolerances = DEFAULT_TOL):
    """Matrices (A, B, T, S) with B T = S* A holding by construction.

    A and B are Hermitian with a random amount of rank deficiency; T is a
    random map flattened onto the range of A, and S is the form-adjoint
    solution. The identity then holds to rounding error, which is what the
    lifting construction requires.
    """
    rng = rng_for(seed)
    a = random_hermitian(rng, n)
    b = random_hermitian(rng, m)
    if n and int(rng.integers(0, 2)):
        w, u = numlin.herm_eig(a, tol)
        keep = np.ones(n, dtype=bool)
        keep[int(rng.integers(0, n))] = False
        a = (u[:, keep] * w[keep]) @ u[:, keep].conj().T
    t0 = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    e_minus, _, e_plus = numlin.spectral_projections(a, tol)
    p_ran = e_minus + e_plus
    t = t0 @ p_ran
    s = numlin.pinv(a, tol) @ t.conj().T @ b
    return a, b, t, s
