"""Loop implementations of the table checks, kept as a test oracle.

These are the plain dict-walking versions of `sgpd.validate`,
`sgpd.validate_action`, `sgpd.classify` (with its unit search),
`sgpd.orbit_trivial_bundle` and `kernel.is_invariant`, and the loop that
builds a shift matrix (`shift`). The library runs array versions of the
same checks and gathers at shift coordinates instead of building shift
matrices; `test_reference_tables.py` asserts that both give identical
results, witnesses, order and exceptions.

The representation layer has its element-by-element and pair-by-pair
versions here too: the represented shifts with their pairing residuals and
norms, the bounded-shift constants, the partial-isometry residuals, and the
exhaustive law checks, multiplicativity on every composable pair included.
The library stacks the elements of each part pair and derives
multiplicativity from the pairing residuals; its residuals agree with these
to rounding, and its multiplicativity residual bounds the exhaustive one.
"""

import itertools

import numpy as np

from kgl import numlin
from kgl.errors import InvalidSemigroupoid, OrbitBundleNotTrivial, PairingViolated
from kgl.kernel import conv_blocks, partition_from_action
from kgl.krein_core import krein_adjoint
from kgl.numlin import DEFAULT_TOL, frob, opnorm
from kgl.sgpd import Classification, ValidationReport, orbit


def validate(sg):
    rep = ValidationReport()
    comp = sg.compose

    for a, b in itertools.product(sg.elements, repeat=2):
        defined = (a, b) in comp
        if defined != sg.composable(a, b):
            why = "defined on non-composable pair" if defined else "missing product"
            rep.add("SG3", (a, b), why)
        if defined and sg.composable(a, b):
            ab = comp[(a, b)]
            if sg.d[ab] != sg.d[b] or sg.c[ab] != sg.c[a]:
                rep.add("SG3", (a, b), f"product {ab!r} has wrong domain or codomain")

    def prod(a, b):
        return comp.get((a, b))

    for a, b in comp:
        for g in sg.elements:
            if sg.composable(b, g):
                left = prod(prod(a, b), g) if prod(a, b) is not None else None
                bg = prod(b, g)
                right = prod(a, bg) if bg is not None else None
                if left is None or right is None or left != right:
                    rep.add("SG4", (a, b, g), f"({a}{b}){g} = {left!r} vs {a}({b}{g}) = {right!r}")

    for g in sg.elements:
        if g not in sg.star:
            rep.add("I1", (g,), "star undefined")
            continue
        gs = sg.star[g]
        if sg.d[gs] != sg.c[g] or sg.c[gs] != sg.d[g]:
            rep.add("I1", (g,), f"star({g!r}) = {gs!r} does not swap domain and codomain")
        if sg.star.get(gs) != g:
            rep.add("I3", (g,), f"star(star({g!r})) = {sg.star.get(gs)!r}")
    for (a, b), ab in comp.items():
        sa, sb, sab = sg.star.get(a), sg.star.get(b), sg.star.get(ab)
        if sa is None or sb is None:
            continue
        if prod(sb, sa) != sab:
            rep.add("I2", (a, b), f"star({a}{b}) = {sab!r} but star(b)star(a) = {prod(sb, sa)!r}")

    if sg.units is not None:
        for s in sg.symbols:
            if s not in sg.units:
                rep.add("U1", (s,), "no unit declared for this symbol")
                continue
            e = sg.units[s]
            if sg.d[e] != s or sg.c[e] != s:
                rep.add("U1", (s,), f"unit {e!r} not in the (s, s) fiber")
                continue
            for a in sg.out_fiber(s):
                if prod(e, a) != a:
                    rep.add("U2", (s, a), f"unit does not fix {a!r} from the left")
            for a in sg.in_fiber(s):
                if prod(a, e) != a:
                    rep.add("U3", (s, a), f"unit does not fix {a!r} from the right")
            if sg.star.get(e) != e:
                rep.add("U-star", (s,), f"unit {e!r} is not star-fixed")

    for s in sg.symbols:
        if not sg.out_fiber(s) and not sg.in_fiber(s):
            rep.add("isolated-symbol", (s,), "symbol carries no elements; remove it explicitly")

    return rep


def search_units(sg):
    found = {}
    for s in sg.symbols:
        outs, ins = sg.out_fiber(s), sg.in_fiber(s)
        for e in sg.elements:
            if sg.d[e] != s or sg.c[e] != s:
                continue
            if all(sg.compose.get((e, a)) == a for a in outs) and all(
                sg.compose.get((a, e)) == a for a in ins
            ):
                found[s] = e
                break
    return found


def classify(sg):
    rep = validate(sg)
    if not rep.ok:
        raise InvalidSemigroupoid(f"axioms violated: {rep.axioms()}")

    units = search_units(sg)
    has_unit = set(units) == set(sg.symbols)

    pairs = {(sg.d[g], sg.c[g]) for g in sg.elements}
    is_transitive = pairs == set(itertools.product(sg.symbols, repeat=2))

    inverse_map = {}
    is_inverse = True
    for a in sg.elements:
        cands = []
        for b in sg.elements:
            if sg.d[b] != sg.c[a] or sg.c[b] != sg.d[a]:
                continue
            ab = sg.compose.get((a, b))
            ba = sg.compose.get((b, a))
            if ab is None or ba is None:
                continue
            if sg.compose.get((ab, a)) == a and sg.compose.get((ba, b)) == b:
                cands.append(b)
        if len(cands) == 1:
            inverse_map[a] = cands[0]
        else:
            is_inverse = False
    if not is_inverse:
        inverse_map = None

    is_groupoid = False
    if has_unit and is_inverse:
        is_groupoid = all(
            sg.compose.get((a, inverse_map[a])) == units[sg.c[a]]
            and sg.compose.get((inverse_map[a], a)) == units[sg.d[a]]
            for a in sg.elements
        )

    star_matches = None
    if is_inverse:
        star_matches = all(sg.star[a] == inverse_map[a] for a in sg.elements)

    return Classification(
        has_unit=has_unit,
        is_transitive=is_transitive,
        is_inverse=is_inverse,
        is_groupoid=is_groupoid,
        inverse_map=inverse_map,
        units=units if has_unit else None,
        star_matches_inverse=star_matches,
    )


def validate_action(act, unital=False):
    sg = act.sg
    rep = ValidationReport()

    hit = {act.anchor[x] for x in act.base}
    for s in sg.symbols:
        if s not in hit:
            rep.add("A1", (s,), "anchor misses this symbol (not surjective)")

    for g in sg.elements:
        for x in act.base:
            defined = (g, x) in act.act
            should = sg.d[g] == act.anchor[x]
            if defined != should:
                why = "defined off the anchor fiber" if defined else "missing action value"
                rep.add("A2", (g, x), why)
            if defined and should:
                y = act.act[(g, x)]
                if act.anchor[y] != sg.c[g]:
                    rep.add("A2", (g, x), f"anchor({y!r}) is not the codomain of {g!r}")

    for (a, b), ab in sg.compose.items():
        for x in act.base:
            if sg.d[b] != act.anchor[x]:
                continue
            bx = act.act.get((b, x))
            lhs = act.act.get((ab, x))
            rhs = act.act.get((a, bx)) if bx is not None else None
            if lhs is None or rhs is None or lhs != rhs:
                rep.add("A3", (a, b, x), f"(ab).x = {lhs!r} vs a.(b.x) = {rhs!r}")

    if unital:
        units = sg.units if sg.units is not None else search_units(sg)
        for x in act.base:
            e = units.get(act.anchor[x])
            if e is None:
                rep.add("A-unital", (x,), "no unit available for the anchor symbol")
            elif act.act.get((e, x)) != x:
                rep.add("A-unital", (x,), f"unit moves the point to {act.act.get((e, x))!r}")

    return rep


def orbit_trivial_bundle(act, bundle):
    for x in act.base:
        bundle.require(x)
        dims = {bundle.dim[y] for y in orbit(act, x)}
        if len(dims) > 1:
            return False
    return True


def is_invariant(k, act, tol=DEFAULT_TOL):
    if not orbit_trivial_bundle(act, k.bundle):
        raise OrbitBundleNotTrivial("fiber dimension is not constant on some orbit")
    p = partition_from_action(k.bundle, act)
    conv = conv_blocks(k, p)
    sg = act.sg
    scale = {s: max(1.0, frob(g)) for s, g in conv.items()}
    for alpha in sg.elements:
        sd, sc = sg.d[alpha], sg.c[alpha]
        astar = sg.star[alpha]
        bound = tol.atol * max(scale[sd], scale[sc])
        for x in p.index(sd).part:
            ax = act.apply(alpha, x)
            for y in p.index(sc).part:
                ay = act.apply(astar, y)
                if frob(k.block(ax, y) - k.block(x, ay)) > bound:
                    return False, (alpha, x, y)
    return True, None


def shift(act, bundle, alpha, p):
    """The stacked shift matrix of alpha: an identity block at (alpha.x, x)
    for every point x of the part at its domain symbol."""
    sg = act.sg
    idx_d = p.index(sg.d[alpha])
    idx_c = p.index(sg.c[alpha])
    out = np.zeros((idx_c.total_dim, idx_d.total_dim), dtype=np.complex128)
    for x in idx_d.part:
        y = act.apply(alpha, x)
        out[idx_c.slice_of(y), idx_d.slice_of(x)] = np.eye(bundle.dim[x])
    return out


# ------------------------------------------------------------------
# represented shifts and their laws


def represented_shifts(lin, act, tol=DEFAULT_TOL):
    """(psi, norms, pairing residuals) of every element, one at a time, with
    the dense shift matrices and SVD pseudo-inverses and norms; the first
    element whose pairing fails raises PairingViolated."""
    p = lin.partition
    psi, norms, resid = {}, {}, {}
    for a in act.sg.elements:
        sd, sc = act.sg.d[a], act.sg.c[a]
        w_shift = lin.wmap[sc] @ shift(act, p.bundle, a, p)
        t = w_shift @ numlin.pinv(lin.wmap[sd], tol)
        resid[a] = frob(t @ lin.wmap[sd] - w_shift)
        if resid[a] > tol.atol * opnorm(lin.wmap[sc]) * opnorm(shift(act, p.bundle, a, p)):
            raise PairingViolated(f"shift of {a!r} does not descend to the quotient")
        psi[a], norms[a] = t, opnorm(t)
    return psi, norms, resid


def shift_constants(l, act, tol=DEFAULT_TOL):
    """The bounded-shift constant of every element of a partially PSD kernel,
    from the dense shifted form Psi* G_c Psi of each."""
    p = partition_from_action(l.bundle, act)
    grams = conv_blocks(l, p)
    spectra = {s: numlin.spectrum(g, tol) for s, g in grams.items()}
    out = {}
    for a in act.sg.elements:
        sd, sc = act.sg.d[a], act.sg.c[a]
        m = shift(act, l.bundle, a, p)
        shifted = m.conj().T @ grams[sc] @ m
        n, f = spectra[sd].kernel_basis, spectra[sd].factor_pinv
        if n.shape[1] and opnorm(n.conj().T @ shifted @ n) > tol.atol * spectra[sc].norm:
            out[a] = None
        elif f.shape[1]:
            out[a] = max(float(np.linalg.eigvalsh(f.conj().T @ shifted @ f)[-1]), 0.0)
        else:
            out[a] = 0.0
    return out


def partial_isometry_residuals(psi):
    """max(||m m* m - m||, ||p p - p||) with p = m* m, per element."""
    out = {}
    for a, m in psi.items():
        q = m.conj().T @ m
        out[a] = max(frob(m @ m.conj().T @ m - m), frob(q @ q - q))
    return out


def representation_laws(rep):
    """The exhaustive residuals and witnesses of the representation laws:
    multiplicativity on every composable pair, the star against the
    indefinite adjoint on every element, intertwining on every (element,
    point). Ties go to the first in table order."""
    sg, psi, lin = rep.action.sg, rep.psi, rep.lin
    out = {}
    resid, wit = 0.0, None
    for (a, b), ab in sg.compose.items():
        r = frob(psi[ab] - psi[a] @ psi[b])
        if r > resid:
            resid, wit = r, (a, b)
    out["multiplicative"] = (resid, wit)
    resid, wit = 0.0, None
    for a in sg.elements:
        sharp = krein_adjoint(psi[a], lin.spaces[sg.d[a]], lin.spaces[sg.c[a]])
        r = frob(psi[sg.star[a]] - sharp)
        if r > resid:
            resid, wit = r, (a,)
    out["star"] = (resid, wit)
    resid, wit = 0.0, None
    for a in sg.elements:
        for x in lin.partition.index(sg.d[a]).part:
            r = frob(psi[a] @ lin.features[x] - lin.features[rep.action.apply(a, x)])
            if r > resid:
                resid, wit = r, (a, x)
    out["intertwining"] = (resid, wit)
    return out
