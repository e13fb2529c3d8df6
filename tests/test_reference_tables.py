"""The array checks of sgpd, kernel and the representation layer agree with the loop oracle.

Every generator family at small sizes, hand-built tables, and seeded
corruptions of each (compose, star, unit and action entries, kernel blocks
pushed off invariance) go through the library and through
`reference_tables`. Reports must match entry for entry and in order,
classifications field for field, invariance results witness for witness,
and raised exceptions in type and message. The stacked representation
layer agrees with the element-by-element one to rounding, and its derived
multiplicativity residual bounds the exhaustive one.
"""

import dataclasses
import itertools
import re

import numpy as np
import pytest

import reference_tables as ref
from helpers import merge_monoid, trivial_group, z2_swap
from kgl import generators, hilbert_lin, sgpd
from kgl import krein_lin as kl
from kgl.bundle import HilbertBundle
from kgl.errors import InvalidSemigroupoid, PairingViolated
from kgl.kernel import (OpKernel, _shift_coordinates, bounded_shift_constants, is_invariant,
                        partition_from_action)
from kgl.numlin import DEFAULT_TOL, Tolerances
from kgl.sgpd import LeftAction, StarSemigroupoid


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return "value", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return "raised", type(exc), str(exc)


def assert_same(lib_fn, ref_fn, *args, **kwargs):
    got, want = outcome(lib_fn, *args, **kwargs), outcome(ref_fn, *args, **kwargs)
    if got[0] == "value" and hasattr(got[1], "entries"):
        assert got[1].entries == want[1].entries
    else:
        assert got == want
    # also the Python types and dict orders, which reach the report JSON
    assert repr(got) == repr(want)
    return got


def structures():
    """(name, semigroupoid, action) for every family at small sizes."""
    out = []
    for n in (1, 2, 3, 4):
        syms = tuple(f"s{i}" for i in range(n))
        for action in ("self", "symbols"):
            out.append((f"pair{n}-{action}", *sgpd.pair_groupoid(syms, action=action)))
    for n in (1, 2, 3, 5):
        out.append((f"cyclic{n}", *sgpd.group_as_groupoid(sgpd.cyclic_group_table(n))))
    for seed in (0, 1, 2):
        out.append((f"group_action{seed}", *sgpd.generate("group_action", seed=seed)))
    for sizes in ((1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2)):
        for action in ("self", "symbols"):
            out.append((f"pb{sizes}-{action}", *sgpd.partial_bijections(sizes, action=action)))
    sg, act = z2_swap()
    out.append(("z2_swap", sg, act))
    out.append(("merge_monoid", *merge_monoid()))
    sg = trivial_group()
    out.append(("trivial", sg, sgpd.self_action(sg)))
    free = StarSemigroupoid(
        symbols=("s", "t"), elements=("a", "a2"), d={"a": "s", "a2": "s"},
        c={"a": "s", "a2": "s"},
        compose={("a", "a"): "a2", ("a", "a2"): "a2", ("a2", "a"): "a2", ("a2", "a2"): "a2"},
        star={"a": "a", "a2": "a2"})
    out.append(("free-isolated", free,
                LeftAction(free, ("x",), {"x": "s"}, {("a", "x"): "x", ("a2", "x"): "x"})))
    return out


STRUCTURES = structures()
IDS = [name for name, _, _ in STRUCTURES]


def rebuilt(sg, compose=None, star=None, units="keep"):
    return StarSemigroupoid(sg.symbols, sg.elements, sg.d, sg.c,
                            sg.compose if compose is None else compose,
                            sg.star if star is None else star,
                            sg.units if units == "keep" else units)


def corrupted_tables(sg, rng):
    """Seeded single and double defects of the compose, star and unit tables."""
    el = sg.elements
    keys = list(sg.compose)
    out = []
    for _ in range(3):
        comp = dict(sg.compose)
        del comp[keys[rng.integers(len(keys))]]
        out.append(rebuilt(sg, compose=comp))
        comp = dict(sg.compose)
        for k in rng.choice(len(keys), size=min(2, len(keys)), replace=False):
            comp[keys[k]] = el[rng.integers(len(el))]
        out.append(rebuilt(sg, compose=comp))
        star = dict(sg.star)
        star[el[rng.integers(len(el))]] = el[rng.integers(len(el))]
        out.append(rebuilt(sg, star=star))
    off = [(a, b) for a, b in itertools.product(el, repeat=2) if (a, b) not in sg.compose]
    if off:
        comp = dict(sg.compose)
        comp[off[rng.integers(len(off))]] = el[0]
        out.append(rebuilt(sg, compose=comp))
    star = dict(sg.star)
    del star[el[-1]]
    out.append(rebuilt(sg, star=star))
    if sg.units:
        units = dict(sg.units)
        units[sg.symbols[-1]] = el[rng.integers(len(el))]
        out.append(rebuilt(sg, units=units))
        units = dict(sg.units)
        del units[sg.symbols[0]]
        out.append(rebuilt(sg, units=units))
    out.append(rebuilt(sg, units=None))
    return out


def corrupted_actions(act, rng):
    """Seeded defects of the action table and the anchor map."""
    sg, base = act.sg, act.base
    keys = list(act.act)
    out = []
    for _ in range(3):
        table = dict(act.act)
        del table[keys[rng.integers(len(keys))]]
        out.append(LeftAction(sg, base, act.anchor, table))
        table = dict(act.act)
        table[keys[rng.integers(len(keys))]] = base[rng.integers(len(base))]
        out.append(LeftAction(sg, base, act.anchor, table))
    off = [(g, x) for g in sg.elements for x in base if (g, x) not in act.act]
    if off:
        table = dict(act.act)
        table[off[rng.integers(len(off))]] = base[0]
        out.append(LeftAction(sg, base, act.anchor, table))
    anchor = dict(act.anchor)
    anchor[base[-1]] = sg.symbols[0]
    out.append(LeftAction(sg, base, anchor, act.act))
    return out


@pytest.mark.parametrize("name,sg,act", STRUCTURES, ids=IDS)
def test_structure_checks_match_reference(name, sg, act):
    assert_same(sgpd.validate, ref.validate, sg)
    assert_same(sgpd.classify, ref.classify, sg)
    assert sgpd._search_units(sg) == ref.search_units(sg)
    for unital in (False, True):
        assert_same(sgpd.validate_action, ref.validate_action, act, unital=unital)


@pytest.mark.parametrize("name,sg,act", STRUCTURES, ids=IDS)
def test_corrupted_structures_match_reference(name, sg, act):
    rng = np.random.default_rng(sum(map(ord, name)))
    for bad in corrupted_tables(sg, rng):
        assert_same(sgpd.validate, ref.validate, bad)
        assert_same(sgpd.classify, ref.classify, bad)
        assert sgpd._search_units(bad) == ref.search_units(bad)
        bad_act = LeftAction(bad, act.base, act.anchor, act.act)
        assert_same(sgpd.validate_action, ref.validate_action, bad_act, unital=True)
    for bad_act in corrupted_actions(act, rng):
        for unital in (False, True):
            assert_same(sgpd.validate_action, ref.validate_action, bad_act, unital=unital)


@pytest.mark.parametrize("name,sg,act", STRUCTURES, ids=IDS)
def test_orbit_triviality_matches_reference(name, sg, act):
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    for _ in range(4):
        dims = {x: int(rng.integers(1, 3)) for x in act.base}
        bundle = HilbertBundle(points=act.base, dim=dims)
        assert_same(sgpd.orbit_trivial_bundle, ref.orbit_trivial_bundle, act, bundle)
    if len(act.base) > 1:
        short = HilbertBundle(points=act.base[1:], dim={x: 1 for x in act.base[1:]})
        assert_same(sgpd.orbit_trivial_bundle, ref.orbit_trivial_bundle, act, short)


# ------------------------------------------------------------------
# shifts


def assert_shifts_match(act, bundle):
    """The scatter of every element's shift coordinates is its loop-built shift matrix."""
    p = partition_from_action(bundle, act)
    want = {g: ref.shift(act, bundle, g, p) for g in act.sg.elements}
    coords = _shift_coordinates(act, p)
    assert list(coords) == list(want)
    rng = np.random.default_rng(len(want))
    for g, psi in want.items():
        n, c = psi.shape[0], coords[g]
        assert c.shape == (psi.shape[1],) and (c >= 0).all(), g
        scatter = np.zeros_like(psi)
        scatter[c, np.arange(c.size)] = 1.0
        assert np.array_equal(scatter, psi), g
        # what the library gathers in place of the products with psi
        w = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        gram = w.conj().T @ w
        assert np.array_equal(w @ psi, w[:, c]), g
        assert np.array_equal(psi.conj().T @ gram @ psi, gram[np.ix_(c, c)]), g


@pytest.mark.parametrize("name,sg,act", STRUCTURES, ids=IDS)
def test_shift_matrices_match_reference(name, sg, act):
    # every family, z2_swap, and merge_monoid, whose action is not injective
    for dim in (1, 2):
        assert_shifts_match(act, HilbertBundle(points=act.base, dim={x: dim for x in act.base}))


def test_shift_matrices_match_reference_on_varying_fibers():
    for name, act, k in INVARIANCE:
        assert_shifts_match(act, k.bundle)


# ------------------------------------------------------------------
# invariance


def perturbed(k, p, rng, sizes):
    """Copies of k with one within-part block moved by each given size."""
    out = []
    for size in sizes:
        part = [idx for idx in p.parts.values() if idx.part]
        idx = part[rng.integers(len(part))]
        x, y = (idx.part[rng.integers(len(idx.part))] for _ in range(2))
        shape = (k.bundle.dim[x], k.bundle.dim[y])
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        blocks = dict(k.blocks)
        blocks[(x, y)] = k.block(x, y) + size * z / np.linalg.norm(z)
        out.append(OpKernel(k.bundle, blocks))
    return out


def pair_groupoid_kernel(n, rng):
    """Invariant kernel of the pair groupoid acting on itself, fibers of varying size.

    The point (u, v) has fiber dimension 1 + (index of v) % 3, and every
    part u carries the same Hermitian matrix in the v coordinates.
    """
    syms = tuple(f"s{i}" for i in range(n))
    sg, act = sgpd.pair_groupoid(syms)
    dim_of = {v: 1 + i % 3 for i, v in enumerate(syms)}
    dims = {f"({u},{v})": dim_of[v] for u in syms for v in syms}
    bundle = HilbertBundle(points=act.base, dim=dims)
    h = {}
    for v, w in itertools.product(syms, repeat=2):
        if (w, v) in h:
            h[(v, w)] = h[(w, v)].conj().T
        else:
            z = rng.standard_normal((dim_of[v], dim_of[w]))
            h[(v, w)] = z + z.T if v == w else z + 1j * rng.standard_normal(z.shape)
    blocks = {(f"({u},{v})", f"({u},{w})"): h[(v, w)]
              for u in syms for v in syms for w in syms}
    return act, OpKernel(bundle, blocks)


def group_kernel(n, rng):
    """Z_n rotating n points and fixing two more, kernel averaged over the group."""
    table = sgpd.cyclic_group_table(n)
    base = tuple(f"x{k}" for k in range(n)) + ("f0", "f1")
    amap = {(f"g{i}", f"x{k}"): f"x{(i + k) % n}" for i in range(n) for k in range(n)}
    amap.update({(f"g{i}", f): f for i in range(n) for f in ("f0", "f1")})
    sg, act = sgpd.group_action(table, base, amap)
    dims = {x: 2 for x in base[:n]} | {"f0": 1, "f1": 3}
    bundle = HilbertBundle(points=base, dim=dims)
    raw = {(x, y): rng.standard_normal((dims[x], dims[y])) for x in base for y in base}
    blocks = {}
    for x, y in itertools.product(base, repeat=2):
        blocks[(x, y)] = sum(raw[(act.apply(g, x), act.apply(g, y))] for g in sg.elements)
    return act, OpKernel(bundle, blocks)


def invariance_cases():
    cases = []
    for family, params in (("pair_groupoid", {"symbols": ("a", "b", "c")}),
                           ("group_as_groupoid", {"table": sgpd.cyclic_group_table(4)}),
                           ("group_action", {}),
                           ("partial_bijections", {"fiber_sizes": (2, 1)}),
                           ("partial_bijections", {"fiber_sizes": (2,)})):
        for seed, mode in ((1, "psd_invariant"), (2, "hermitian_invariant"), (3, "arbitrary")):
            sg, act, bundle, k = generators.generate_instance(family, seed=seed, mode=mode,
                                                              **params)
            cases.append((f"{family}-{mode}", act, k))
    rng = np.random.default_rng(7)
    cases.append(("pair-varying-fibers", *pair_groupoid_kernel(3, rng)))
    cases.append(("group-fixed-points", *group_kernel(3, rng)))
    return cases


INVARIANCE = invariance_cases()
LOOSE = Tolerances(atol=1e-6)


@pytest.mark.parametrize("name,act,k", INVARIANCE, ids=[c[0] for c in INVARIANCE])
def test_invariance_matches_reference(name, act, k):
    got = assert_same(is_invariant, ref.is_invariant, k, act)
    if not name.endswith("arbitrary"):
        assert got == ("value", (True, None))
    rng = np.random.default_rng(sum(map(ord, name)))
    p = partition_from_action(k.bundle, act)
    for bad in perturbed(k, p, rng, (1e-13, 1e-7, 1e-3, 1.0, 1.0)):
        assert_same(is_invariant, ref.is_invariant, bad, act)
        assert_same(is_invariant, ref.is_invariant, bad, act, LOOSE)
    keys = list(act.act)
    for _ in range(3):
        table = dict(act.act)
        del table[keys[rng.integers(len(keys))]]
        bad_act = LeftAction(act.sg, act.base, act.anchor, table)
        assert_same(is_invariant, ref.is_invariant, k, bad_act)
        g, x = keys[rng.integers(len(keys))]
        same_part = [y for y in act.base if act.anchor[y] == act.anchor[act.act[(g, x)]]]
        table = dict(act.act)
        table[(g, x)] = same_part[rng.integers(len(same_part))]
        assert_same(is_invariant, ref.is_invariant, k,
                    LeftAction(act.sg, act.base, act.anchor, table))


def test_invariance_raises_where_the_loop_order_first_meets_a_missing_value():
    # g1 misses the point g1 (second row), g1* = g3 misses g2 (third column of
    # the first row): the first row reaches the missing g3.g2 first
    sg, act, bundle, k = generators.generate_instance(
        "group_as_groupoid", seed=1, table=sgpd.cyclic_group_table(4))
    table = dict(act.act)
    del table[("g1", "g1")], table[("g3", "g2")]
    bad_act = LeftAction(sg, act.base, act.anchor, table)
    got = assert_same(is_invariant, ref.is_invariant, k, bad_act)
    assert got == ("raised", InvalidSemigroupoid, "action of 'g3' on 'g2' is not defined")


def test_invariance_rejects_action_values_outside_the_part():
    # the loop oracle would read a cross-part block here; the array check
    # has only the part Gram matrices and refuses the table instead
    act, k = pair_groupoid_kernel(2, np.random.default_rng(0))
    table = dict(act.act)
    table[("(s0,s1)", "(s1,s0)")] = "(s1,s0)"  # anchored at s1, not at s0
    bad_act = LeftAction(act.sg, act.base, act.anchor, table)
    with pytest.raises(InvalidSemigroupoid, match="outside the part"):
        is_invariant(k, bad_act)


# ------------------------------------------------------------------
# represented shifts and their laws


SMALL_FAMILIES = (("pair_groupoid", {"symbols": ("a", "b", "c")}),
                  ("group_as_groupoid", {"table": sgpd.cyclic_group_table(4)}),
                  ("group_action", {}),
                  ("partial_bijections", {"fiber_sizes": (2, 1)}),
                  ("partial_bijections", {"fiber_sizes": (2,)}))


def representation_cases():
    """(name, linearisation, action) on small instances of every generator
    family: PSD and indefinite kernels on the direct route, and indefinite
    kernels through an invariant dominant."""
    cases = []
    for family, params in SMALL_FAMILIES:
        for seed, mode in ((1, "psd_invariant"), (2, "hermitian_invariant")):
            sg, act, bundle, k = generators.generate_instance(family, seed=seed, mode=mode,
                                                              **params)
            p = partition_from_action(bundle, act)
            cases.append((f"{family}{len(sg.elements)}-{mode}", kl.krein_linearisation(k, p), act))
        sg, act = generators.generate_structure(family, 3, **params)
        bundle = HilbertBundle(points=act.base, dim={x: 2 for x in act.base})
        k, l = generators.invariant_dominant_pair(act, bundle, seed=3)
        p = partition_from_action(bundle, act)
        cases.append((f"{family}{len(sg.elements)}-dominant",
                      kl.krein_linearisation(k, p, dominant=l), act))
    return cases


REPRESENTATIONS = representation_cases()
REP_IDS = [c[0] for c in REPRESENTATIONS]


def close(got, want, scale):
    """Equal up to rounding at the given scale."""
    return abs(got - want) <= 1e-9 * max(1.0, scale)


@pytest.mark.parametrize("name,lin,act", REPRESENTATIONS, ids=REP_IDS)
def test_represented_shifts_match_reference(name, lin, act):
    psi, norms = kl.represented_shifts(lin, act)
    want_psi, want_norms, _ = ref.represented_shifts(lin, act)
    assert list(psi) == list(want_psi) == list(act.sg.elements)
    assert list(norms) == list(want_norms)
    for a in psi:
        assert psi[a].shape == want_psi[a].shape
        assert np.allclose(psi[a], want_psi[a], rtol=0, atol=1e-9 * max(1.0, want_norms[a]))
        assert close(norms[a], want_norms[a], want_norms[a]), a


@pytest.mark.parametrize("name,lin,act", REPRESENTATIONS, ids=REP_IDS)
def test_derived_laws_bound_the_exhaustive_laws(name, lin, act):
    # the derived multiplicativity residual is at least the exhaustive one and
    # within the bound; star and intertwining are the exhaustive residuals
    rep = kl.represent(lin, act)
    got = {check: r for check, r in zip(("multiplicative", "star", "intertwining"), rep.records)}
    want = ref.representation_laws(rep)
    assert all(r.passed for r in rep.records), name
    mul = got["multiplicative"]
    assert want["multiplicative"][0] <= mul.residual <= mul.tolerance
    if mul.witness is not None:
        (a, b), sigma = mul.witness
        assert (a, b) in act.sg.compose
        assert sigma == lin.sigma_min(act.sg.d[b]) > 0.0
    for check in ("star", "intertwining"):
        assert abs(got[check].residual - want[check][0]) <= 1e-3 * got[check].tolerance, check


@pytest.mark.parametrize("name,lin,act", REPRESENTATIONS, ids=REP_IDS)
def test_a_corrupted_shift_fails_multiplicativity_and_intertwining(name, lin, act):
    # the represented shifts are read-only; a mapping put in their place is certified as it is
    rep = kl.represent(lin, act)
    a = next(a for a in act.sg.elements if rep.psi[a].size)
    with pytest.raises(TypeError):
        rep.psi[a] = rep.psi[a]
    with pytest.raises(ValueError):
        rep.psi[a][0, 0] += 1.0
    bad = rep.psi[a].copy()
    bad[0, 0] += max(1.0, rep.norms[a])
    rep = dataclasses.replace(rep, psi={**rep.psi, a: bad})
    mul, _, inter = kl.krein_representation_laws(rep)
    assert not mul.passed and not inter.passed
    # the derived residual still bounds the exhaustive one
    assert mul.residual >= ref.representation_laws(rep)["multiplicative"][0]


def test_a_broken_coordinate_identity_fails_multiplicativity():
    # the unit swaps the points as g does: every pair breaks c_a[c_b] == c_ab,
    # while each shift alone still pairs and intertwines exactly
    sg, act = z2_swap()
    bad = LeftAction(sg, act.base, act.anchor, {**act.act, ("e", "x1"): "x2", ("e", "x2"): "x1"})
    k = OpKernel(HilbertBundle(points=act.base, dim={"x1": 1, "x2": 1}),
                 {("x1", "x1"): [[2.0]], ("x2", "x2"): [[2.0]], ("x1", "x2"): [[1.0]],
                  ("x2", "x1"): [[1.0]]})
    lin = kl.krein_linearisation(k, partition_from_action(k.bundle, bad))
    rep = kl.represent(lin, bad)
    mul, star, inter = rep.records
    assert not mul.passed and mul.witness[0] == ("e", "e")
    assert star.passed and inter.passed
    assert mul.residual >= ref.representation_laws(rep)["multiplicative"][0] > mul.tolerance


@pytest.mark.parametrize("name,lin,act", REPRESENTATIONS, ids=REP_IDS)
def test_partial_isometry_residuals_match_reference(name, lin, act):
    # every family is inverse with its inverse map as star: with J = I the residual
    # is the derived bound, at least the exhaustive residual and within the tolerance;
    # with J != I it is the exhaustive residual
    rep = hilbert_lin.HilbertRepresentation(act, lin, *kl.represented_shifts(lin, act))
    cls = sgpd.classify(act.sg)
    assert cls.is_inverse and cls.star_matches_inverse
    want = ref.partial_isometry_residuals(rep.psi)
    records = hilbert_lin.partial_isometry_report(rep, cls)
    assert [r.witness[0] for r in records] == list(want)
    assert hilbert_lin.is_definite(lin) == name.endswith("psd_invariant")
    for r in records:
        a = r.witness[0]
        if hilbert_lin.is_definite(lin):
            assert want[a] <= r.residual <= r.tolerance, a
        else:
            assert close(r.residual, want[a], rep.norms[a] ** 3), a


@pytest.mark.parametrize("name,lin,act", [c for c in REPRESENTATIONS if c[0].endswith("psd_invariant")],
                         ids=[i for i in REP_IDS if i.endswith("psd_invariant")])
def test_a_corrupted_shift_fails_the_derived_partial_isometry_law(name, lin, act):
    rep = hilbert_lin.definite_representation(kl.represent(lin, act))
    cls = sgpd.classify(act.sg)
    assert all(r.passed for r in hilbert_lin.partial_isometry_report(rep, cls))
    a = next(a for a in act.sg.elements if rep.psi[a].size)
    bad = rep.psi[a].copy()
    bad[0, 0] += max(1.0, rep.norms[a])
    broken = dataclasses.replace(rep, psi={**rep.psi, a: bad})
    records = hilbert_lin.partial_isometry_report(broken, cls)
    assert not all(r.passed for r in records)
    want = ref.partial_isometry_residuals(broken.psi)
    # the derived residual still bounds the exhaustive one on every element
    assert all(r.residual >= want[r.witness[0]] for r in records)


@pytest.mark.parametrize("family,params", SMALL_FAMILIES, ids=[f for f, _ in SMALL_FAMILIES])
def test_a_representation_carries_the_bounded_shift_constants_of_the_kernel(family, params):
    # the constants of the representation are those of the kernel, to the bit
    sg, act, bundle, k = generators.generate_instance(family, seed=1, **params)
    rep = hilbert_lin.invariant_representation(k, act, partition_from_action(bundle, act))
    assert rep.shift_constants == bounded_shift_constants(k, act)


@pytest.mark.parametrize("family,params", SMALL_FAMILIES, ids=[f for f, _ in SMALL_FAMILIES])
def test_shift_constants_match_reference(family, params):
    # invariant PSD kernels (every constant defined) and random PSD ones (some undefined)
    sg, act, bundle, k = generators.generate_instance(family, seed=1, **params)
    p = partition_from_action(bundle, act)
    for l in (k, generators.random_psd_kernel(bundle, p, seed=1),
              generators.random_psd_kernel(bundle, p, seed=2, full_rank=True)):
        got, want = bounded_shift_constants(l, act), ref.shift_constants(l, act)
        assert list(got) == list(want)
        assert [m is None for m in got.values()] == [m is None for m in want.values()]
        for a, m in got.items():
            if m is not None:
                assert close(m, want[a], want[a]), a


def test_the_first_element_that_fails_its_gather_or_pairing_raises():
    # a random PSD kernel of deficient rank is not invariant: some shifts do not
    # descend. Removing an action value of an earlier or a later element decides
    # which of the two raises, as in the element-by-element loop.
    sg, act, bundle, _ = generators.generate_instance("pair_groupoid", seed=1,
                                                      symbols=("a", "b", "c"))
    p = partition_from_action(bundle, act)
    lin = kl.krein_linearisation(generators.random_psd_kernel(bundle, p, seed=1), p)
    with pytest.raises(PairingViolated) as exc:
        ref.represented_shifts(lin, act)
    failing = next(a for a in sg.elements if repr(a) in str(exc.value))
    with pytest.raises(PairingViolated, match=re.escape(f"shift of {failing!r} does not")):
        kl.represented_shifts(lin, act)
    position = sg.elements.index(failing)
    assert 0 < position < len(sg.elements) - 1
    for other, kind in ((sg.elements[position - 1], InvalidSemigroupoid),
                        (sg.elements[-1], PairingViolated)):
        x = next(x for x in act.base if (other, x) in act.act)
        table = {key: y for key, y in act.act.items() if key != (other, x)}
        bad = LeftAction(sg, act.base, act.anchor, table)
        got = outcome(kl.represented_shifts, lin, bad)
        assert got[:2] == outcome(ref.represented_shifts, lin, bad)[:2] == ("raised", kind)
        if kind is InvalidSemigroupoid:
            assert got[2] == f"action of {other!r} on {x!r} is not defined"
        else:
            assert got[2].startswith(f"shift of {failing!r} does not descend")
