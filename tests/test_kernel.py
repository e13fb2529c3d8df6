import gc
import tracemalloc

import numpy as np
import pytest

from helpers import (circulant_kernel, merge_monoid, scalar_bundle, scalar_kernel,
                     swap_gram_kernel, z2_swap)
from kgl import generators, sgpd
from kgl import kernel as kn
from kgl.bundle import HilbertBundle, delta_section
from kgl.errors import (InvalidSemigroupoid, NonFinite, OrbitBundleNotTrivial, ShapeMismatch,
                        UnknownPoint)
from kgl.kernel import OpKernel
from kgl.numlin import DEFAULT_TOL as TOL


def test_opkernel_block_lookup_and_shape_check():
    b = HilbertBundle(points=("x", "y"), dim={"x": 1, "y": 2})
    k = OpKernel(b, {("x", "y"): np.array([[1.0, 2.0]])})
    assert k.block("x", "y").shape == (1, 2)
    assert np.allclose(k.block("y", "x"), np.zeros((2, 1)))  # absent means zero
    with pytest.raises(ShapeMismatch):
        OpKernel(b, {("x", "y"): np.eye(2)})
    with pytest.raises(UnknownPoint):
        OpKernel(b, {("x", "z"): np.array([[1.0]])})


def test_adjoint_and_re_im_frozen():
    k = circulant_kernel(2.0, 1.0)
    adj = kn.adjoint_kernel(k)
    for x in k.bundle.points:
        for y in k.bundle.points:
            assert np.allclose(adj.block(x, y), k.block(x, y))

    b = scalar_bundle(("x1", "x2"))
    k2 = OpKernel(b, {("x1", "x2"): np.array([[2j]])})
    re, im = kn.re_im(k2)
    assert np.allclose(re.block("x1", "x2"), [[1j]])
    assert np.allclose(im.block("x1", "x2"), [[1.0]])
    # reconstruction: K = Re + i Im, both parts Hermitian
    p = kn.single_partition(b)
    assert kn.is_partially_hermitian(re, p, TOL)
    assert kn.is_partially_hermitian(im, p, TOL)
    for x in b.points:
        for y in b.points:
            assert np.allclose(re.block(x, y) + 1j * im.block(x, y), k2.block(x, y))

    rez, imz = kn.re_im(kn.zero_kernel(b))
    assert kn.conv_blocks(rez, p)["all"].any() == False
    assert kn.conv_blocks(imz, p)["all"].any() == False


def test_conv_blocks_frozen():
    k = circulant_kernel(1.0, 1.0)  # constant scalar kernel on 2 points
    p = kn.single_partition(k.bundle)
    assert np.allclose(kn.conv_blocks(k, p)["all"], np.ones((2, 2)))

    b = scalar_bundle(("x1", "x2"))
    ident = kn.identity_kernel(b)
    assert np.allclose(kn.conv_blocks(ident, p := kn.single_partition(b))["all"],
                       np.eye(2))

    b3 = HilbertBundle(points=("x1", "x2"), dim={"x1": 1, "x2": 2})
    blocks = {("x1", "x1"): np.array([[1.0]]),
              ("x1", "x2"): np.array([[2.0, 3.0]]),
              ("x2", "x1"): np.array([[2.0], [3.0]]),
              ("x2", "x2"): 4.0 * np.eye(2)}
    g = kn.conv_blocks(OpKernel(b3, blocks), kn.single_partition(b3))["all"]
    expected = np.array([[1, 2, 3], [2, 4, 0], [3, 0, 4]], dtype=float)
    assert np.allclose(g, expected)


def test_partial_hermitian_psd_frozen():
    k = circulant_kernel(1.0, 1.0)
    p = kn.single_partition(k.bundle)
    assert kn.is_partially_hermitian(k, p, TOL)
    assert kn.is_partially_psd(k, p, TOL)  # eigenvalues 0 and 2

    swap = swap_gram_kernel()
    assert kn.is_partially_hermitian(swap, p2 := kn.single_partition(swap.bundle), TOL)
    assert not kn.is_partially_psd(swap, p2, TOL)  # eigenvalues -1 and 1

    b = scalar_bundle(("x1", "x2"))
    upper = OpKernel(b, {("x1", "x1"): np.array([[1.0]]),
                         ("x1", "x2"): np.array([[1.0]]),
                         ("x2", "x2"): np.array([[1.0]])})
    assert not kn.is_partially_hermitian(upper, kn.single_partition(b), TOL)


def test_kernel_inner_frozen():
    k = circulant_kernel(1.0, 1.0)
    b = k.bundle
    f = delta_section(b, "x1", [1.0])
    g = delta_section(b, "x2", [1.0])
    assert kn.kernel_inner(k, f, f) == pytest.approx(1.0)
    assert kn.kernel_inner(k, f, g) == pytest.approx(1.0)
    zero = delta_section(b, "x1", [0.0])
    assert kn.kernel_inner(k, zero, g) == 0


def test_kernel_inner_matches_stacked_form():
    rng = np.random.Generator(np.random.Philox(21))
    b = HilbertBundle(points=("x", "y"), dim={"x": 2, "y": 1})
    p = kn.single_partition(b)
    for _ in range(10):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = m + m.conj().T
        k = kn.kernel_from_part_grams(p, {"all": g})
        from kgl.bundle import stack, unstack
        idx = p.index("all")
        f1 = unstack(rng.normal(size=3) + 1j * rng.normal(size=3), idx)
        f2 = unstack(rng.normal(size=3) + 1j * rng.normal(size=3), idx)
        direct = kn.kernel_inner(k, f1, f2, p)
        via_gram = np.vdot(stack(f2, idx), g @ stack(f1, idx))
        assert abs(direct - via_gram) <= 1e-10


def test_dominates_frozen():
    k = circulant_kernel(1.0, 1.0)
    p = kn.single_partition(k.bundle)
    assert kn.dominates(k, k, p, TOL)

    swap = swap_gram_kernel()
    p2 = kn.single_partition(swap.bundle)
    ident = kn.identity_kernel(swap.bundle)
    assert kn.dominates(ident, swap, p2, TOL, two_sided=True)  # I +- G both PSD
    zero = kn.zero_kernel(k.bundle)
    assert not kn.dominates(zero, k, p, TOL)


def test_shift_coordinates_frozen():
    # the shift matrix has its ones at (c[j], j) for the coordinates c
    sg, act = z2_swap()
    b = scalar_bundle(("x1", "x2"))
    coords = kn._shift_coordinates(act, kn.partition_from_action(b, act))
    assert coords["g"].tolist() == [1, 0]  # [[0, 1], [1, 0]]
    assert coords["e"].tolist() == [0, 1]  # the identity

    sg2, act2 = merge_monoid()
    b2 = scalar_bundle(("x0", "x1"))
    coords2 = kn._shift_coordinates(act2, kn.partition_from_action(b2, act2))
    assert coords2["t"].tolist() == [0, 0]  # [[1, 1], [0, 0]]: column merge


def test_bounded_shift_constants_check_the_orbits_once(monkeypatch):
    sg, act, bundle, k = generators.generate_instance("partial_bijections", seed=2)
    calls = []
    orbit_trivial_bundle = kn.orbit_trivial_bundle
    monkeypatch.setattr(kn, "orbit_trivial_bundle",
                        lambda *args: calls.append(1) or orbit_trivial_bundle(*args))
    got = kn.bounded_shift_constants(k, act, TOL)
    assert len(calls) == 1
    assert list(got) == list(sg.elements)
    uneven = HilbertBundle(points=("x1", "x2"), dim={"x1": 1, "x2": 2})
    with pytest.raises(OrbitBundleNotTrivial):
        kn.bounded_shift_constants(kn.identity_kernel(uneven), z2_swap()[1], TOL)


def test_shifts_reject_action_values_outside_the_part():
    # the same table is refused by is_invariant; neither reads a coordinate of another part
    sg, act = sgpd.pair_groupoid(("s0", "s1"))
    table = dict(act.act)
    table[("(s0,s1)", "(s1,s0)")] = "(s1,s0)"  # anchored at s1, not at the codomain s0
    bad = sgpd.LeftAction(sg, act.base, act.anchor, table)
    bundle = scalar_bundle(act.base)
    with pytest.raises(InvalidSemigroupoid, match="outside the part 's0'"):
        kn.bounded_shift_constants(kn.identity_kernel(bundle), bad, TOL)
    with pytest.raises(InvalidSemigroupoid, match="outside the part 's0'"):
        kn.is_invariant(kn.identity_kernel(bundle), bad, TOL)
    coords = kn._shift_coordinates(bad, kn.partition_from_action(bundle, bad))
    assert coords["(s0,s1)"].min() < 0
    assert coords["(s1,s0)"].min() >= 0  # other elements still shift


def test_is_invariant_frozen():
    sg, act = z2_swap()
    k = circulant_kernel(2.0, 1.0)
    ok, wit = kn.is_invariant(k, act, TOL)
    assert ok and wit is None

    diag = scalar_kernel(("x1", "x2"), {("x1", "x1"): 1.0, ("x2", "x2"): 2.0})
    ok, wit = kn.is_invariant(diag, act, TOL)
    assert not ok
    assert wit == ("g", "x1", "x2")

    # no applicable pairs: action table empty at every point of the base
    from kgl.sgpd import LeftAction, StarSemigroupoid
    sg3 = StarSemigroupoid(symbols=("s", "t"), elements=("a",),
                           d={"a": "s"}, c={"a": "s"},
                           compose={("a", "a"): "a"}, star={"a": "a"})
    act3 = LeftAction(sg3, base=("y",), anchor={"y": "t"}, act={})
    ky = scalar_kernel(("y",), {("y", "y"): 3.0})
    ok, wit = kn.is_invariant(ky, act3, TOL)
    assert ok


@pytest.mark.parametrize("mode", ["hermitian_invariant", "arbitrary"])
def test_the_invariance_check_holds_two_gathered_grams_at_most(mode):
    """is_invariant on one part of dimension N = 128 adds at most 2.75 * 16 *
    N**2 bytes to the traced peak: the gathered rows alpha.x, differenced in
    place with the gathered columns alpha*.y, and their squared moduli. An
    out-of-place difference held a third Gram (3.55 * 16 * N**2)."""
    base = tuple(f"x{k}" for k in range(8))
    sg, act = sgpd.generate("group_action", table=sgpd.cyclic_group_table(2), base=base,
                            action_map={(f"g{i}", f"x{k}"): f"x{(k + 4 * i) % 8}"
                                        for i in range(2) for k in range(8)})
    bundle = HilbertBundle(points=base, dim={x: 16 for x in base})
    k = generators.generate_kernel(act, bundle, mode, 1)
    verdict = kn.is_invariant(k, act, TOL)  # first use of each code path out of the figure
    gc.collect()
    tracemalloc.start()
    try:
        assert kn.is_invariant(k, act, TOL) == verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict[0] == (mode != "arbitrary")
    assert peak <= 2.75 * 16 * 128 ** 2


def test_bounded_shift_constant_frozen():
    sg, act = z2_swap()
    k = circulant_kernel(2.0, 1.0)
    m = kn.bounded_shift_constants(k, act, TOL)["g"]
    assert m == pytest.approx(1.0, abs=1e-9)  # the swap is an isometry for G

    sg2, act2 = merge_monoid()
    ident = kn.identity_kernel(scalar_bundle(("x0", "x1")))
    m2 = kn.bounded_shift_constants(ident, act2, TOL)["t"]
    assert m2 == pytest.approx(2.0, abs=1e-9)


def test_bounded_shift_constant_undefined_when_kernel_not_respected():
    # t moves x1 (where the form vanishes) onto x0 (where it does not),
    # so no finite constant bounds the shifted form
    sg, act = merge_monoid()
    b = scalar_bundle(("x0", "x1"))
    l = OpKernel(b, {("x0", "x0"): np.array([[1.0]])})
    m = kn.bounded_shift_constants(l, act, TOL)["t"]
    assert m is None


def test_bounded_shift_constant_zero_for_vanishing_image():
    # image side carries no form at all: constant collapses to zero
    sg, act = merge_monoid()
    b = scalar_bundle(("x0", "x1"))
    l = OpKernel(b, {("x1", "x1"): np.array([[1.0]])})
    m = kn.bounded_shift_constants(l, act, TOL)["t"]
    assert m == pytest.approx(0.0, abs=1e-12)


def test_bounded_shift_constant_empty_part_is_zero():
    # element whose domain symbol anchors no point: empty shift, constant 0
    from kgl.sgpd import LeftAction, StarSemigroupoid
    sg = StarSemigroupoid(symbols=("s", "t"), elements=("a",),
                          d={"a": "t"}, c={"a": "t"},
                          compose={("a", "a"): "a"}, star={"a": "a"})
    act = LeftAction(sg, base=("y",), anchor={"y": "s"}, act={})
    ky = scalar_kernel(("y",), {("y", "y"): 3.0})
    m = kn.bounded_shift_constants(ky, act, TOL)["a"]
    assert m == pytest.approx(0.0, abs=1e-12)


def test_kernel_lincomb_and_partition_from_anchor():
    b = scalar_bundle(("x1", "x2"))
    k1 = kn.identity_kernel(b)
    k2 = circulant_kernel(1.0, 1.0)
    comb = kn.kernel_lincomb([2.0, -1.0], [k1, k2])
    p = kn.partition_from_anchor(b, {"x1": "s", "x2": "s"})
    g = kn.conv_blocks(comb, p)["s"]
    assert np.allclose(g, [[1.0, -1.0], [-1.0, 1.0]])
    assert p.part_of["x1"] == "s"


def test_derived_kernels_reject_non_finite_values():
    b = scalar_bundle(("x1", "x2"))
    big = scalar_kernel(("x1", "x2"), {("x1", "x1"): 1.7e308})
    neg = kn.kernel_lincomb([-1.0], [big])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite):
            kn.kernel_lincomb([1.0, -1.0], [big, neg])
        with pytest.raises(NonFinite):
            kn.dominates(big, neg, kn.single_partition(b), TOL)
    with pytest.raises(NonFinite):
        kn.identity_kernel(b, scale=np.nan)


def test_partition_relative_ops_ignore_cross_part_blocks():
    b = scalar_bundle(("x1", "x2"))
    p = kn.partition_from_anchor(b, {"x1": "s", "x2": "t"})
    k = OpKernel(b, {("x1", "x1"): np.array([[1.0]]),
                     ("x2", "x2"): np.array([[1.0]]),
                     ("x1", "x2"): np.array([[5.0]])})  # cross-part, stored but unused
    assert kn.is_partially_psd(k, p, TOL)
    conv = kn.conv_blocks(k, p)
    assert np.allclose(conv["s"], [[1.0]])
    assert np.allclose(conv["t"], [[1.0]])


@pytest.mark.parametrize("family", ["pair_groupoid", "group_action", "partial_bijections",
                                    "group_as_groupoid"])
def test_psd_verdict_does_not_depend_on_the_kernel_scale(family):
    # one verdict per kernel across 300 orders of magnitude, the one its mode builds
    for mode in ("psd_invariant", "hermitian_invariant"):
        for seed in range(4):
            _, act, bundle, k = generators.generate_instance(family, seed=seed, mode=mode)
            p = kn.partition_from_action(bundle, act)
            verdicts = [kn.is_partially_psd(kn.kernel_lincomb([c], [k]), p, TOL)
                        for c in (1e-150, 1e-12, 1.0, 1e12, 1e150)]
            assert set(verdicts) == {mode == "psd_invariant"}, (mode, seed, verdicts)


@pytest.mark.parametrize("family", ["pair_groupoid", "group_action", "partial_bijections",
                                    "group_as_groupoid"])
def test_invariance_verdict_does_not_depend_on_the_kernel_scale(family):
    # the invariant modes read invariant, and an arbitrary kernel keeps its verdict
    for mode in ("psd_invariant", "hermitian_invariant", "arbitrary"):
        for seed in range(4):
            _, act, _, k = generators.generate_instance(family, seed=seed, mode=mode)
            verdicts = [kn.is_invariant(kn.kernel_lincomb([c], [k]), act, TOL)[0]
                        for c in (1e-150, 1e-12, 1.0, 1e12, 1e150)]
            assert len(set(verdicts)) == 1, (mode, seed, verdicts)
            if mode != "arbitrary":
                assert verdicts[0], (mode, seed)


@pytest.mark.parametrize("family", ["pair_groupoid", "group_as_groupoid", "partial_bijections"])
def test_bounded_shift_verdicts_do_not_depend_on_the_kernel_scale(family):
    # a random PSD kernel is not invariant: some shifts move its form kernel,
    # and they read undefined at every scale, not only at scales of 1 and above
    _, act, bundle, _ = generators.generate_instance(family, seed=1)
    p = kn.partition_from_action(bundle, act)
    l = generators.random_psd_kernel(bundle, p, seed=1)
    undefined = [sorted(map(str, (a for a, m in kn.bounded_shift_constants(
        kn.kernel_lincomb([c], [l]), act, TOL).items() if m is None)))
        for c in (1e-150, 1e-12, 1.0, 1e12, 1e150)]
    assert undefined[0]
    assert all(u == undefined[0] for u in undefined), undefined


def perturbed_off_diagonal(k, p, rng):
    """k with one off-diagonal block inside a part moved by 1e-5 of the largest
    part Gram's norm, its mirror block left alone; and that part's label."""
    size = 1e-5 * max([1.0] + [np.linalg.norm(g) for g in kn.conv_blocks(k, p).values()])
    label, idx = next((s, idx) for s, idx in p.parts.items() if len(idx.part) > 1)
    x, y = idx.part[0], idx.part[1 + int(rng.integers(len(idx.part) - 1))]
    shape = (k.bundle.dim[x], k.bundle.dim[y])
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks = dict(k.blocks)
    blocks[(x, y)] = k.block(x, y) + size * z / np.linalg.norm(z)
    return kn.OpKernel(k.bundle, blocks), label


@pytest.mark.parametrize("family, params", [
    ("pair_groupoid", {"symbols": ("a", "b", "c", "d")}),
    ("group_as_groupoid", {"table": sgpd.cyclic_group_table(16)}),
    ("partial_bijections", {"fiber_sizes": (2, 2)})])
def test_hermitian_verdict_does_not_depend_on_the_kernel_scale(family, params):
    # an invariant kernel reads Hermitian on every part at every scale; with one
    # block pushed off its mirror it reads non-Hermitian on that part at every
    # scale, also below 1, where an absolute floor in the bound would hide it
    rng = np.random.default_rng(5)
    for mode in ("psd_invariant", "hermitian_invariant"):
        for seed in range(3):
            _, act, bundle, k = generators.generate_instance(family, seed=seed, mode=mode,
                                                             **params)
            p = kn.partition_from_action(bundle, act)
            bad, label = perturbed_off_diagonal(k, p, rng)
            for c in (1e-150, 1e-12, 1.0, 1e12, 1e150):
                assert kn.is_partially_hermitian(kn.kernel_lincomb([c], [k]), p, TOL), (mode, c)
                failing = [r.witness for r in kn.hermitian_records(kn.kernel_lincomb([c], [bad]),
                                                                   p, TOL) if not r.passed]
                assert failing == [label], (mode, seed, c)
