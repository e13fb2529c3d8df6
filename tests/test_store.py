"""Each part Gram decomposed once per command, by data flow: a kernel holds
its part spectra (kernel.part_spectra), parts with equal Grams share one,
and no command leaves state behind that a later one could read."""

import collections
import hashlib
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kgl import cli, formats, generators, krein_lin, numlin, pipelines
from kgl.errors import NotHermitian
from kgl.kernel import conv_blocks, kernel_from_part_grams, part_spectra, psd_records
from kgl.numlin import DEFAULT_TOL as TOL

FAMILIES = {
    "pair_groupoid": {"symbols": ("a", "b", "c", "d")},
    "group_action": {},
    "partial_bijections": {"fiber_sizes": (2, 1)},
    "group_as_groupoid": {},
}
MODES = ("psd_invariant", "hermitian_invariant", "arbitrary")


def write_instance(tmp_path, family, mode, seed=1):
    sg, act, bundle, kernel = generators.generate_instance(
        family, seed=seed, mode=mode, **FAMILIES[family])
    path = tmp_path / f"{family}-{mode}-{seed}.json"
    formats.save_instance(formats.instance_to_doc(sg, act, bundle, kernel), path)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _content(a):
    m = np.ascontiguousarray(a)
    return m.shape, hashlib.blake2b(m.tobytes(), digest_size=16).digest()


def count_decompositions(monkeypatch):
    """Record a content hash of every np.linalg.eigh input and of every
    np.linalg.eigvalsh input, and count herm_eig calls."""
    inputs, herm, values = [], [], []
    eigh, eigvalsh, herm_eig = np.linalg.eigh, np.linalg.eigvalsh, numlin.herm_eig

    def counted_eigh(a, *args, **kwargs):
        inputs.append(_content(a))
        return eigh(a, *args, **kwargs)

    def counted_eigvalsh(a, *args, **kwargs):
        values.append(_content(a))
        return eigvalsh(a, *args, **kwargs)

    def counted_herm_eig(*args, **kwargs):
        herm.append(1)
        return herm_eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(numlin, "herm_eig", counted_herm_eig)
    return inputs, herm, values


@pytest.mark.parametrize("family, mode", [("pair_groupoid", "psd_invariant"),
                                          ("group_action", "hermitian_invariant")])
def test_report_decomposes_each_matrix_once(tmp_path, capsys, monkeypatch, family, mode):
    path = write_instance(tmp_path, family, mode)
    inputs, herm, values = count_decompositions(monkeypatch)
    code, _, _ = run(capsys, ["report", path])
    assert code == 0
    assert inputs
    assert len(inputs) == len(set(inputs))
    assert len(herm) == len(inputs)
    # report decomposes only the part Grams (eigh, symmetrized as herm_eig does) and, for
    # a PSD kernel, the stacked compressions of the bounded-shift constants (eigvalsh)
    inst = formats.load(path)
    grams = conv_blocks(inst.kernel, inst.partition).values()
    assert set(inputs) == {_content(0.5 * (g + g.conj().T)) for g in grams}
    assert bool(values) == (mode == "psd_invariant")
    assert all(len(shape) == 3 for shape, _ in values)


def count_linalg(monkeypatch):
    """Count np.linalg's eigh, eigvalsh, pinv and svd calls, the SVDs with
    and without vectors apart, also where numpy calls them itself (the SVDs
    of np.linalg.norm and np.linalg.pinv)."""
    counts = collections.Counter()
    impl = getattr(np.linalg, "_linalg", np.linalg)  # where numpy's own calls look them up
    for name in ("eigh", "eigvalsh", "pinv", "svd"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            vectors = _name == "svd" and kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
            counts[_name + (" with vectors" if vectors else "")] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(impl, name, counted)
    return counts


@pytest.mark.parametrize("mode, budget", [
    # eigh: the part Gram, from whose spectrum the split and minimality are read;
    # eigvalsh: for a PSD kernel, one batched call for the compressions whose top
    # eigenvalues are the bounded-shift constants (3 elements, one part pair); SVD
    # values: one batched call for the represented shifts' norms
    ("hermitian_invariant", {"eigh": 1, "svd": 1}),
    ("psd_invariant", {"eigh": 1, "eigvalsh": 1, "svd": 1}),
])
def test_report_decomposes_the_part_gram_once(tmp_path, capsys, monkeypatch, mode, budget):
    path = write_instance(tmp_path, "group_action", mode)
    assert len(formats.load(path).partition.parts) == 1
    counts = count_linalg(monkeypatch)
    code, _, _ = run(capsys, ["report", path])
    assert code == 0
    assert dict(counts) == budget  # no pinv, no SVD with vectors


def test_report_calls_no_unique(tmp_path, capsys, monkeypatch):
    # np.unique's first call in a fresh process costs more than a decomposition
    path = write_instance(tmp_path, "group_action", "psd_invariant")
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    assert run(capsys, ["report", path])[0] == 0
    assert calls == []


def spectral_shaped_instance(tmp_path):
    """Z2 shifting 6 points with fiber 8: trivial tables and one part of dimension 48."""
    from kgl import sgpd
    from kgl.bundle import HilbertBundle
    base = tuple(f"x{k}" for k in range(6))
    amap = {(f"g{i}", f"x{k}"): f"x{(k + 3 * i) % 6}" for i in range(2) for k in range(6)}
    sg, act = sgpd.generate("group_action", table=sgpd.cyclic_group_table(2), base=base,
                            action_map=amap)
    bundle = HilbertBundle(points=base, dim={x: 8 for x in base})
    kernel = generators.generate_kernel(act, bundle, "hermitian_invariant", seed=1)
    path = tmp_path / "spectral.json"
    formats.save_instance(formats.instance_to_doc(sg, act, bundle, kernel), path)
    return str(path)


def test_report_loads_no_module_the_cli_import_did_not(tmp_path):
    # a report forked from a process that imported kgl.cli pays for every module
    # it imports itself (np.unique, for one, imports numpy.ma on first use)
    sg, act, bundle, kernel = generators.generate_instance(
        "partial_bijections", seed=1, fiber_sizes=(2, 2))
    tables = tmp_path / "tables.json"
    formats.save_instance(formats.instance_to_doc(sg, act, bundle, kernel), tables)
    script = ("import contextlib, io, sys\n"
              "import kgl.cli\n"
              "before = set(sys.modules)\n"
              "for path in sys.argv[1:]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert kgl.cli.main(['report', path]) == 0\n"
              "print(sorted(set(sys.modules) - before))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script, str(tables),
                          spectral_shaped_instance(tmp_path)],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


def count_calls(monkeypatch, names):
    """Count the calls of kgl functions, given as "module.function", each
    wrapped at every binding a kgl module holds of it."""
    counts = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name == "kgl" or name.startswith("kgl.")]
    for qualified in names:
        owner, attr = qualified.split(".")
        fn = getattr(importlib.import_module(f"kgl.{owner}"), attr)

        def counted(*args, _fn=fn, _name=qualified, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            if getattr(m, attr, None) is fn:
                monkeypatch.setattr(m, attr, counted)
    return counts


PREMISES = ("kernel.is_invariant", "krein_lin.krein_linearisation", "kernel.psd_records",
            "kernel.hermitian_records")


@pytest.mark.parametrize("family, mode, argv, budget", [
    ("pair_groupoid", "psd_invariant", ["report"], (1, 1, 0, 1)),
    ("group_action", "hermitian_invariant", ["report"], (1, 1, 0, 1)),
    ("pair_groupoid", "psd_invariant", ["represent", "--hilbert"], (1, 1, 1, 1)),
    ("pair_groupoid", "psd_invariant", ["represent", "--krein"], (1, 1, 0, 1)),
    ("pair_groupoid", "psd_invariant", ["linearize", "--hilbert"], (0, 1, 1, 1)),
    ("pair_groupoid", "psd_invariant", ["check", "bounded-shift"], (0, 0, 1, 1)),
])
def test_each_premise_is_decided_once_per_command(tmp_path, capsys, monkeypatch,
                                                  family, mode, argv, budget):
    path = write_instance(tmp_path, family, mode)
    counts = count_calls(monkeypatch, PREMISES)
    code, _, _ = run(capsys, argv + [path])
    assert code == 0
    assert tuple(counts[name] for name in PREMISES) == budget


def test_report_pipeline_decides_each_premise_once(tmp_path, monkeypatch):
    # the library call does the command's work: one premise each, one decomposition each
    path = write_instance(tmp_path, "pair_groupoid", "psd_invariant")
    inst = formats.load(path, strict=False)
    counts = count_calls(monkeypatch, PREMISES)
    inputs, _, _ = count_decompositions(monkeypatch)
    assert pipelines.report(inst, TOL).ok
    assert tuple(counts[name] for name in PREMISES) == (1, 1, 0, 1)
    assert inputs and len(inputs) == len(set(inputs))


REPRESENTATION_WORK = ("krein_lin.rk_krein_space", "krein_lin.represented_shifts",
                       "krein_lin.krein_representation_laws", "kernel.psd_records")


@pytest.mark.parametrize("family, mode, argv", [
    ("pair_groupoid", "psd_invariant", ["report"]),
    ("group_action", "hermitian_invariant", ["report"]),
    ("pair_groupoid", "hermitian_invariant", ["split"]),
    ("pair_groupoid", "psd_invariant", ["represent", "--hilbert"]),
    ("pair_groupoid", "psd_invariant", ["represent", "--krein"]),
    ("pair_groupoid", "psd_invariant", ["linearize", "--krein"]),
    ("pair_groupoid", "psd_invariant", ["check", "bounded-shift"]),
])
def test_each_part_gram_is_gathered_once_per_command(tmp_path, capsys, monkeypatch,
                                                     family, mode, argv):
    # the instance kernel's part Grams are gathered once; the kernels built from
    # part Grams (the split's sides, the canonical dominant) keep the ones given
    path = write_instance(tmp_path, family, mode)
    counts = count_calls(monkeypatch, ("kernel._gather_part_grams", "kernel.conv_blocks"))
    code, _, _ = run(capsys, argv + [path])
    assert code == 0
    assert counts["kernel.conv_blocks"] > 1
    assert counts["kernel._gather_part_grams"] == 1


def test_psd_report_builds_one_linearisation_and_one_representation(tmp_path, capsys,
                                                                    monkeypatch):
    # the hilbert records of a PSD invariant report are its krein records, rekeyed
    path = write_instance(tmp_path, "pair_groupoid", "psd_invariant", seed=0)
    counts = count_calls(monkeypatch, REPRESENTATION_WORK)
    code, out, _ = run(capsys, ["report", path])
    assert code == 0
    tags = {r["tag"] for r in json.loads(out)["records"]}
    assert {"hilbert/rkhs", "hilbert/representation", "hilbert/partial-isometry"} <= tags
    assert tuple(counts[name] for name in REPRESENTATION_WORK) == (1, 1, 1, 0)


def symmetrized_part_grams(*kernels_and_partitions) -> set:
    """The contents of the eigh inputs herm_eig makes of the part Grams."""
    return {_content(0.5 * (g + g.conj().T))
            for k, p in kernels_and_partitions for g in conv_blocks(k, p).values()}


@pytest.mark.parametrize("family", ["pair_groupoid", "partial_bijections"])
@pytest.mark.parametrize("argv, mode", [
    (["check", "psd"], "psd_invariant"),
    (["linearize", "--hilbert"], "psd_invariant"),
    (["represent", "--hilbert"], "psd_invariant"),
    (["check", "bounded-shift"], "psd_invariant"),
    (["split"], "hermitian_invariant"),
])
def test_each_command_decomposes_each_distinct_part_gram_once(tmp_path, capsys, monkeypatch,
                                                              family, argv, mode):
    # pair_groupoid's four part Grams are equal, so they share one eigh;
    # split also decomposes the part Grams of both sides, to decide that they are PSD
    path = write_instance(tmp_path, family, mode)
    inst = formats.load(path)
    k, p = inst.kernel, inst.partition
    expected = symmetrized_part_grams((k, p))
    if argv == ["split"]:
        k_plus, k_minus, _ = krein_lin.jordan_split(k, p, TOL)
        expected |= symmetrized_part_grams((k_plus, p), (k_minus, p))
    if family == "pair_groupoid":  # four equal part Grams per kernel
        assert len(expected) == (3 if argv == ["split"] else 1)
    inputs, herm, _ = count_decompositions(monkeypatch)
    code, _, _ = run(capsys, argv + [path])
    assert code == 0
    assert sorted(inputs) == sorted(expected)
    assert len(herm) == len(inputs)


def test_equal_part_grams_share_one_spectrum(monkeypatch):
    from kgl.bundle import HilbertBundle
    from kgl.kernel import partition_from_anchor

    b = HilbertBundle(points=("x1", "x2", "x3", "x4"), dim={"x1": 2, "x2": 2, "x3": 2, "x4": 1})
    p = partition_from_anchor(b, {"x1": "s", "x2": "t", "x3": "u", "x4": "v"})
    g = np.array([[2.0, 1j], [-1j, -1.0]])
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    inputs, herm, _ = count_decompositions(monkeypatch)
    k = kernel_from_part_grams(p, {"s": g, "t": g.copy(), "u": 2 * g, "v": [[3.0]]})
    spectra = part_spectra(k, p, TOL)
    assert spectra["s"] is spectra["t"] and spectra["u"] is not spectra["s"]
    assert len(inputs) == len(herm) == 3
    assert part_spectra(k, p, TOL)["s"] is spectra["s"] and len(inputs) == 3
    # a part that is not Hermitian: part_spectra raises, and psd_records still
    # decides the other parts, decomposing each distinct Hermitian part Gram once
    bad = kernel_from_part_grams(p, {"s": g, "t": skew, "u": g, "v": [[3.0]]})
    with pytest.raises(NotHermitian, match="part 't'"):
        part_spectra(bad, p, TOL)
    records = psd_records(bad, p, TOL)
    assert [r.passed for r in records] == [False, False, False, True]
    assert records[1].witness == {"part": "t", "reason": "not Hermitian"}
    assert len(inputs) == 5


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("mode", MODES)
def test_report_leaves_no_state_behind(tmp_path, capsys, family, mode):
    # the same bytes twice in one process, with a report on another instance of
    # the same shapes in between: nothing one command computes reaches the next
    path, other = write_instance(tmp_path, family, mode), write_instance(tmp_path, family, mode, 2)
    first = run(capsys, ["report", path])
    assert run(capsys, ["report", other]) != first
    assert run(capsys, ["report", path]) == first


def test_kernel_gram_and_part_grams_are_read_only():
    from kgl.bundle import HilbertBundle
    from kgl.kernel import OpKernel, kernel_from_part_grams, partition_from_anchor

    b = HilbertBundle(points=("x1", "x2", "x3"), dim={"x1": 1, "x2": 2, "x3": 1})
    cross = np.array([[5.0, 6.0]])
    k = OpKernel(b, {("x1", "x1"): [[2.0]], ("x1", "x3"): [[1j]], ("x3", "x1"): [[-1j]],
                     ("x2", "x2"): np.eye(2), ("x1", "x2"): cross})
    # part s is (x1, x3): coordinates 0 and 3 of the whole base, not contiguous
    p = partition_from_anchor(b, {"x1": "s", "x2": "t", "x3": "s"})
    for a in (k.gram, k.block("x1", "x3"), k.block("x3", "x3")):  # present, absent
        assert np.shares_memory(a, k.gram)
        with pytest.raises(ValueError):
            a[...] = 0
    grams = conv_blocks(k, p)
    for label, coords in (("s", [0, 3]), ("t", [1, 2])):
        assert np.array_equal(grams[label], k.gram[np.ix_(coords, coords)])
        with pytest.raises(ValueError):
            grams[label][...] = 0
    assert np.array_equal(k.block("x1", "x2"), cross)
    assert not any(np.isin(cross, g).any() for g in grams.values())
    rebuilt = kernel_from_part_grams(p, grams)
    assert set(rebuilt.blocks) == set(k.blocks) - {("x1", "x2")}
    for (x, y), blk in rebuilt.blocks.items():
        assert np.array_equal(blk, k.block(x, y))
    assert not rebuilt.block("x1", "x2").any()


def test_load_encodes_no_kernel_entry(tmp_path, monkeypatch):
    # the digest hashes the Gram's bytes, so a load builds no kernel document
    path = write_instance(tmp_path, "partial_bijections", "hermitian_invariant")
    counts = count_calls(monkeypatch, ("formats.kernel_to_doc", "formats.matrix_to_doc"))
    inst = formats.load(path)
    assert counts == {}
    formats.save_instance(inst, tmp_path / "again.json")
    assert counts["formats.kernel_to_doc"] == 1 and counts["formats.matrix_to_doc"] > 0
