import collections
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from kgl import formats, generators
from kgl.cli import main
from kgl.kernel import kernel_lincomb
from kgl.numlin import DEFAULT_TOL as TOL


@pytest.fixture()
def circulant_instance(tmp_path):
    """Two-element group swapping two scalar points, invariant PSD kernel."""
    from helpers import circulant_kernel, z2_swap

    sg, act = z2_swap()
    k = circulant_kernel(2.0, 1.0)
    doc = formats.instance_to_doc(sg, act, k.bundle, k)
    path = tmp_path / "circulant.json"
    formats.save_instance(doc, path)
    return str(path)


@pytest.fixture()
def diag_counterexample(tmp_path):
    from helpers import scalar_kernel, z2_swap

    sg, act = z2_swap()
    k = scalar_kernel(("x1", "x2"), {("x1", "x1"): 1.0, ("x2", "x2"): 2.0})
    doc = formats.instance_to_doc(sg, act, k.bundle, k)
    path = tmp_path / "diag.json"
    formats.save_instance(doc, path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_generated_instance(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    assert main(["generate", "--family", "pair_groupoid", "--seed", "1",
                 "--out", path]) == 0
    code, rep = run_json(capsys, ["validate", path])
    assert code == 0
    assert rep["pass"] is True
    assert {r["tag"] for r in rep["records"]} == {"axioms/semigroupoid", "axioms/action"}


def test_generate_prints_doc_without_out(capsys):
    code = main(["generate", "--family", "group_action", "--seed", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"semigroupoid", "action", "bundle", "kernel"}


def test_generate_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["generate", "--family", "partial_bijections", "--seed", "7", "--out", p1])
    main(["generate", "--family", "partial_bijections", "--seed", "7", "--out", p2])
    assert open(p1).read() == open(p2).read()


def test_generate_prints_the_bytes_out_writes(tmp_path, capsysbinary):
    argv = ["generate", "--family", "pair_groupoid", "--seed", "4", "--mode", "arbitrary"]
    path = tmp_path / "g.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.mark.parametrize("family, mode", [("pair_groupoid", "arbitrary"),
                                          ("partial_bijections", "hermitian_invariant")])
def test_readme_digest_recipe_prints_the_report_digest(tmp_path, capsys, family, mode):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    recipe = next(b for b in blocks if "hashlib.sha256" in b)
    path = str(tmp_path / "g.json")
    assert main(["generate", "--family", family, "--seed", "3", "--mode", mode,
                 "--out", path]) == 0
    printed = subprocess.run([sys.executable, "-c", recipe, path], capture_output=True,
                             text=True, check=True).stdout.strip()
    code, rep = run_json(capsys, ["check", "hermitian", path])
    assert code == 0
    assert printed == rep["instance_digest"]


def test_readme_quick_start_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    quick_start = next(b for b in blocks if "minimal_linearisation" in b)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(README), "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    lines = subprocess.run([sys.executable, "-c", quick_start], capture_output=True, text=True,
                           check=True, env=env).stdout.splitlines()
    assert lines[0] == "3 (3, 3)"
    assert len(lines) == 5 and all(line.endswith(" True") for line in lines[1:])


def test_classify_reports_flags(circulant_instance, capsys):
    code, rep = run_json(capsys, ["classify", circulant_instance])
    assert code == 0
    rec = rep["records"][0]
    assert rec["tag"] == "axioms/classification"
    assert rec["witness"]["is_groupoid"] is True


def test_check_hermitian_psd_invariant(circulant_instance, capsys):
    for what in ("hermitian", "psd", "invariant", "bounded-shift"):
        code, rep = run_json(capsys, ["check", what, circulant_instance])
        assert code == 0, what
        assert rep["pass"] is True


def test_check_invariant_fails_with_witness(diag_counterexample, capsys):
    code, rep = run_json(capsys, ["check", "invariant", diag_counterexample])
    assert code == 1
    rec = rep["records"][0]
    assert rec["pass"] is False
    assert rec["witness"] == {"element": "g", "x": "x1", "y": "x2"}


def test_check_psd_fails_on_indefinite(tmp_path, capsys):
    from helpers import swap_gram_kernel, z2_swap

    sg, act = z2_swap()
    k = swap_gram_kernel()
    doc = formats.instance_to_doc(sg, act, k.bundle, k)
    path = tmp_path / "swap.json"
    formats.save_instance(doc, path)
    code, rep = run_json(capsys, ["check", "psd", str(path)])
    assert code == 1
    code2, rep2 = run_json(capsys, ["check", "hermitian", str(path)])
    assert code2 == 0


def test_linearize_hilbert_and_krein(circulant_instance, capsys):
    code, rep = run_json(capsys, ["linearize", "--hilbert", circulant_instance])
    assert code == 0 and rep["pass"]
    tags = {r["tag"] for r in rep["records"]}
    assert "hilbert/factorization" in tags and "hilbert/rkhs" in tags

    code2, rep2 = run_json(capsys, ["linearize", "--krein", circulant_instance])
    assert code2 == 0 and rep2["pass"]
    assert "krein/factorization" in {r["tag"] for r in rep2["records"]}


def test_split_command(tmp_path, capsys):
    from helpers import swap_gram_kernel, z2_swap

    sg, act = z2_swap()
    k = swap_gram_kernel()
    doc = formats.instance_to_doc(sg, act, k.bundle, k)
    path = tmp_path / "swap.json"
    formats.save_instance(doc, path)
    code, rep = run_json(capsys, ["split", str(path)])
    assert code == 0 and rep["pass"]
    assert any(r["tag"] == "krein/split" for r in rep["records"])


def test_represent_hilbert_circulant(circulant_instance, capsys):
    # hand-checkable instance: every residual well under the tolerance
    code, rep = run_json(capsys, ["represent", "--hilbert", circulant_instance])
    assert code == 0 and rep["pass"]
    for rec in rep["records"]:
        if rec["tag"].startswith("hilbert/"):
            assert rec["residual"] <= 1e-10


def test_represent_krein_with_dominant_and_reducibility(tmp_path, capsys):
    sg, act, bundle, _ = generators.generate_instance(
        "pair_groupoid", seed=9, mode="hermitian_invariant")
    k, l = generators.invariant_dominant_pair(act, bundle, seed=9, tol=TOL)
    doc = formats.instance_to_doc(sg, act, bundle, k)
    ipath = tmp_path / "inst.json"
    formats.save_instance(doc, ipath)
    lpath = tmp_path / "dom.json"
    lpath.write_text(json.dumps({"kernel": formats.kernel_to_doc(l)}) + "\n")
    code, rep = run_json(capsys, [
        "represent", "--krein", "--dominant", str(lpath), "--reducibility",
        str(ipath)])
    assert code == 0, rep
    assert any(r["tag"] == "krein/reducibility" for r in rep["records"])


def _write_lift(path, a, b, t, s):
    docs = {k: formats.matrix_to_doc(m) for k, m in zip("abts", (a, b, t, s))}
    path.write_text(json.dumps(docs))
    return str(path)


def test_lift_command(tmp_path, capsys):
    a, b, t, s = generators.random_lift_quadruple(3, 2, seed=11, tol=TOL)
    path = tmp_path / "lift.json"
    _write_lift(path, a, b, t, s)
    code, rep = run_json(capsys, ["lift", str(path)])
    assert code == 0 and rep["pass"]
    assert all(r["tag"] == "krein/lift" for r in rep["records"])
    assert len(rep["records"]) == 3
    doc = json.loads(path.read_text())
    doc["t"]["re"][0][0] = True
    path.write_text(json.dumps(doc))
    assert main(["lift", str(path)]) == 2
    assert capsys.readouterr().err.startswith("kgl: error:")


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_lift_verdict_does_not_depend_on_the_scale(tmp_path, capsys, c):
    # every bound is atol times the compared data's own scale, with no floor
    a, b, t, s = generators.random_lift_quadruple(4, 3, seed=7, tol=TOL)
    path = _write_lift(tmp_path / "lift.json", c * a, c * b, c * t, c * s)
    code, rep = run_json(capsys, ["lift", path])
    assert code == 0 and len(rep["records"]) == 3
    moved = _write_lift(tmp_path / "moved.json", c * a, c * b, c * t, c * (s + 1e-3))
    code, rep = run_json(capsys, ["lift", moved])
    assert code == 1
    [compat] = rep["records"]
    assert compat["name"] == "compatibility identity holds" and not compat["pass"]
    assert compat["residual"] > compat["tolerance"]
    # one side of the pair zero, the other into a form kernel: the lifted
    # products are rounding alone, which the pairing bound must admit
    q = np.array([[0.6, -0.8], [0.8, 0.6]])
    p = q @ np.diag([1.0, 0.0]) @ q.T
    into_ker = np.outer(q[:, 1], [1.0, 2.0])
    eye, zero = np.eye(2), np.zeros((2, 2))
    for quad in ((p, eye, zero, into_ker), (eye, p, into_ker, zero)):
        path = _write_lift(tmp_path / "kernel.json", *(c * m for m in quad))
        code, rep = run_json(capsys, ["lift", path])
        assert code == 0 and len(rep["records"]) == 3, rep


def test_lift_that_does_not_factor_is_a_failing_record(tmp_path, capsys):
    # B T = S* A holds within its bound, but T moves the form kernel of A onto
    # a direction B keeps: a valid problem whose factorization check fails
    path = _write_lift(tmp_path / "lift.json", np.diag([1.0, 0.0]), np.diag([1.0, 1e-9]),
                       np.diag([1.0, 0.5]), np.diag([1.0, 0.0]))
    code, rep = run_json(capsys, ["lift", path])
    assert code == 1
    assert [(r["name"], r["pass"]) for r in rep["records"]] == [
        ("compatibility identity holds", True),
        ("lift factors through the canonical maps", False),
        ("lifted pair are indefinite adjoints", True)]


def test_report_full_pipeline(circulant_instance, capsys):
    code, rep = run_json(capsys, ["report", circulant_instance])
    assert code == 0 and rep["pass"]
    tags = {r["tag"] for r in rep["records"]}
    assert "krein/gap-uniqueness" in tags
    assert "hilbert/representation" in tags
    assert "krein/split" in tags


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check", "psd", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()


def test_exit_code_2_on_bad_tolerance_and_duplicate_points(circulant_instance, tmp_path,
                                                           capsys):
    assert main(["report", "--atol", "2", circulant_instance]) == 2
    for rank_rel in ("1", "inf", "nan"):  # each would turn every rank cutoff off
        assert main(["check", "psd", "--rank-rel", rank_rel, circulant_instance]) == 2
    text = open(circulant_instance).read()
    dup = tmp_path / "dup.json"
    dup.write_text(text.replace('"dims":{', '"dims":{"x1":1,', 1))
    assert dup.read_text() != text
    assert main(["report", str(dup)]) == 2
    assert "appears twice" in capsys.readouterr().err


def _set(path, value):
    """A document edit that replaces the value at a key path."""
    def edit(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set(("kernel", "entries", 0, "row"), ["x1"]),
    _set(("kernel", "entries"), 3),
    _set(("kernel", "entries", 0), 3),
    _set(("bundle", "dims"), ["x1", "x2"]),
    _set(("bundle", "dims", "x1"), True),
    _set(("semigroupoid", "elements", 0, "id"), ["e"]),
    _set(("semigroupoid", "elements"), 3),
    _set(("action", "anchor", "x1"), ["s"]),
    _set(("action", "act", 0), 3),
    _set(("kernel", "entries", 0, "re"), [[True]]),
    _set(("kernel", "entries", 0, "im"), [[False]]),
    _set(("kernel", "entries", 0, "re"), [["1.5"]]),
    _set(("bundle", "dims", "x1"), 10**400),  # a dense Gram numpy could not address
], ids=["entry-row-list", "entries-number", "entry-number", "dims-list", "dim-true",
        "element-id-list", "elements-number", "anchor-value-list", "act-row-number",
        "entry-re-true", "entry-im-false", "entry-re-string", "dim-unaddressable"])
def test_wrong_json_type_exits_2(circulant_instance, tmp_path, capsys, edit):
    with open(circulant_instance) as fh:
        doc = json.load(fh)
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["report", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("kgl: error:")


def test_value_error_during_analysis_is_not_bad_input(circulant_instance, monkeypatch):
    from kgl import krein_lin

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(krein_lin, "split_records", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["report", circulant_instance])


def test_list_checks(capsys):
    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    assert "hilbert/factorization" in out
    assert "krein/reducibility" in out


def test_atol_flag(circulant_instance, capsys):
    code, rep = run_json(capsys, ["check", "psd", circulant_instance])
    assert rep["tolerances"]["atol"] == pytest.approx(1e-9)
    code, rep = run_json(capsys, ["check", "psd", "--atol", "1e-5",
                                  circulant_instance])
    assert rep["tolerances"]["atol"] == pytest.approx(1e-5)


def test_out_writes_report_file(circulant_instance, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "hermitian", "--out", str(out), circulant_instance])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "check hermitian"
    assert rep["pass"] is True


def test_check_invariant_reports_the_bound_that_failed(tmp_path, capsys):
    # pair groupoid on s, t, u: part u scaled by 1e6, one diagonal entry of
    # part s moved by 1e-5. The failing element joins s and t, so its bound
    # is atol times the scale of those parts, not of part u.
    from kgl import sgpd
    from kgl.bundle import HilbertBundle
    from kgl.kernel import OpKernel

    sg, act = sgpd.pair_groupoid(("s", "t", "u"))
    bundle = HilbertBundle(points=act.base, dim={x: 1 for x in act.base})
    blocks = {(x, x): np.array([[1e6 if act.anchor[x] == "u" else 1.0]])
              for x in act.base}
    blocks[("(s,s)", "(s,s)")] = np.array([[1.0 + 1e-5]])
    k = OpKernel(bundle, blocks)
    path = tmp_path / "scaled.json"
    formats.save_instance(formats.instance_to_doc(sg, act, bundle, k), path)
    code, rep = run_json(capsys, ["check", "invariant", str(path)])
    assert code == 1
    rec = rep["records"][0]
    assert rec["pass"] is False
    assert rec["residual"] == pytest.approx(1e-5)
    assert rec["tolerance"] == pytest.approx(TOL.atol * np.sqrt(3.0 + 2e-5))
    assert rec["residual"] > rec["tolerance"]


def test_lift_digest_addresses_content(tmp_path, capsys):
    digests = []
    for seed in (11, 12):
        a, b, t, s = generators.random_lift_quadruple(3, 2, seed=seed, tol=TOL)
        path = _write_lift(tmp_path / f"lift{seed}.json", a, b, t, s)
        code, rep = run_json(capsys, ["lift", path])
        assert code == 0
        digests.append(rep["instance_digest"])
    assert digests[0] != digests[1]


def _guard_instance(tmp_path, eps):
    """helpers.guard_instance(eps), saved."""
    from helpers import guard_instance
    path = tmp_path / "guard.json"
    formats.save_instance(formats.instance_to_doc(*guard_instance(eps)), path)
    return str(path)


@pytest.mark.parametrize("eps", [3e-10, 5e-10, 1e-9])
def test_guard_failures_are_failing_records(tmp_path, capsys, eps):
    path = _guard_instance(tmp_path, eps)
    guards = {("represented shifts are well defined", "krein/representation"),
              ("represented shifts are well defined", "hilbert/representation")}
    for argv in (["report"], ["represent", "--krein"], ["represent", "--hilbert"]):
        code, rep = run_json(capsys, argv + [path])
        assert code == 1, argv
        failing = {(r["name"], r["tag"]) for r in rep["records"] if not r["pass"]}
        assert failing and failing <= guards, (argv, failing)
        for r in rep["records"]:
            if not r["pass"]:
                assert r["witness"], r["name"]


@pytest.mark.parametrize("eps", [5e-10, 1e-9])
def test_report_reads_uniqueness_from_the_signature_on_guard_instances(tmp_path, capsys, eps):
    # the Gram operator of |G| is sign(w) on the range; formed at cond ~ 1/eps, its
    # norm exceeded 1 by rounding, and report printed a failing krein/gram record
    code, rep = run_json(capsys, ["report", _guard_instance(tmp_path, eps)])
    assert code == 1  # the well-defined guards fail
    assert "krein/gram" not in {r["tag"] for r in rep["records"]}
    unique = [r for r in rep["records"]
              if r["name"] == "induced space unique up to J-unitary equivalence"]
    assert [r["witness"]["part"] for r in unique] == ["a", "b"]
    for r in unique:
        assert r["pass"] and r["tag"] == "krein/gap-uniqueness"
        gaps = [r["witness"][key] for key in ("gap_neg", "gap_pos", "eps")]
        assert [g for g in gaps if g is not None] == [1.0, 1.0]


def _part(witness):
    if isinstance(witness, dict):
        return witness.get("part")
    return witness if isinstance(witness, str) else None


def _per_part(parts, *checks):
    """Each (name, tag) once per part, part by part."""
    return [(name, tag, s) for s in parts for name, tag in checks]


def _hilbert_section(parts):
    return (_per_part(parts, ("kernel columns are members", "hilbert/rkhs"),
                      ("reproducing identity", "hilbert/rkhs"))
            + _per_part(parts, ("factorization reconstructs the kernel", "hilbert/factorization"),
                        ("feature columns span the whole space", "hilbert/minimality")))


_HERMITIAN = ("kernel is Hermitian on the part", "kernel/hermitian")
_PSD = ("kernel is PSD on the part", "kernel/psd")
_INVARIANT = ("kernel is invariant under the action", "kernel/invariant", None)
_KREIN_LAWS = [("multiplicative on composable pairs", "krein/representation", None),
               ("star maps to the indefinite adjoint", "krein/representation", None),
               ("intertwines the feature maps", "krein/representation", None)]


def _hilbert_laws(n_elements):
    return ([("multiplicative on composable pairs", "hilbert/representation", None),
             ("star-compatible", "hilbert/representation", None),
             ("intertwines the feature maps", "hilbert/representation", None),
             ("shift constant equals squared represented norm",
              "hilbert/bounded-shift-consistency", None)]
            + [("partial isometry law", "hilbert/partial-isometry", None)] * n_elements)


def _report_skeleton(parts, n_elements):
    return ([("semigroupoid axioms hold", "axioms/semigroupoid", None),
             ("action axioms hold", "axioms/action", None)]
            + _per_part(parts, _HERMITIAN)
            + [("classification established by exhaustive search", "axioms/classification", None)]
            + _per_part(parts, ("split reconstructs the kernel", "krein/split"),
                        ("split parts have disjoint ranges", "krein/split"))
            + _per_part(parts, ("kernel columns are members", "krein/rk-space"),
                        ("indefinite reproducing identity", "krein/rk-space"))
            + _per_part(parts, ("indefinite factorization reconstructs the kernel",
                                "krein/factorization"),
                        ("feature columns span the whole space", "krein/factorization"))
            + _per_part(parts, ("induced space unique up to J-unitary equivalence",
                                "krein/gap-uniqueness"))
            + _hilbert_section(parts)
            + _KREIN_LAWS
            + _hilbert_laws(n_elements))


def _skeleton(capsys, argv):
    """(name, tag, witness part) of every record of a passing command, in order."""
    code, rep = run_json(capsys, argv)
    assert code == 0, argv
    return [(r["name"], r["tag"], _part(r["witness"])) for r in rep["records"]]


def test_record_skeleton_of_report_and_linearize(circulant_instance, tmp_path, capsys):
    sg, act, bundle, k = generators.generate_instance("pair_groupoid", seed=1,
                                                      symbols=("s", "t", "u"))
    pair3 = tmp_path / "pair3.json"
    formats.save_instance(formats.instance_to_doc(sg, act, bundle, k), pair3)
    for path, parts, n_elements in ((circulant_instance, ("s",), 2),
                                    (str(pair3), ("s", "t", "u"), 9)):
        assert _skeleton(capsys, ["report", path]) == _report_skeleton(parts, n_elements)
        assert (_skeleton(capsys, ["linearize", "--hilbert", path])
                == _per_part(parts, _PSD) + _hilbert_section(parts))
        assert (_skeleton(capsys, ["represent", "--hilbert", path])
                == _per_part(parts, _PSD) + [_INVARIANT] + _hilbert_laws(n_elements))
        assert (_skeleton(capsys, ["represent", "--krein", path])
                == _per_part(parts, _HERMITIAN) + [_INVARIANT] + _KREIN_LAWS)
        assert (_skeleton(capsys, ["check", "bounded-shift", path])
                == _per_part(parts, _PSD)
                + [("shifted form is boundedly dominated", "kernel/bounded-shift", None)]
                * n_elements)

    # through an invariant dominant: the laws, then one commutator per element
    sg, act, bundle, _ = generators.generate_instance(
        "pair_groupoid", seed=9, mode="hermitian_invariant")
    k, l = generators.invariant_dominant_pair(act, bundle, seed=9, tol=TOL)
    ipath, lpath = tmp_path / "inst.json", tmp_path / "dom.json"
    formats.save_instance(formats.instance_to_doc(sg, act, bundle, k), ipath)
    lpath.write_text(json.dumps({"kernel": formats.kernel_to_doc(l)}) + "\n")
    parts = ("s0", "s1", "s2")
    assert (_skeleton(capsys, ["represent", "--krein", str(ipath)])
            == _per_part(parts, _HERMITIAN) + [_INVARIANT] + _KREIN_LAWS)
    assert (_skeleton(capsys, ["represent", "--krein", "--dominant", str(lpath),
                               "--reducibility", str(ipath)])
            == _per_part(parts, _HERMITIAN) + [_INVARIANT] + _KREIN_LAWS
            + [("represented shift commutes with the symmetry bundle",
                "krein/reducibility", None)] * 9)


@pytest.mark.parametrize("family", ["pair_groupoid", "group_action", "partial_bijections",
                                    "group_as_groupoid"])
@pytest.mark.parametrize("mode", ["psd_invariant", "hermitian_invariant"])
def test_report_verdict_does_not_depend_on_the_kernel_scale(tmp_path, capsys, family, mode):
    # one exit code and one set of failing tags across 300 orders of magnitude
    sg, act, bundle, k = generators.generate_instance(family, seed=1, mode=mode)
    verdicts = set()
    for c in (1e-150, 1e-12, 1.0, 1e12, 1e150):
        path = tmp_path / f"scaled-{c}.json"
        formats.save_instance(
            formats.instance_to_doc(sg, act, bundle, kernel_lincomb([c], [k])), path)
        code, doc = run_json(capsys, ["report", str(path)])
        failing = frozenset(r["tag"] for r in doc["records"] if not r["pass"])
        verdicts.add((code, failing))
    assert len(verdicts) == 1, verdicts


def _reverse_point_labels(doc):
    """doc with its points renamed so that their sorted order reverses."""
    points = sorted(doc["bundle"]["dims"])
    new = {x: f"p{len(points) - 1 - i:04d}" for i, x in enumerate(points)}
    action = {"anchor": {new[x]: s for x, s in doc["action"]["anchor"].items()},
              "act": [[g, new[x], new[y]] for g, x, y in doc["action"]["act"]]}
    kernel = dict(doc["kernel"], entries=[dict(e, row=new[e["row"]], col=new[e["col"]])
                                          for e in doc["kernel"]["entries"]])
    return dict(doc, action=action, bundle={"dims": {new[x]: n for x, n in
                                                      doc["bundle"]["dims"].items()}},
                kernel=kernel)


@pytest.mark.parametrize("family", ["pair_groupoid", "group_action", "partial_bijections",
                                    "group_as_groupoid"])
@pytest.mark.parametrize("mode", ["psd_invariant", "hermitian_invariant"])
def test_report_verdict_does_not_depend_on_the_point_labels(tmp_path, capsys, family, mode):
    # record order follows point order, so the records are compared as a multiset
    # of (tag, name, part, pass)
    doc = formats.instance_to_doc(*generators.generate_instance(family, seed=1, mode=mode))
    verdicts = []
    for name, d in (("given", doc), ("reversed", _reverse_point_labels(doc))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        code, rep = run_json(capsys, ["report", str(path)])
        verdicts.append((code, collections.Counter(
            (r["tag"], r["name"], _part(r["witness"]), r["pass"]) for r in rep["records"])))
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("family", ["pair_groupoid", "group_as_groupoid", "partial_bijections"])
def test_check_bounded_shift_does_not_depend_on_the_kernel_scale(tmp_path, capsys, family):
    # one exit code and one set of undefined elements across 300 orders of magnitude
    from kgl.kernel import partition_from_action

    sg, act, bundle, _ = generators.generate_instance(family, seed=1)
    l = generators.random_psd_kernel(bundle, partition_from_action(bundle, act), seed=1)
    verdicts = set()
    for c in (1e-150, 1e-12, 1.0, 1e12, 1e150):
        path = tmp_path / f"scaled-{c}.json"
        formats.save_instance(
            formats.instance_to_doc(sg, act, bundle, kernel_lincomb([c], [l])), path)
        code, doc = run_json(capsys, ["check", "bounded-shift", str(path)])
        undefined = frozenset(json.dumps(r["witness"]["element"]) for r in doc["records"]
                              if r["tag"] == "kernel/bounded-shift" and not r["pass"])
        verdicts.add((code, undefined))
    assert len(verdicts) == 1, verdicts
    assert verdicts.pop()[0] == 1


def _orbit_unitary_change(sg, act, bundle, k, seed):
    """k with each block K(x, y) replaced by U_x* K(x, y) U_y, for one random
    unitary U per orbit of the action (points joined by any action step)."""
    from kgl.kernel import OpKernel

    root = {x: x for x in act.base}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for (_, x), y in act.act.items():
        root[find(x)] = find(y)
    rng = np.random.default_rng(seed)
    unitary = {}
    for x in act.base:
        r, n = find(x), bundle.dim[x]
        if r not in unitary:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            unitary[r] = np.linalg.qr(z)[0]
    u = {x: unitary[find(x)] for x in act.base}
    return OpKernel(bundle, {(x, y): u[x].conj().T @ blk @ u[y]
                             for (x, y), blk in k.blocks.items()})


@pytest.mark.parametrize("family", ["pair_groupoid", "group_action", "partial_bijections",
                                    "group_as_groupoid"])
@pytest.mark.parametrize("mode", ["psd_invariant", "hermitian_invariant", "arbitrary"])
def test_report_verdict_does_not_depend_on_the_fiber_basis(tmp_path, capsys, family, mode):
    # a unitary change of basis in the fibers, constant on each orbit, keeps the kernel's
    # invariance, so every record's verdict and the profile flags stay as they are
    sg, act, bundle, k = generators.generate_instance(family, seed=1, mode=mode)
    verdicts = []
    for seed, kernel in ((None, k), (1, None), (2, None)):
        kernel = kernel or _orbit_unitary_change(sg, act, bundle, k, seed)
        path = tmp_path / f"basis-{seed}.json"
        formats.save_instance(formats.instance_to_doc(sg, act, bundle, kernel), path)
        code, doc = run_json(capsys, ["report", str(path)])
        profile = [r["witness"] for r in doc["records"] if r["tag"] == "axioms/classification"]
        verdicts.append((code, [(r["tag"], r["pass"]) for r in doc["records"]], profile))
    assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]
