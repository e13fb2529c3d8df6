"""kgl.pipelines gives the bytes the CLI prints: each command is one library call."""

import json
import tracemalloc

import pytest

from kgl import formats, generators, krein_lin, pipelines, sgpd
from kgl.cli import main
from kgl.numlin import DEFAULT_TOL as TOL, Tolerances
from kgl.reports import report_to_json


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _generated(family, mode, seed=1):
    return formats.instance_to_doc(*generators.generate_instance(family, seed=seed, mode=mode))


def _dropped_composition(doc):
    del doc["semigroupoid"]["compose"][0]
    return doc


INSTANCES = {
    "psd-invariant": lambda: _generated("pair_groupoid", "psd_invariant"),
    "hermitian-not-psd": lambda: _generated("pair_groupoid", "hermitian_invariant"),
    "seeded-defect": lambda: _dropped_composition(_generated("group_action", "psd_invariant")),
}


def _cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name, code, psd", [("psd-invariant", 0, True),
                                             ("hermitian-not-psd", 0, False),
                                             ("seeded-defect", 1, None)])
def test_report_pipeline_prints_the_cli_bytes(tmp_path, capsys, name, code, psd):
    path = _write(tmp_path, INSTANCES[name]())
    tol = Tolerances(atol=1e-8)
    report = pipelines.report(formats.load(path, strict=False), tol)
    assert _cli(capsys, ["report", "--atol", "1e-8", path]) == (code, report_to_json(report))
    profile = [r.witness for r in report.records if r.tag == "axioms/classification"]
    assert [p["partially_psd"] for p in profile] == ([] if psd is None else [psd])


@pytest.mark.parametrize("argv, call", [
    (["validate"], lambda inst: pipelines.validate(inst)),
    (["classify"], lambda inst: pipelines.classify(inst)),
    (["check", "psd"], lambda inst: pipelines.check(inst, "psd")),
    (["check", "bounded-shift"], lambda inst: pipelines.check(inst, "bounded-shift")),
    (["linearize", "--hilbert"], lambda inst: pipelines.linearize(inst, krein=False)),
    (["linearize", "--krein"], lambda inst: pipelines.linearize(inst, krein=True)),
    (["split"], lambda inst: pipelines.split(inst)),
    (["represent", "--hilbert"], lambda inst: pipelines.represent(inst, krein=False)),
    (["represent", "--krein"], lambda inst: pipelines.represent(inst, krein=True)),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_every_instance_command_is_its_pipeline(tmp_path, capsys, argv, call):
    path = _write(tmp_path, INSTANCES["hermitian-not-psd"]())
    code, out = _cli(capsys, argv + [path])
    report = call(formats.load(path, strict=False))
    assert out == report_to_json(report)
    assert code == (0 if report.ok else 1)


def _write_lift(tmp_path, quad):
    return _write(tmp_path, {k: formats.matrix_to_doc(m) for k, m in zip("abts", quad)},
                  "lift.json")


@pytest.mark.parametrize("moved, code", [(0.0, 0), (1e-3, 1)])
def test_lift_pipeline_prints_the_cli_bytes(tmp_path, capsys, moved, code):
    a, b, t, s = generators.random_lift_quadruple(4, 3, seed=7, tol=TOL)
    path = _write_lift(tmp_path, (a, b, t, s + moved))
    report = pipelines.lift(*formats.load_lift_file(path))
    assert _cli(capsys, ["lift", path]) == (code, report_to_json(report))


def test_represent_takes_a_dominant_only_on_the_krein_route(tmp_path, capsys):
    sg, act, bundle, _ = generators.generate_instance(
        "pair_groupoid", seed=9, mode="hermitian_invariant")
    k, l = generators.invariant_dominant_pair(act, bundle, seed=9, tol=TOL)
    inst = formats.parse_instance(formats.instance_to_doc(sg, act, bundle, k))
    assert pipelines.represent(inst, krein=True, dominant=l, reducibility=True).ok
    for kwargs in ({"dominant": l}, {"reducibility": True}):
        with pytest.raises(ValueError, match="Krein route"):
            pipelines.represent(inst, krein=False, **kwargs)
    # the CLI rejects the same arguments as a usage error, before reading any file
    path = _write(tmp_path, formats.instance_to_doc(sg, act, bundle, k))
    for extra in (["--dominant", str(tmp_path / "missing.json")], ["--reducibility"]):
        with pytest.raises(SystemExit) as exc:
            main(["represent", "--hilbert"] + extra + [path])
        assert exc.value.code == 2
        assert "need --krein" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["psd_invariant", "hermitian_invariant"])
def test_every_tolerance_follows_atol_or_the_rank_cutoff(mode):
    # each bound is atol times a scale of the data, an eigenvalue cutoff
    # rank_rel * max|eigenvalue|, or the count threshold 0.5
    settings = (TOL, Tolerances(atol=1e-11), Tolerances(rank_rel=1e-12))
    tags = set()
    for family in ("pair_groupoid", "partial_bijections"):
        inst = formats.parse_instance(_generated(family, mode))
        for run in (pipelines.report, lambda inst, tol: pipelines.represent(inst, False, tol)):
            base, fine_atol, fine_rank = (run(inst, tol).records for tol in settings)
            assert [(r.tag, r.name, r.passed) for r in base] == [
                (r.tag, r.name, r.passed) for r in fine_atol] == [
                (r.tag, r.name, r.passed) for r in fine_rank]
            for r, a, c in zip(base, fine_atol, fine_rank):
                if r.tolerance == a.tolerance == c.tolerance == 0.5:
                    continue
                follows_atol = (r.tolerance == pytest.approx(100 * a.tolerance, rel=1e-12)
                                and r.tolerance == c.tolerance)
                follows_rank = (r.tolerance == pytest.approx(100 * c.tolerance, rel=1e-12)
                                and r.tolerance == a.tolerance)
                assert follows_atol or follows_rank, (
                    family, r.tag, r.name, r.tolerance, a.tolerance, c.tolerance)
            tags.update(r.tag for r in base)
    if mode == "psd_invariant":
        assert "hilbert/bounded-shift-consistency" in tags


def test_report_keeps_no_dense_shift_stack():
    # group_as_groupoid 64 at fiber 1: 64 elements whose shifts are 64 x 64, so a
    # stack of every represented shift alone would hold 64 * 64 * 64 * 16 bytes
    sg, act, bundle, kernel = generators.generate_instance(
        "group_as_groupoid", seed=0, mode="psd_invariant", table=sgpd.cyclic_group_table(64))
    assert set(bundle.dim.values()) == {1}
    inst = formats.parse_instance(formats.instance_to_doc(sg, act, bundle, kernel), strict=False)
    tracemalloc.start()
    try:
        report = pipelines.report(inst, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 64 * 64 * 64 * 16


def test_report_forms_no_dominant_and_no_gram_operator(monkeypatch):
    # the uniqueness records are read from the signature of the direct linearisation
    inst = formats.parse_instance(INSTANCES["hermitian-not-psd"](), strict=False)

    def refuse(*args, **kwargs):
        raise AssertionError("report formed a dominant or its Gram operator")

    for name in ("canonical_dominant", "gram_operator", "uniqueness_report"):
        monkeypatch.setattr(krein_lin, name, refuse)
    report = pipelines.report(inst, TOL)
    assert report.ok
    assert "krein/gap-uniqueness" in {r.tag for r in report.records}


@pytest.mark.parametrize("family", ["pair_groupoid", "group_action", "partial_bijections",
                                    "group_as_groupoid"])
@pytest.mark.parametrize("mode", ["psd_invariant", "hermitian_invariant"])
def test_report_reads_the_uniqueness_records_the_gram_operator_gives(family, mode):
    # the Gram operator of the canonical dominant |G| is sign(w) on the range:
    # formed, its gaps are 1 up to rounding; read from the signature, exactly 1
    inst = formats.parse_instance(_generated(family, mode), strict=False)
    k, p = inst.kernel, inst.partition
    read = [r for r in pipelines.report(inst, TOL).records
            if r.name == "induced space unique up to J-unitary equivalence"]
    formed = krein_lin.uniqueness_report(k, krein_lin.canonical_dominant(k, p, TOL), p, TOL)
    assert len(read) == len(formed) == len(p.parts)
    for r, f in zip(read, formed):
        assert (r.name, r.tag, r.residual, r.tolerance, r.passed) == (
            f.name, f.tag, f.residual, f.tolerance, f.passed)
        assert (r.witness["part"], r.witness["note"]) == (f.witness["part"], f.witness["note"])
        for key in ("gap_neg", "gap_pos", "eps"):
            if f.witness[key] is None:
                assert r.witness[key] is None
            else:
                assert r.witness[key] == 1.0
                assert f.witness[key] == pytest.approx(1.0, abs=1e-9)
