import hashlib
import itertools
import json

import numpy as np
import pytest

from helpers import z2_swap
from kgl import formats, generators
from kgl.errors import AxiomError, CrossRefError, NonFinite, ParseError
from kgl.kernel import OpKernel
from kgl.numlin import DEFAULT_TOL as TOL


def sample_doc(seed=0):
    sg, act, bundle, kernel = generators.generate_instance("pair_groupoid", seed=seed)
    return formats.instance_to_doc(sg, act, bundle, kernel)


def test_roundtrip_through_files(tmp_path):
    doc = sample_doc()
    path = tmp_path / "inst.json"
    formats.save_instance(doc, path)
    inst = formats.load(str(path))
    assert inst.doc == doc
    # serialize the parsed instance again: identical document and digest
    doc2 = formats.instance_to_doc(inst.sg, inst.action, inst.bundle, inst.kernel)
    assert doc2 == doc
    path2 = tmp_path / "second.json"
    formats.save_instance(doc2, path2)
    assert formats.load(str(path2)).digest == inst.digest


def test_saved_file_is_the_canonical_text_its_digest_hashes(tmp_path):
    doc = sample_doc(seed=3)
    path = tmp_path / "inst.json"
    formats.save_instance(doc, path)
    data = path.read_bytes()
    assert data == (formats._canonical_text(doc) + "\n").encode("ascii")
    inst = formats.load(str(path))
    assert hashlib.sha256(data[:-1]).hexdigest() == inst.digest
    # a file in the earlier indented layout holds the same content
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    old = formats.load(str(indented))
    assert old.digest == inst.digest
    assert old.kernel.gram.tobytes() == inst.kernel.gram.tobytes()


def test_load_accepts_split_documents(tmp_path):
    doc = sample_doc()
    a = {"semigroupoid": doc["semigroupoid"], "action": doc["action"]}
    b = {"bundle": doc["bundle"], "kernel": doc["kernel"]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    inst = formats.load([str(pa), str(pb)])
    whole = tmp_path / "whole.json"
    formats.save_instance(doc, whole)
    assert inst.digest == formats.load(str(whole)).digest
    assert set(inst.bundle.points) == set(doc["bundle"]["dims"])


def test_duplicate_top_level_key_rejected(tmp_path):
    doc = sample_doc()
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(doc))
    pb.write_text(json.dumps({"kernel": doc["kernel"]}))
    with pytest.raises(ParseError):
        formats.load([str(pa), str(pb)])


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"semigroupoid": [}')
    with pytest.raises(ParseError) as exc:
        formats.load(str(path))
    assert "line" in str(exc.value)


def test_unreadable_values_are_parse_errors(tmp_path):
    # each raised ValueError (or UnicodeDecodeError) before reaching the formats
    with pytest.raises(ParseError):
        formats.matrix_from_doc({"re": [[1.0], [1.0, 2.0]]})
    with pytest.raises(ParseError):
        formats.matrix_from_doc({"re": [["one"]]})
    with pytest.raises(ParseError):  # an integer beyond the double range
        formats.matrix_from_doc({"re": [[10 ** 400]]})
    for doc in ({"re": [[True]]}, {"re": [[1.0, 2.0]], "im": [[0.0, False]]}):
        with pytest.raises(ParseError, match="boolean"):
            formats.matrix_from_doc(doc)
    for doc in ({"re": [["1.5"]]}, {"re": [[1.0]], "im": [["0"]]}):
        with pytest.raises(ParseError, match="string"):
            formats.matrix_from_doc(doc)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError):
        formats.load(str(binary))
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"kernel": {}, "kernel": {}}')
    with pytest.raises(ParseError, match="appears twice"):
        formats.load(str(repeated))


def test_wrong_block_shape_names_the_pair():
    doc = sample_doc()
    bad = json.loads(json.dumps(doc))
    entry = bad["kernel"]["entries"][0]
    entry["re"] = [[1.0, 2.0, 3.0]]  # wrong width for the declared fibers
    entry["im"] = [[0.0, 0.0, 0.0]]
    with pytest.raises(CrossRefError) as exc:
        formats.parse_instance(bad)
    assert entry["row"] in str(exc.value)


def test_kernel_entry_faults_raise_in_document_order():
    doc = sample_doc()

    def spoil(entry, fault):
        if fault == "shape":
            entry["re"] = [row + [0.0] for row in entry["re"]]
            entry["im"] = [row + [0.0] for row in entry["im"]]
        elif fault == "point":
            entry["row"] = "ghost"
        else:
            entry["re"][0][0] = float("nan")

    raised = {"shape": (CrossRefError, "has shape"), "point": (CrossRefError, "unknown point"),
              "nan": (NonFinite, "NaN or Inf")}
    for first, second in itertools.permutations(raised, 2):
        bad = json.loads(json.dumps(doc))
        spoil(bad["kernel"]["entries"][0], first)
        spoil(bad["kernel"]["entries"][1], second)
        kind, message = raised[second if first == "nan" else first]
        with pytest.raises(kind, match=message):
            formats.parse_instance(bad)


def test_kernel_from_doc_matches_the_block_constructor():
    for family in ("pair_groupoid", "group_action", "partial_bijections", "group_as_groupoid"):
        for mode in ("psd_invariant", "hermitian_invariant", "arbitrary"):
            _, _, bundle, kernel = generators.generate_instance(family, seed=1, mode=mode)
            kdoc = json.loads(json.dumps(formats.kernel_to_doc(kernel)))
            blocks = {(e["row"], e["col"]): formats.matrix_from_doc(e) for e in kdoc["entries"]}
            got = formats.kernel_from_doc(kdoc, bundle).gram
            assert got.tobytes() == OpKernel(bundle, blocks).gram.tobytes()
            assert not got.flags.writeable


def test_unknown_compose_reference_rejected():
    doc = sample_doc()
    bad = json.loads(json.dumps(doc))
    bad["semigroupoid"]["compose"][0][2] = "ghost"
    with pytest.raises(CrossRefError):
        formats.parse_instance(bad)


def test_unknown_kernel_point_rejected():
    doc = sample_doc()
    bad = json.loads(json.dumps(doc))
    bad["kernel"]["entries"][0]["row"] = "ghost"
    with pytest.raises(CrossRefError):
        formats.parse_instance(bad)


def test_duplicate_kernel_entry_rejected():
    doc = sample_doc()
    bad = json.loads(json.dumps(doc))
    bad["kernel"]["entries"].append(dict(bad["kernel"]["entries"][0]))
    with pytest.raises(ParseError):
        formats.parse_instance(bad)


def test_strict_mode_runs_axiom_checks():
    doc = sample_doc()
    bad = json.loads(json.dumps(doc))
    # break the involution: point star at a wrong element
    a0 = bad["semigroupoid"]["star"][0]
    elements = [e["id"] for e in bad["semigroupoid"]["elements"]]
    other = next(e for e in elements if e != a0[1] and e != a0[0])
    a0[1] = other
    with pytest.raises(AxiomError):
        formats.parse_instance(bad, strict=True)
    inst = formats.parse_instance(bad, strict=False)
    assert inst.sg is not None


def test_matrix_doc_roundtrip():
    rng = np.random.Generator(np.random.Philox(61))
    for _ in range(5):
        m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        doc = formats.matrix_to_doc(m)
        back = formats.matrix_from_doc(doc)
        assert np.allclose(back, m)
    real = np.array([[1.0, 2.0]])
    doc = formats.matrix_to_doc(real)
    assert "im" not in doc or not np.asarray(doc["im"]).any()
    assert np.allclose(formats.matrix_from_doc(doc), real)


def test_omitted_kernel_entries_are_zero():
    sg, act = z2_swap()
    from kgl.bundle import HilbertBundle
    from kgl.kernel import OpKernel

    b = HilbertBundle(points=("x1", "x2"), dim={"x1": 1, "x2": 1})
    k = OpKernel(b, {("x1", "x1"): np.array([[1.0]])})
    doc = formats.instance_to_doc(sg, act, b, k)
    assert len(doc["kernel"]["entries"]) == 1
    inst = formats.loads(json.dumps(doc))
    assert np.allclose(inst.kernel.block("x2", "x2"), [[0.0]])


def test_same_content_same_canonical_document():
    from kgl.bundle import HilbertBundle
    from kgl.kernel import OpKernel

    sg, act = z2_swap()
    b = HilbertBundle(points=("x1", "x2"), dim={"x1": 1, "x2": 1})
    k = OpKernel(b, {("x1", "x1"): [[2.0]], ("x1", "x2"): [[1.0]]})
    base = formats.instance_to_doc(sg, act, b, k)
    entries = base["kernel"]["entries"]
    assert [(e["row"], e["col"]) for e in entries] == [("x1", "x1"), ("x1", "x2")]

    def variant(new_entries):
        return dict(base, kernel={"field": "complex", "entries": new_entries})

    zero = {"row": "x2", "col": "x1", "re": [[0.0]], "im": [[0.0]]}
    negative_zero = {"row": "x2", "col": "x2", "re": [[-0.0]], "im": [[-0.0]]}
    integers = [dict(e, re=[[int(v) for v in r] for r in e["re"]]) for e in entries]
    no_im = [{k: v for k, v in e.items() if k != "im"} for e in entries]
    same = [
        variant(entries + [zero]),
        variant(entries + [negative_zero]),
        variant(integers),
        variant(no_im),
        variant(entries[::-1]),
    ]
    want = formats.loads(json.dumps(base))
    for doc in same:
        inst = formats.loads(json.dumps(doc))
        assert inst.doc == want.doc
        assert inst.digest == want.digest


def test_kernel_file_and_lift_file(tmp_path):
    doc = sample_doc(seed=2)
    inst = formats.loads(json.dumps(doc))
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps({"kernel": doc["kernel"]}))
    k = formats.load_kernel_file(str(kpath), inst.bundle)
    for (x, y), blk in inst.kernel.blocks.items():
        assert np.allclose(k.block(x, y), blk)

    a, b, t, s = generators.random_lift_quadruple(3, 2, seed=5, tol=TOL)
    lpath = tmp_path / "lift.json"
    lpath.write_text(json.dumps({
        "a": formats.matrix_to_doc(a), "b": formats.matrix_to_doc(b),
        "t": formats.matrix_to_doc(t), "s": formats.matrix_to_doc(s)}))
    a2, b2, t2, s2 = formats.load_lift_file(str(lpath))
    assert np.allclose(a2, a) and np.allclose(s2, s)
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"a": formats.matrix_to_doc(a)}))
    with pytest.raises(ParseError):
        formats.load_lift_file(str(short))


def test_digest_is_content_addressed():
    d1 = sample_doc(seed=0)
    d2 = sample_doc(seed=1)
    i1 = formats.loads(json.dumps(d1))
    i2 = formats.loads(json.dumps(d2))
    assert i1.digest != i2.digest
    assert formats.loads(json.dumps(d1)).digest == i1.digest
