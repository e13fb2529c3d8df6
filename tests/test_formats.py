import gc
import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from helpers import _text, z2_swap
from kgl import formats, generators, sgpd
from kgl.bundle import HilbertBundle
from kgl.errors import AxiomError, CrossRefError, NonFinite, ParseError
from kgl.kernel import OpKernel
from kgl.numlin import DEFAULT_TOL as TOL


def sample_doc(seed=0, family="pair_groupoid", **kwargs):
    sg, act, bundle, kernel = generators.generate_instance(family, seed=seed, **kwargs)
    return formats.instance_to_doc(sg, act, bundle, kernel)


def contract_digest(doc):
    """The instance digest of a canonical document, from its three parts: the
    table documents' text, a newline, the Gram's little-endian complex128 bytes."""
    tables = dict(doc, kernel={"field": "complex"})
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    dims = doc["bundle"]["dims"]
    points = sorted(dims)
    start = dict(zip(points, np.cumsum([0] + [dims[x] for x in points]).tolist()))
    gram = np.zeros((sum(dims.values()),) * 2, dtype="<c16")
    for e in doc["kernel"]["entries"]:
        rows = slice(start[e["row"]], start[e["row"]] + dims[e["row"]])
        cols = slice(start[e["col"]], start[e["col"]] + dims[e["col"]])
        gram[rows, cols] = np.array(e["re"]) + 1j * np.array(e.get("im", 0.0))
    return hashlib.sha256(text.encode() + b"\n" + (gram + 0.0).tobytes()).hexdigest()


def canonical_document_digest(inst):
    """The earlier digest formula: SHA-256 of the canonical document's text."""
    return hashlib.sha256(formats._canonical_text(inst.doc).encode()).hexdigest()


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
    assert inst.digest == contract_digest(doc)
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


@pytest.mark.parametrize("family", ["pair_groupoid", "group_action", "partial_bijections",
                                    "group_as_groupoid"])
@pytest.mark.parametrize("mode", ["psd_invariant", "hermitian_invariant", "arbitrary"])
def test_digest_hashes_the_table_text_and_the_gram_bytes(tmp_path, family, mode):
    doc = sample_doc(seed=2, family=family, mode=mode)
    path = tmp_path / "inst.json"
    formats.save_instance(doc, path)
    assert formats.load(str(path)).digest == contract_digest(doc)


def _rename(value, old, new):
    """value with every string (and object key) equal to old replaced by new."""
    if isinstance(value, dict):
        return {_rename(k, old, new): _rename(v, old, new) for k, v in value.items()}
    if isinstance(value, list):
        return [_rename(v, old, new) for v in value]
    return new if value == old else value


def test_digest_tells_content_apart_as_the_canonical_document_did(tmp_path):
    doc = sample_doc(seed=1, mode="arbitrary")
    entries, dims = doc["kernel"]["entries"], doc["bundle"]["dims"]
    x, y = next((x, y) for x in dims for y in dims
                if (x, y) not in {(e["row"], e["col"]) for e in entries})
    zero_block = {"row": x, "col": y, "re": [[0.0] * dims[y]] * dims[x]}

    def with_entries(new_entries, base=doc):
        return json.dumps(dict(base, kernel={"field": "complex", "entries": new_entries}))

    def edited(edit):
        out = json.loads(json.dumps(doc))
        edit(out)
        return json.dumps(out)

    def one_ulp(d):
        d["kernel"]["entries"][0]["re"][0][0] = np.nextafter(entries[0]["re"][0][0], np.inf)

    def one_compose_row(d):
        row = d["semigroupoid"]["compose"][0]
        row[2] = next(e["id"] for e in d["semigroupoid"]["elements"] if e["id"] != row[2])

    def one_fiber_dim(d):
        x = entries[0]["row"]
        d["bundle"]["dims"][x] += 1
        for e in d["kernel"]["entries"]:
            for part in ("re", "im"):
                if e["row"] == x:
                    e[part] = e[part] + [[0.0] * len(e[part][0])]
                if e["col"] == x:
                    e[part] = [r + [0.0] for r in e[part]]

    split = [tmp_path / "tables.json", tmp_path / "kernel.json"]
    split[0].write_text(json.dumps({k: doc[k] for k in ("semigroupoid", "action")}))
    split[1].write_text(json.dumps({k: doc[k] for k in ("bundle", "kernel")}))
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(doc, indent=2))
    # a real kernel with integral entries, written as floats, as integers, without im
    real = [dict(e, re=[[float(round(v)) for v in r] for r in e["re"]],
                 im=[[0.0] * len(r) for r in e["re"]]) for e in entries]
    integers = [dict(e, re=[[int(v) for v in r] for r in e["re"]]) for e in real]
    no_im = [{k: v for k, v in e.items() if k != "im"} for e in integers]
    groups = [
        [formats.loads(json.dumps(doc)), formats.load(str(indented)),
         formats.loads(with_entries(entries[::-1])),
         formats.loads(with_entries(entries + [zero_block])),
         formats.load([str(p) for p in split])],
        [formats.loads(with_entries(real)), formats.loads(with_entries(integers)),
         formats.loads(with_entries(no_im))],
        [formats.loads(edited(one_ulp))],
        [formats.loads(json.dumps(_rename(doc, "s1", "s9")))],
        [formats.loads(edited(one_compose_row), strict=False)],
        [formats.loads(edited(one_fiber_dim))],
    ]
    for digest in (lambda inst: inst.digest, canonical_document_digest):
        assert [len({digest(inst) for inst in group}) for group in groups] == [1] * len(groups)
        assert len({digest(group[0]) for group in groups}) == len(groups)


def test_negative_zero_in_a_nonzero_block_hashes_like_zero():
    # the one content the earlier digest told apart and this one does not
    doc = sample_doc(seed=1, mode="arbitrary")
    i = next(i for i, e in enumerate(doc["kernel"]["entries"]) if len(e["re"]) > 1)
    texts = []
    for zero in (0.0, -0.0):  # parsing keeps the sign of a zero only when re and im are both -0.0
        edited = json.loads(json.dumps(doc))
        entry = edited["kernel"]["entries"][i]
        entry["re"][0][0] = entry["im"][0][0] = zero
        texts.append(json.dumps(edited))
    want, got = (formats.loads(text) for text in texts)
    assert np.signbit(got.kernel.gram.real).any()
    assert got.digest == want.digest
    assert canonical_document_digest(got) != canonical_document_digest(want)


@pytest.mark.parametrize("section, table", [("semigroupoid", "compose"),
                                            ("semigroupoid", "star"), ("action", "act")])
def test_table_faults_name_the_first_faulty_row(section, table):
    doc = sample_doc()
    faults = {
        "not an array": lambda row: " ".join(row),
        "short": lambda row: row[:-1],
        "not a label": lambda row: row[:-1] + [7],
        "unknown": lambda row: row[:-1] + ["ghost"],
    }
    for first, second in itertools.permutations(faults, 2):
        bad = json.loads(json.dumps(doc))
        rows = bad[section][table]
        rows[1], rows[2] = faults[first](rows[1]), faults[second](rows[2])
        kind, message = ((CrossRefError, "unknown element|without an anchor") if first == "unknown"
                         else (ParseError, "is not a (pair|triple) of labels"))
        with pytest.raises(kind, match=message) as exc:
            formats.parse_instance(bad, strict=False)
        assert f"row {rows[1]!r} " in str(exc.value)


def parity_doc():
    """Z2 swapping two points with fiber 2: four 2x2 entries, in the order
    (x1,x1), (x1,x2), (x2,x1), (x2,x2)."""
    sg, act = z2_swap()
    bundle = HilbertBundle(points=("x1", "x2"), dim={"x1": 2, "x2": 2})
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    blocks = {(x, y): np.array([[2.0, 0.5], [0.5, 1.0]]) + (0.25j * skew if x != y else 0)
              for x in ("x1", "x2") for y in ("x1", "x2")}
    return formats.instance_to_doc(sg, act, bundle, OpKernel(bundle, blocks))


def spoil(doc, i, fault):
    """Put one fault into entry i of doc; returns the (object, key) to write
    twice, for the duplicate key."""
    e = doc["kernel"]["entries"][i]
    if fault == "boolean":
        e["re"][0][1] = True
    elif fault == "numeric string":
        e["im"][1][0] = "1.5"
    elif fault == "ragged row":
        e["re"][1].append(0.0)
    elif fault == "re/im shapes":
        e["im"] = [[0.0, 0.0]]
    elif fault == "block shape":
        e["re"], e["im"] = ([row + [0.0] for row in e[k]] for k in ("re", "im"))
    elif fault == "unknown point":
        e["row"] = "ghost"
    elif fault == "repeated pair":
        e["row"], e["col"] = "x1", "x1"
    elif fault == "nan":
        e["re"][0][0] = float("nan")
    elif fault == "duplicate key":
        return e, "re"
    elif fault == "nested 600 deep":
        e["re"] = {"re": [[1.0]]}  # a matrix object, read into the flat buffer
        for _ in range(600):
            e["re"] = [e["re"]]


def raised(text, tmp_path):
    """(type name, message) that loads and load raise on text, the path read as <path>."""
    path = tmp_path / "instance.json"
    path.write_text(text)
    out = []
    for load, arg in ((formats.loads, text), (formats.load, str(path))):
        with pytest.raises(Exception) as exc:
            load(arg, strict=False)
        out.append((type(exc.value).__name__, str(exc.value).replace(str(path), "<path>")))
    return out


NUMPY_RAGGED = "setting an array element with a sequence"
# each kernel entry fault of entry (x1,x2), and the message of the parse that read
# entries into nested lists (frozen); duplicate keys name the file when one is read
ENTRY_FAULTS = {
    "boolean": ("ParseError", "kernel entry ('x1','x2'): not an array of numbers "
                              "(found a boolean)"),
    "numeric string": ("ParseError", "kernel entry ('x1','x2'): not an array of numbers "
                                     "(found a string)"),
    "ragged row": ("ParseError", f"kernel entry ('x1','x2'): not an array of numbers "
                                 f"({NUMPY_RAGGED}"),
    "re/im shapes": ("ParseError", "kernel entry ('x1','x2'): 're' shape (2, 2) differs "
                                   "from 'im' shape (1, 2)"),
    "block shape": ("CrossRefError", "block ('x1','x2') has shape (2, 3), expected (2, 2)"),
    "duplicate key": ("ParseError", "key 're' appears twice in one object"),
    "unknown point": ("CrossRefError", "kernel entry ('ghost','x2') references an unknown point"),
    "repeated pair": ("ParseError", "kernel entry ('x1','x1') appears twice"),
    "nan": ("NonFinite", "kernel has NaN or Inf entries"),
    "nested 600 deep": ("ParseError", f"kernel entry ('x1','x2'): not an array of numbers "
                                      f"({NUMPY_RAGGED}"),
}


def assert_raised(got, want):
    kind, message = want
    for (got_kind, got_message), prefix in zip(got, ("", "<path>: ")):
        assert got_kind == kind
        if NUMPY_RAGGED in message:  # the rest of numpy's text depends on its version
            assert got_message.startswith(message)
        else:
            assert got_message == (prefix if message.startswith("key ") else "") + message


@pytest.mark.parametrize("fault", ENTRY_FAULTS)
def test_kernel_entry_faults_keep_their_exception_and_message(fault, tmp_path):
    doc = parity_doc()
    twice = spoil(doc, 1, fault)
    assert_raised(raised(_text(doc, twice), tmp_path), ENTRY_FAULTS[fault])


@pytest.mark.parametrize("first, second", [("boolean", "unknown point"),
                                           ("unknown point", "boolean"),
                                           ("nan", "ragged row"), ("block shape", "nan"),
                                           ("duplicate key", "boolean")])
def test_of_two_faulty_entries_the_first_in_document_order_raises(first, second, tmp_path):
    doc = parity_doc()
    twice = spoil(doc, 1, first) or spoil(doc, 2, second)
    if first == "nan":  # a NaN raises only once every entry has been read
        want = ENTRY_FAULTS[second][0], ENTRY_FAULTS[second][1].replace("'x1','x2'", "'x2','x1'")
    else:
        want = ENTRY_FAULTS[first]
    assert_raised(raised(_text(doc, twice), tmp_path), want)


def test_a_faulty_table_row_is_named_before_a_faulty_kernel_entry(tmp_path):
    doc = parity_doc()
    spoil(doc, 1, "boolean")
    doc["semigroupoid"]["compose"][1][2] = "zz"
    assert_raised(raised(_text(doc), tmp_path), (
        "CrossRefError", "compose row ['e', 'g', 'zz'] references unknown element 'zz'"))


def test_a_matrix_object_out_of_place_reads_as_the_object_it_was(tmp_path):
    m = {"re": [[1.5, -0.0]], "im": [[2.0, 0.25]]}
    shown = "{'re': [[1.5, -0.0]], 'im': [[2.0, 0.25]]}"
    cases = [
        (lambda d: d.__setitem__("bundle", m), "bundle: missing required key 'dims'"),
        (lambda d: d["action"].__setitem__("anchor", {"re": [[1.0]]}),
         "anchor of 're': expected str, got list"),
        (lambda d: d["bundle"].__setitem__("dims", {"re": [[1.0]], "x1": 2}),
         "bundle dim of 're' must be a positive integer, got [[1.0]]"),
        (lambda d: d["semigroupoid"]["compose"][1].__setitem__(1, m),
         f"compose row ['e', {shown}, 'g'] is not a triple of labels"),
        (lambda d: d["kernel"].__setitem__("field", m),
         f"kernel field must be 'complex', got {shown}"),
        (lambda d: d["kernel"].__setitem__("entries", m),
         "kernel entries: expected list, got dict"),
        (lambda d: d["kernel"]["entries"][1]["re"][0].__setitem__(0, {"re": [[1.0]]}),
         "kernel entry ('x1','x2'): not an array of numbers (float() argument must be a "
         "string or a real number, not 'dict')"),
        (lambda d: d["kernel"]["entries"][1].__setitem__("row", m),
         "kernel entry row: expected str, got dict"),
        (lambda d: d["kernel"]["entries"][1].pop("row"), "kernel entry: missing required key 'row'"),
    ]
    for edit, message in cases:
        doc = parity_doc()
        edit(doc)
        assert_raised(raised(_text(doc), tmp_path), ("ParseError", message))
    with pytest.raises(ParseError, match=re.escape("instance: missing required key 'semigroupoid'")):
        formats.loads(json.dumps(m))


def test_the_flat_buffer_gives_the_bits_of_re_plus_1j_im():
    # signed zeros in every combination: the Gram holds re + 1j * im bit for bit
    values = [0.0, -0.0, 1.5, -2.0]
    pairs = np.array(list(itertools.product(values, values)))
    sg, act = z2_swap()
    bundle = HilbertBundle(points=("x1", "x2"), dim={"x1": 4, "x2": 4})
    rng = np.random.default_rng(0)
    doc = formats.instance_to_doc(sg, act, bundle, OpKernel(bundle, {}))
    want = np.zeros((8, 8), dtype=np.complex128)
    for x, y in itertools.product(("x1", "x2"), repeat=2):
        re_part, im_part = pairs[rng.integers(0, len(pairs), 16)].T.reshape(2, 4, 4)
        doc["kernel"]["entries"].append(
            {"row": x, "col": y, "re": re_part.tolist(), "im": im_part.tolist()})
        block = np.array(re_part.tolist()) + 1j * np.array(im_part.tolist())
        want[4 * (x == "x2"):][:4, 4 * (y == "x2"):][:, :4] = block
        assert formats.matrix_from_doc(doc["kernel"]["entries"][-1]).tobytes() == block.tobytes()
    assert formats.kernel_from_doc(doc["kernel"], bundle).gram.tobytes() == want.tobytes()
    assert formats.loads(json.dumps(doc)).kernel.gram.tobytes() == want.tobytes()
    assert np.signbit(want.real[want.real == 0]).any()


def spectral_sized_doc():
    """Z2 shifting 8 points by 4, fiber 16: one part of dimension 128, the
    smallest shape of perfbench's `spectral` workload."""
    base = tuple(f"x{k}" for k in range(8))
    sg, act = sgpd.generate("group_action", table=sgpd.cyclic_group_table(2), base=base,
                            action_map={(f"g{i}", f"x{k}"): f"x{(k + 4 * i) % 8}"
                                        for i in range(2) for k in range(8)})
    bundle = HilbertBundle(points=base, dim={x: 16 for x in base})
    return formats.instance_to_doc(sg, act, bundle,
                                   generators.generate_kernel(act, bundle, "psd_invariant", 1))


def group_as_groupoid_32_doc():
    """The cyclic group of order 32 acting on itself, fiber 2: 1024 entries of 2x2."""
    seed = next(s for s in range(100) if int(generators.rng_for(s).integers(1, 4)) == 2)
    return formats.instance_to_doc(*generators.generate_instance(
        "group_as_groupoid", seed=seed, table=sgpd.cyclic_group_table(32)))


def traced_peak(path):
    formats.load(path, strict=False)  # first use of each code path out of the figure
    gc.collect()  # and its objects freed, whatever the collector's schedule
    tracemalloc.start()
    try:
        formats.load(path, strict=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [spectral_sized_doc, group_as_groupoid_32_doc])
def test_the_kernel_adds_at_most_its_text_and_two_grams_to_the_load_peak(build, tmp_path):
    """What the kernel adds to the traced peak of formats.load stays within
    its text and 2 * 16 * N**2 bytes for total dimension N: the flat buffer
    and the Gram. Nested lists of Python floats took 2.4 to 4.5 times the
    kernel's text, and 6 to 14 Grams."""
    doc = build()
    n = sum(doc["bundle"]["dims"].values())
    full, bare = tmp_path / "full.json", tmp_path / "bare.json"
    formats.save_instance(doc, full)
    formats.save_instance(dict(doc, kernel={"field": "complex", "entries": []}), bare)
    kernel_text = full.stat().st_size - bare.stat().st_size
    added = traced_peak(str(full)) - traced_peak(str(bare))
    assert added <= kernel_text + 2 * 16 * n ** 2
