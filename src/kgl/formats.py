"""JSON file formats for instances: semigroupoid, action, bundle, kernel.

An instance file is one JSON object holding the four documents. Complex
matrices are stored as separate real and imaginary coefficient arrays of
JSON numbers, read into one flat float64 buffer as a file is decoded
(_Matrices). Labels are strings, and a label or document part of another
JSON type raises ParseError, as does a matrix entry that is not a JSON
number: a JSON true or false, or a string such as "1.5" (numpy would read
them as 1.0, 0.0 and 1.5). Omitted kernel entries are zero
blocks. Serialization is canonical (sorted keys, sorted table rows, nonzero
blocks only), so identical instances produce identical documents.
save_instance writes a document's canonical text, one line of JSON with
sorted keys and no whitespace, and a newline.

The instance digest addresses content without re-encoding the kernel. It
is the SHA-256 of three parts in order: the canonical text of the table
documents with the kernel's entries left out (the instance document with
"kernel" replaced by {"field": "complex"}); one newline; and the kernel's
Gram as little-endian complex128 in C order, points in bundle order, with
signed zeros cleared. Files in any layout that hold the same content load
to the same digest.
"""

import hashlib
import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .bundle import HilbertBundle, part_index
from .errors import (
    AxiomError,
    CrossRefError,
    MalformedTable,
    ParseError,
)
from .kernel import OpKernel, Partition, _from_gram, partition_from_action
from .sgpd import LeftAction, StarSemigroupoid, validate, validate_action

__all__ = [
    "Instance",
    "semigroupoid_to_doc",
    "semigroupoid_from_doc",
    "action_to_doc",
    "action_from_doc",
    "bundle_to_doc",
    "bundle_from_doc",
    "kernel_to_doc",
    "kernel_from_doc",
    "matrix_to_doc",
    "matrix_from_doc",
    "instance_to_doc",
    "parse_instance",
    "load",
    "loads",
    "save_instance",
    "instance_digest",
    "load_kernel_file",
    "load_lift_file",
]

_DOC_KEYS = ("semigroupoid", "action", "bundle", "kernel")


def matrix_to_doc(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_doc(doc, where="matrix") -> np.ndarray:
    if type(doc) is _Block:
        re, im = doc.array()
        return re + 1j * im
    if not isinstance(doc, dict) or "re" not in doc:
        raise ParseError(f"{where}: expected an object with 're' (and optional 'im')")
    doc = {k: _decoded(v) for k, v in doc.items()}  # integer entries, or a fault to name
    try:
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: not an array of numbers ({exc})")
    if re.shape != im.shape:
        raise ParseError(f"{where}: 're' shape {re.shape} differs from 'im' shape {im.shape}")
    if re.ndim != 2:
        raise ParseError(f"{where}: expected a 2-d array, got ndim={re.ndim}")
    # numpy would read a JSON true or false as 1.0 or 0.0, and "1.5" as 1.5
    odd = set(map(type, chain.from_iterable(chain(doc["re"], doc.get("im", []))))) - {int, float}
    if odd:
        found = "boolean" if bool in odd else "string"
        raise ParseError(f"{where}: not an array of numbers (found a {found})")
    return re + 1j * im


def _decoded(value, depth=65):
    """value with each _Block in it, in lists up to depth deep, as the object
    it was read from; numpy reads no list past its 64 dimensions."""
    if type(value) is _Block:
        return value.doc()
    return [_decoded(v, depth - 1) for v in value] if type(value) is list and depth else value


class _Block:
    """A matrix object read by _Matrices: 're' at offset in source.values,
    then 'im' (zeros when absent), each of shape (p, q); keys are the
    object's keys in order, row and col its labels (None when absent)."""

    __slots__ = ("source", "offset", "shape", "keys", "row", "col")

    def __init__(self, *fields):
        self.source, self.offset, self.shape, self.keys, self.row, self.col = fields

    def array(self) -> np.ndarray:
        """'re' and 'im' stacked, a (2, p, q) view of the buffer."""
        p, q = self.shape
        return np.frombuffer(self.source.values, count=2 * p * q,
                             offset=8 * self.offset).reshape(2, p, q)

    def doc(self) -> dict:
        """The object it was read from."""
        re, im = self.array().tolist()
        found = {"row": self.row, "col": self.col, "re": re, "im": im}
        return {k: found[k] for k in self.keys}

    def __repr__(self):
        return repr(self.doc())


class _Matrices:
    """Matrix objects read into one flat float64 buffer, values. read is the
    object_pairs_hook of every decode, so an object's lists and floats are
    freed as soon as it closes; labels, shapes and key orders are kept once."""

    def __init__(self):
        self.values, self.shared = array("d"), {}

    def read(self, pairs):
        """The object of pairs (a dict or its items; a key given twice raises), a
        _Block if its keys are among row, col, re, im, its labels strings and
        re and im (if given) lists of p >= 1 lists of q floats each."""
        obj = dict(pairs)
        if len(obj) < len(pairs):
            _unique_keys(pairs)
        re, im = obj.get("re"), obj.get("im", [])
        if not (type(re) is list and re and type(im) is list
                and obj.keys() <= {"row", "col", "re", "im"}
                and type(obj.get("row", "")) is str and type(obj.get("col", "")) is str):
            return obj
        rows = re + im
        try:
            (q,) = set(map(len, rows))
        except (TypeError, ValueError):  # a row without a length, or rows of two lengths
            return obj
        flat = list(chain.from_iterable(rows))
        if ("im" in obj and len(im) != len(re) or not q and set(map(type, rows)) != {list}
                or not set(map(type, flat)) <= {float}):
            return obj
        start = len(self.values)
        self.values.fromlist(flat)
        if "im" not in obj:
            self.values.frombytes(bytes(8 * len(re) * q))
        share, keys, row, col = self.shared.setdefault, tuple(obj), obj.get("row"), obj.get("col")
        return _Block(self, start, share((len(re), q), (len(re), q)), share(keys, keys),
                      share(row, row), share(col, col))


def semigroupoid_to_doc(sg: StarSemigroupoid) -> dict:
    doc = {
        "symbols": sorted(sg.symbols),
        "elements": [{"id": g, "d": sg.d[g], "c": sg.c[g]} for g in sorted(sg.elements)],
        "compose": sorted([a, b, ab] for (a, b), ab in sg.compose.items()),
        "star": sorted([a, sg.star[a]] for a in sg.star),
    }
    if sg.units is not None:
        doc["units"] = {s: e for s, e in sorted(sg.units.items())}
    return doc


def _expect(value, kind, where):
    """value, if it has the type kind: dict (a JSON object), list (an array)
    or str. A _Block is the object it was read from."""
    if type(value) is _Block:
        value = value.doc()
    if not isinstance(value, kind):
        raise ParseError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _row(row, n, where):
    """A table row: an array of n labels."""
    if not isinstance(row, list) or len(row) != n or not all(isinstance(g, str) for g in row):
        raise ParseError(f"{where} {row!r} is not a {'pair' if n == 2 else 'triple'} of labels")
    return row


def _label_rows(rows, n) -> bool:
    """Whether every row is an array of n labels, by whole-table type scans."""
    return (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {n}
            and set(map(type, chain.from_iterable(rows))) <= {str})


def _element_rows(rows, n, known, where):
    """rows, once every row is checked to be n labels of known elements; the
    per-row loop runs only when a whole-table check fails, to name the first
    faulty row."""
    if not (_label_rows(rows, n) and known.issuperset(chain.from_iterable(rows))):
        for row in rows:
            for g in _row(row, n, where):
                if g not in known:
                    raise CrossRefError(f"{where} {row!r} references unknown element {g!r}")
    return rows


def _require_keys(doc, keys, where):
    """Raise unless doc, a _Block taken as its object, is a dict holding keys."""
    doc = _expect(doc, dict, where)
    for k in keys:
        if k not in doc:
            raise ParseError(f"{where}: missing required key {k!r}")


def semigroupoid_from_doc(doc) -> StarSemigroupoid:
    _require_keys(doc, ("symbols", "elements", "compose", "star"), "semigroupoid")
    symbols = tuple(_expect(s, str, "semigroupoid symbol")
                    for s in _expect(doc["symbols"], list, "semigroupoid symbols"))
    ids, d, c = [], {}, {}
    for row in _expect(doc["elements"], list, "semigroupoid elements"):
        _require_keys(row, ("id", "d", "c"), "semigroupoid element")
        g = _expect(row["id"], str, "semigroupoid element id")
        ids.append(g)
        d[g] = _expect(row["d"], str, f"domain of {g!r}")
        c[g] = _expect(row["c"], str, f"codomain of {g!r}")
    known = set(ids)
    rows = _expect(doc["compose"], list, "semigroupoid compose")
    compose = {(a, b): ab for a, b, ab in _element_rows(rows, 3, known, "compose row")}
    rows = _expect(doc["star"], list, "semigroupoid star")
    star = dict(_element_rows(rows, 2, known, "star row"))
    units = doc.get("units")
    if units is not None:
        for s, e in _expect(units, dict, "semigroupoid units").items():
            if s not in set(symbols):
                raise CrossRefError(f"unit declared for unknown symbol {s!r}")
            if _expect(e, str, f"unit of {s!r}") not in known:
                raise CrossRefError(f"unit {e!r} is not a declared element")
        units = dict(units)
    try:
        return StarSemigroupoid(symbols, tuple(ids), d, c, compose, star, units)
    except MalformedTable as exc:
        raise CrossRefError(str(exc))


def action_to_doc(act: LeftAction) -> dict:
    return {
        "anchor": {x: act.anchor[x] for x in sorted(act.base)},
        "act": sorted([g, x, y] for (g, x), y in act.act.items()),
    }


def action_from_doc(doc, sg: StarSemigroupoid) -> LeftAction:
    _require_keys(doc, ("anchor", "act"), "action")
    anchor = dict(_expect(doc["anchor"], dict, "action anchor"))
    base = tuple(sorted(anchor))
    elts = set(sg.elements)
    syms = set(sg.symbols)
    for x, s in anchor.items():
        if _expect(s, str, f"anchor of {x!r}") not in syms:
            raise CrossRefError(f"anchor of {x!r} names unknown symbol {s!r}")
    rows = _expect(doc["act"], list, "action act")
    if not (_label_rows(rows, 3) and elts.issuperset(map(itemgetter(0), rows))
            and anchor.keys() >= set(chain.from_iterable(map(itemgetter(1, 2), rows)))):
        for row in rows:  # name the first faulty row
            g, x, y = _row(row, 3, "act row")
            if g not in elts:
                raise CrossRefError(f"act row {row!r} references unknown element {g!r}")
            if x not in anchor or y not in anchor:
                raise CrossRefError(f"act row {row!r} references a point without an anchor")
    table = {(g, x): y for g, x, y in rows}
    try:
        return LeftAction(sg=sg, base=base, anchor=anchor, act=table)
    except MalformedTable as exc:
        raise CrossRefError(str(exc))


def bundle_to_doc(bundle: HilbertBundle) -> dict:
    return {"dims": {x: int(bundle.dim[x]) for x in sorted(bundle.points)}}


def bundle_from_doc(doc, base=None) -> HilbertBundle:
    _require_keys(doc, ("dims",), "bundle")
    dims = _expect(doc["dims"], dict, "bundle dims")
    for x, n in dims.items():
        if type(n) is not int or n < 1:  # a JSON true is no dimension
            raise ParseError(f"bundle dim of {x!r} must be a positive integer, got {n!r}")
    if 16 * sum(dims.values()) ** 2 > np.iinfo(np.intp).max:
        raise ParseError("bundle dims: the dense complex Gram of the total dimension "
                         "exceeds the largest array numpy can address")
    points = tuple(sorted(dims))
    if base is not None and set(points) != set(base):
        missing = sorted(set(base) - set(points)) + sorted(set(points) - set(base))
        raise CrossRefError(f"bundle points and action base differ at {missing[:3]!r}")
    try:
        return HilbertBundle(points=points, dim=dict(dims))
    except ValueError as exc:
        raise ParseError(f"bundle: {exc}")


def kernel_to_doc(k: OpKernel) -> dict:
    blocks = k.blocks
    entries = [{"row": x, "col": y, **matrix_to_doc(blocks[(x, y)])} for x, y in sorted(blocks)]
    return {"field": "complex", "entries": entries}


def kernel_from_doc(doc, bundle: HilbertBundle) -> OpKernel:
    """The kernel whose entries doc lists, checked in document order so the
    first faulty entry raises. Blocks in a flat buffer (_Matrices) are
    written into the Gram per buffer and fiber shape, any other as it is
    read. A NaN or Inf raises once every entry has been read."""
    _require_keys(doc, ("field", "entries"), "kernel")
    if doc["field"] != "complex":
        raise ParseError(f"kernel field must be 'complex', got {doc['field']!r}")
    read, index, dim = _Matrices().read, part_index(bundle, bundle.points), bundle.dim
    gram = np.zeros((index.total_dim, index.total_dim), dtype=np.complex128)
    seen, groups = set(), {}
    for entry in _expect(doc["entries"], list, "kernel entries"):
        entry = read(entry) if type(entry) is dict else entry
        x, y = (entry.row, entry.col) if type(entry) is _Block else (None, None)
        if x is None or y is None:
            _require_keys(entry, ("row", "col", "re"), "kernel entry")
            x = _expect(entry["row"], str, "kernel entry row")
            y = _expect(entry["col"], str, "kernel entry col")
        if x not in dim or y not in dim:
            raise CrossRefError(f"kernel entry ({x!r},{y!r}) references an unknown point")
        if (x, y) in seen:
            raise ParseError(f"kernel entry ({x!r},{y!r}) appears twice")
        seen.add((x, y))
        block = entry if type(entry) is _Block else matrix_from_doc(
            entry, where=f"kernel entry ({x!r},{y!r})")
        want = (dim[x], dim[y])
        if block.shape != want:
            raise CrossRefError(f"block ({x!r},{y!r}) has shape {block.shape}, expected {want}")
        if block is entry:
            groups.setdefault((entry.source, want), []).append(
                (index.offsets[x], index.offsets[y], entry.offset))
        else:  # an entry not read into the flat buffer
            gram[index.slice_of(x), index.slice_of(y)] = block
    for (source, (p, q)), members in groups.items():
        x0, y0, at = np.array(members).T[:, :, None, None]
        r, c = x0 + np.arange(p)[:, None], y0 + np.arange(q)
        at = at + np.arange(p * q).reshape(p, q)
        values = np.frombuffer(source.values)
        re, im = values[at], values[at + p * q]
        re += np.copysign(0.0, im)  # the signed zeros of re + 1j * im
        im += 0.0
        gram.real[r, c] = re
        gram.imag[r, c] = im
    return _from_gram(index, gram)


@dataclass(eq=False)
class Instance:
    """A validated (semigroupoid, action, bundle, kernel) quadruple."""

    sg: StarSemigroupoid
    action: LeftAction
    bundle: HilbertBundle
    kernel: OpKernel
    partition: Partition
    digest: str

    @cached_property
    def doc(self) -> dict:
        """The canonical document, built on first use."""
        return instance_to_doc(self.sg, self.action, self.bundle, self.kernel)


def _tables_doc(sg, action, bundle) -> dict:
    return {
        "semigroupoid": semigroupoid_to_doc(sg),
        "action": action_to_doc(action),
        "bundle": bundle_to_doc(bundle),
    }


def instance_to_doc(sg, action, bundle, kernel) -> dict:
    return {**_tables_doc(sg, action, bundle), "kernel": kernel_to_doc(kernel)}


def _canonical_text(doc) -> str:
    """The canonical JSON text of a document: sorted keys, no whitespace,
    ASCII only. Saved files hold it."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def instance_digest(sg, action, bundle, kernel) -> str:
    """SHA-256 of the canonical text of the table documents with the
    kernel's entries left out, a newline, and the Gram's bytes (see the
    module docstring)."""
    text = _canonical_text({**_tables_doc(sg, action, bundle), "kernel": {"field": "complex"}})
    h = hashlib.sha256((text + "\n").encode("ascii"))
    # adding 0.0 turns -0.0 into 0.0; astype is a no-op on little-endian hosts
    h.update((kernel.gram + 0.0).astype("<c16", order="C", copy=False))
    return h.hexdigest()


def parse_instance(doc, strict: bool = True) -> Instance:
    """Build and cross-check the four documents of an instance.

    strict additionally runs the semigroupoid and action axiom checks,
    raising AxiomError with the first witness; commands that want to
    REPORT axiom violations instead load non-strictly and validate
    themselves.
    """
    _require_keys(doc, _DOC_KEYS, "instance")
    sg = semigroupoid_from_doc(doc["semigroupoid"])
    action = action_from_doc(doc["action"], sg)
    bundle = bundle_from_doc(doc["bundle"], base=action.base)
    kernel = kernel_from_doc(doc["kernel"], bundle)
    if strict:
        vr = validate(sg)
        if not vr.ok:
            first = vr.entries[0]
            raise AxiomError(
                f"semigroupoid violates {first.axiom} at {first.witness!r}: {first.detail}")
        va = validate_action(action)
        if not va.ok:
            first = va.entries[0]
            raise AxiomError(
                f"action violates {first.axiom} at {first.witness!r}: {first.detail}")
    partition = partition_from_action(bundle, action)
    return Instance(sg=sg, action=action, bundle=bundle, kernel=kernel, partition=partition,
                    digest=instance_digest(sg, action, bundle, kernel))


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"key {key!r} appears twice in one object")
        out[key] = value
    return out


def _read_json(path):
    """Parse a JSON file, its matrix objects read into one flat buffer
    (_Matrices); a key repeated inside one object is an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_Matrices().read)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
    return doc.doc() if type(doc) is _Block else doc


def load(paths, strict: bool = True) -> Instance:
    """Load an instance from one combined file or several partial files.

    Each file contributes top-level documents by name; a document supplied
    twice is an error.
    """
    if isinstance(paths, (str, bytes)):
        paths = [paths]
    merged = {}
    for path in paths:
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: top level must be an object")
        for key, val in doc.items():
            if key not in _DOC_KEYS:
                raise ParseError(f"{path}: unknown document {key!r}")
            if key in merged:
                raise ParseError(f"{path}: document {key!r} supplied twice")
            merged[key] = val
    return parse_instance(merged, strict=strict)


def loads(text: str, strict: bool = True) -> Instance:
    try:
        doc = json.loads(text, object_pairs_hook=_Matrices().read)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}")
    return parse_instance(doc, strict=strict)


def save_instance(instance, path):
    """Write an instance (or a prebuilt document) as compact sorted JSON and a
    newline; for an Instance this is the text its digest hashes."""
    doc = instance.doc if isinstance(instance, Instance) else instance
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_canonical_text(doc) + "\n")


def load_kernel_file(path, bundle: HilbertBundle) -> OpKernel:
    """Read a standalone kernel document (bare, or wrapped in 'kernel')."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "kernel" in doc:
        doc = doc["kernel"]
    return kernel_from_doc(doc, bundle)


def load_lift_file(path):
    """Read a lift problem: four matrices a, b, t, s."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    _require_keys(doc, ("a", "b", "t", "s"), "lift problem")
    return tuple(matrix_from_doc(doc[k], where=k) for k in ("a", "b", "t", "s"))
