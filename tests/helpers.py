"""Hand-built instances shared across test modules."""

import functools
import json
import random

import numpy as np

from kgl import formats, generators
from kgl.bundle import HilbertBundle
from kgl.kernel import OpKernel
from kgl.sgpd import LeftAction, StarSemigroupoid, pair_groupoid


def z2_group():
    """Two-element group as a one-symbol star-semigroupoid."""
    return StarSemigroupoid(
        symbols=("s",),
        elements=("e", "g"),
        d={"e": "s", "g": "s"},
        c={"e": "s", "g": "s"},
        compose={("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        star={"e": "e", "g": "g"},
        units={"s": "e"},
    )


def z2_swap(points=("x1", "x2")):
    """The swap action of the two-element group on two points."""
    sg = z2_group()
    a, b = points
    act = LeftAction(
        sg,
        base=points,
        anchor={a: "s", b: "s"},
        act={("e", a): a, ("e", b): b, ("g", a): b, ("g", b): a},
    )
    return sg, act


def scalar_bundle(points):
    return HilbertBundle(points=tuple(points), dim={x: 1 for x in points})


def scalar_kernel(points, entries):
    """Kernel with 1x1 blocks; entries maps (x, y) to a scalar."""
    bundle = scalar_bundle(points)
    blocks = {
        xy: np.array([[v]], dtype=np.complex128) for xy, v in entries.items()
    }
    return OpKernel(bundle, blocks)


def circulant_kernel(a, b, points=("x1", "x2")):
    """Scalar kernel on two points with part Gram [[a, b], [b, a]]."""
    p, q = points
    return scalar_kernel(points, {(p, p): a, (q, q): a, (p, q): b, (q, p): b})


def swap_gram_kernel(points=("x1", "x2")):
    """Scalar kernel whose single part Gram is [[0, 1], [1, 0]]."""
    return circulant_kernel(0.0, 1.0, points)


def merge_monoid():
    """Idempotent monoid {e, t} with t collapsing x1 onto x0."""
    sg = StarSemigroupoid(
        symbols=("s",),
        elements=("e", "t"),
        d={"e": "s", "t": "s"},
        c={"e": "s", "t": "s"},
        compose={("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "t"},
        star={"e": "e", "t": "t"},
        units={"s": "e"},
    )
    act = LeftAction(
        sg,
        base=("x0", "x1"),
        anchor={"x0": "s", "x1": "s"},
        act={("e", "x0"): "x0", ("e", "x1"): "x1", ("t", "x0"): "x0", ("t", "x1"): "x0"},
    )
    return sg, act


def trivial_group():
    sg = StarSemigroupoid(
        symbols=("s",),
        elements=("e",),
        d={"e": "s"},
        c={"e": "s"},
        compose={("e", "e"): "e"},
        star={"e": "e"},
        units={"s": "e"},
    )
    return sg


def guard_instance(eps):
    """Pair groupoid on a, b acting on itself, scalar fibers. Part a has the
    Gram matrix [[1, 1], [1, 1]], part b the same plus eps v v* with
    v = (1, -1)/sqrt2: invariant within tolerance, but part b sees a
    direction that the rank-one quotient of part a does not have.
    Returns (sg, act, bundle, kernel)."""
    sg, act = pair_groupoid(("a", "b"))
    bundle = scalar_bundle(act.base)
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    grams = {"a": np.ones((2, 2)), "b": np.ones((2, 2)) + eps * np.outer(v, v)}
    blocks = {}
    for s, g in grams.items():
        pts = [x for x in act.base if act.anchor[x] == s]
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                blocks[(x, y)] = np.array([[g[i, j]]])
    return sg, act, bundle, OpKernel(bundle, blocks)


MUTATIONS = ("drop", "duplicate", "true", "string", "null", "list", "ragged", "label",
             "truncate", "dim")
FAMILIES = ("pair_groupoid", "group_action", "partial_bijections", "group_as_groupoid")


@functools.lru_cache(maxsize=None)
def _small_instance_text(family, seed):
    return formats._canonical_text(formats.instance_to_doc(
        *generators.generate_instance(family, seed=seed)))


def _nodes(value):
    """(container, key, child) for every value inside a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key, child
        if isinstance(child, (dict, list)):
            yield from _nodes(child)


def _text(value, twice=None):
    """Compact JSON text of value; the key twice[1] of the object twice[0]
    (by identity) is written twice."""
    if twice is None:
        return json.dumps(value, separators=(",", ":"))
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}:{_text(v, twice)}" for k, v in value.items()]
        if twice and value is twice[0]:
            items.append(f"{json.dumps(twice[1])}:{_text(value[twice[1]], twice)}")
        return "{" + ",".join(items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(_text(v, twice) for v in value) + "]"
    return json.dumps(value)


def malformed_text(seed):
    """A small generated instance's text with one seeded mutation, of the
    kind MUTATIONS[seed % 10]: a key dropped or written twice; a number
    turned into true, "1.5", null or a list; a row one entry longer; a
    label renamed; the text cut short; or a bundle dim set to 0, -1 or
    10**400 (never a large finite dim, whose Gram would be allocated)."""
    rng = random.Random(seed)
    kind = MUTATIONS[seed % len(MUTATIONS)]
    doc = json.loads(_small_instance_text(rng.choice(FAMILIES), rng.randrange(3)))
    nodes = list(_nodes(doc))
    twice = None
    if kind == "truncate":
        text = _text(doc)
        return text[:rng.randrange(len(text))]
    if kind == "dim":
        dims = doc["bundle"]["dims"]
        dims[rng.choice(sorted(dims))] = rng.choice((0, -1, 10 ** 400))
    elif kind in ("drop", "duplicate"):
        obj = rng.choice([v for _, _, v in nodes if isinstance(v, dict) and v])
        key = rng.choice(sorted(obj))
        if kind == "drop":
            del obj[key]
        else:
            twice = (obj, key)
    elif kind == "ragged":
        rows = rng.choice([v for _, _, v in nodes
                           if isinstance(v, list) and v and all(isinstance(r, list) for r in v)])
        row = rng.choice(rows)
        row.append(row[-1] if row else 0.0)
    else:
        want = str if kind == "label" else (int, float)
        container, key, value = rng.choice(
            [n for n in nodes if isinstance(n[2], want) and not isinstance(n[2], bool)])
        container[key] = {"true": True, "string": "1.5", "null": None, "list": [1.0],
                          "label": f"{value}'"}[kind]
    return _text(doc, twice)
