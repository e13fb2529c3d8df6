"""Finite star-semigroupoids as explicit tables, plus left actions.

A semigroupoid here is a finite set of elements with domain and codomain
symbols and a partial composition defined exactly on the composable pairs
(domain of the left factor equals codomain of the right factor). The star
is an involution reversing products and swapping domain with codomain.
Everything is validated exhaustively; violations are reported with witness
tuples rather than raised, so corrupted tables can be inspected.

The tables are encoded as integer arrays once, at construction, and every
check runs on that encoding (see `_SgCode` and `_ActionCode`). The dicts
and tuples of a semigroupoid or an action must therefore not be mutated
afterwards: build a new object from modified copies instead.

Conventions. Composition is written like function composition: a*b means
"apply b, then a". The out-fiber of a symbol s collects the elements with
codomain s, the in-fiber those with domain s.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BadFamilyParams, InvalidSemigroupoid, MalformedTable, UnknownPoint

__all__ = [
    "StarSemigroupoid",
    "LeftAction",
    "Violation",
    "ValidationReport",
    "Classification",
    "validate",
    "classify",
    "validate_action",
    "orbit",
    "orbit_trivial_bundle",
    "self_action",
    "symbol_action",
    "generate",
    "pair_groupoid",
    "group_as_groupoid",
    "group_action",
    "partial_bijections",
]


# associativity-type checks visit this many table cells per step, so their
# temporaries stay small however many composable pairs there are
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class _SgCode:
    """Integer form of a semigroupoid's tables; -1 marks an undefined entry.

    Elements and symbols are numbered by their position in the label tuples.
    """

    index: dict  # element -> position
    sym_index: dict  # symbol -> position
    d: np.ndarray  # (E,) symbol of the domain
    c: np.ndarray  # (E,) symbol of the codomain
    star: np.ndarray  # (E,)
    pairs: np.ndarray  # (K, 2) the compose keys, in table order
    T: np.ndarray  # (E, E) the product a*b


@dataclass(frozen=True, eq=False)
class _ActionCode:
    """Integer form of an action table; points are numbered in base order."""

    index: dict  # point -> position
    anchor: np.ndarray  # (P,) symbol of each point
    A: np.ndarray  # (E, P) the point g.x, -1 where undefined


def _positions(n, index, labels):
    return np.fromiter((index[g] for g in labels), dtype=np.int32, count=n)


@dataclass(frozen=True, eq=False)
class StarSemigroupoid:
    symbols: tuple
    elements: tuple
    d: dict
    c: dict
    compose: dict  # (a, b) -> ab, exactly on composable pairs
    star: dict
    units: dict = None  # optional symbol -> element
    code: _SgCode = field(init=False, repr=False)
    # the axiom violations, found once (validate)
    _violations: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "elements", tuple(self.elements))
        syms, elts = set(self.symbols), set(self.elements)
        if len(syms) != len(self.symbols):
            raise MalformedTable("duplicate symbol labels")
        if len(elts) != len(self.elements):
            raise MalformedTable("duplicate element labels")
        for g in self.elements:
            if g not in self.d or g not in self.c:
                raise MalformedTable(f"element {g!r} missing d or c")
            if self.d[g] not in syms or self.c[g] not in syms:
                raise MalformedTable(f"element {g!r} has d/c outside the symbol set")
        for g in itertools.chain(self.d, self.c, self.star):
            if g not in elts:
                raise MalformedTable(f"table mentions unknown element {g!r}")
        index = {g: i for i, g in enumerate(self.elements)}
        entries = []
        for (a, b), ab in self.compose.items():
            for g in (a, b, ab):
                if g not in elts:
                    raise MalformedTable(f"compose entry mentions unknown element {g!r}")
            entries.append((index[a], index[b], index[ab]))
        for g, gs in self.star.items():
            if gs not in elts:
                raise MalformedTable(f"star({g!r}) = {gs!r} is not an element")
        if self.units is not None:
            for s, e in self.units.items():
                if s not in syms:
                    raise MalformedTable(f"unit declared for unknown symbol {s!r}")
                if e not in elts:
                    raise MalformedTable(f"unit {e!r} is not an element")

        n = len(self.elements)
        sym_index = {s: i for i, s in enumerate(self.symbols)}
        rows = np.array(entries, dtype=np.int32).reshape(-1, 3)
        table = np.full((n, n), -1, dtype=np.int32)
        table[rows[:, 0], rows[:, 1]] = rows[:, 2]
        star = np.fromiter((index[self.star[g]] if g in self.star else -1
                            for g in self.elements), dtype=np.int32, count=n)
        object.__setattr__(self, "code", _SgCode(
            index=index, sym_index=sym_index,
            d=_positions(n, sym_index, (self.d[g] for g in self.elements)),
            c=_positions(n, sym_index, (self.c[g] for g in self.elements)),
            star=star, pairs=rows[:, :2], T=table))

    # fibers
    def out_fiber(self, s):
        """Elements with codomain s."""
        return [g for g in self.elements if self.c[g] == s]

    def in_fiber(self, s):
        """Elements with domain s."""
        return [g for g in self.elements if self.d[g] == s]

    def composable(self, a, b) -> bool:
        return self.d[a] == self.c[b]

    def mul(self, a, b):
        if (a, b) not in self.compose:
            raise InvalidSemigroupoid(f"product {a!r}*{b!r} is not defined")
        return self.compose[(a, b)]


@dataclass(frozen=True, eq=False)
class LeftAction:
    sg: StarSemigroupoid
    base: tuple
    anchor: dict  # point -> symbol
    act: dict  # (element, point) -> point
    code: _ActionCode = field(init=False, repr=False)
    # partition block layout -> shift coordinates (kernel._shift_coordinates)
    _shift_coords: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        pts = set(self.base)
        if len(pts) != len(self.base):
            raise MalformedTable("duplicate base points")
        syms = set(self.sg.symbols)
        elts = set(self.sg.elements)
        for x in self.base:
            if x not in self.anchor:
                raise MalformedTable(f"point {x!r} has no anchor symbol")
            if self.anchor[x] not in syms:
                raise MalformedTable(f"anchor of {x!r} is not a symbol")
        index = {x: i for i, x in enumerate(self.base)}
        eidx = self.sg.code.index
        entries = []
        for (g, x), y in self.act.items():
            if g not in elts:
                raise MalformedTable(f"action entry mentions unknown element {g!r}")
            if x not in pts or y not in pts:
                raise MalformedTable(f"action entry ({g!r},{x!r}) -> {y!r} leaves the base")
            entries.append((eidx[g], index[x], index[y]))

        n = len(self.base)
        rows = np.array(entries, dtype=np.int32).reshape(-1, 3)
        table = np.full((len(self.sg.elements), n), -1, dtype=np.int32)
        table[rows[:, 0], rows[:, 1]] = rows[:, 2]
        anchor = _positions(n, self.sg.code.sym_index, (self.anchor[x] for x in self.base))
        object.__setattr__(self, "code", _ActionCode(index=index, anchor=anchor, A=table))

    def apply(self, g, x):
        if (g, x) not in self.act:
            raise InvalidSemigroupoid(f"action of {g!r} on {x!r} is not defined")
        return self.act[(g, x)]


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str


@dataclass
class ValidationReport:
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, axiom, witness, detail):
        self.entries.append(Violation(axiom, tuple(witness), detail))

    def axioms(self):
        return sorted({v.axiom for v in self.entries})


@dataclass(frozen=True)
class Classification:
    has_unit: bool
    is_transitive: bool
    is_inverse: bool
    is_groupoid: bool
    inverse_map: dict = None
    units: dict = None
    star_matches_inverse: bool = None


def _label(labels, i):
    """The label at position i, or None for the undefined entry -1."""
    return labels[i] if i >= 0 else None


def _chunks(pairs, width):
    """The compose keys in table order, a bounded number of table cells at a time."""
    step = max(1, _CHUNK_CELLS // max(1, width))
    for lo in range(0, len(pairs), step):
        yield pairs[lo:lo + step, 0], pairs[lo:lo + step, 1]


def validate(sg: StarSemigroupoid) -> ValidationReport:
    """Exhaustive axiom check; every violation is recorded with a witness.
    The check runs once per semigroupoid; each call returns a fresh report."""
    return ValidationReport(list(_axiom_violations(sg)))


def _axiom_violations(sg: StarSemigroupoid) -> tuple:
    if sg._violations is None:
        object.__setattr__(sg, "_violations", tuple(_check_axioms(sg).entries))
    return sg._violations


def _check_axioms(sg: StarSemigroupoid) -> ValidationReport:
    rep = ValidationReport()
    el, code = sg.elements, sg.code
    T, d, c, star = code.T, code.d, code.c, code.star
    own = np.arange(len(el))

    # composition defined exactly on composable pairs, with the right (d, c)
    defined = T >= 0
    composable = d[:, None] == c[None, :]
    wrong = defined & composable & ((d[T] != d[None, :]) | (c[T] != c[:, None]))
    for i, j in zip(*np.nonzero((defined != composable) | wrong)):
        if defined[i, j] != composable[i, j]:
            why = "defined on non-composable pair" if defined[i, j] else "missing product"
            rep.add("SG3", (el[i], el[j]), why)
        else:
            rep.add("SG3", (el[i], el[j]),
                    f"product {el[T[i, j]]!r} has wrong domain or codomain")

    # associativity over all triply-composable triples, (a, b) in table order
    for ka, kb in _chunks(code.pairs, len(el)):
        left = T[T[ka, kb]]
        bg = T[kb]
        right = np.where(bg >= 0, T[ka[:, None], bg], -1)
        bad = (d[kb][:, None] == c[None, :]) & ((left < 0) | (left != right))
        for r, k in zip(*np.nonzero(bad)):
            a, b, g = el[ka[r]], el[kb[r]], el[k]
            rep.add("SG4", (a, b, g), f"({a}{b}){g} = {_label(el, left[r, k])!r} "
                                      f"vs {a}({b}{g}) = {_label(el, right[r, k])!r}")

    # involution
    has = star >= 0
    swaps = (d[star] == c) & (c[star] == d)
    twice = star[star]
    for i in np.nonzero(~has | ~swaps | (twice != own))[0]:
        g = el[i]
        if not has[i]:
            rep.add("I1", (g,), "star undefined")
            continue
        if not swaps[i]:
            rep.add("I1", (g,), f"star({g!r}) = {el[star[i]]!r} does not swap domain and codomain")
        if twice[i] != i:
            rep.add("I3", (g,), f"star(star({g!r})) = {_label(el, twice[i])!r}")
    ka, kb = code.pairs[:, 0], code.pairs[:, 1]
    sa, sb, sab = star[ka], star[kb], star[T[ka, kb]]
    both = (sa >= 0) & (sb >= 0)
    reverse = np.where(both, T[sb, sa], -1)
    for r in np.nonzero(both & (reverse != sab))[0]:
        a, b = el[ka[r]], el[kb[r]]
        rep.add("I2", (a, b), f"star({a}{b}) = {_label(el, sab[r])!r} "
                              f"but star(b)star(a) = {_label(el, reverse[r])!r}")

    # units, when declared
    if sg.units is not None:
        for si, s in enumerate(sg.symbols):
            if s not in sg.units:
                rep.add("U1", (s,), "no unit declared for this symbol")
                continue
            e = sg.units[s]
            ei = code.index[e]
            if d[ei] != si or c[ei] != si:
                rep.add("U1", (s,), f"unit {e!r} not in the (s, s) fiber")
                continue
            outs = np.nonzero(c == si)[0]
            for a in outs[T[ei, outs] != outs]:
                rep.add("U2", (s, el[a]), f"unit does not fix {el[a]!r} from the left")
            ins = np.nonzero(d == si)[0]
            for a in ins[T[ins, ei] != ins]:
                rep.add("U3", (s, el[a]), f"unit does not fix {el[a]!r} from the right")
            if star[ei] != ei:
                rep.add("U-star", (s,), f"unit {e!r} is not star-fixed")

    # isolated symbols are rejected, loudly, instead of being dropped
    touched = np.zeros(len(sg.symbols), dtype=bool)
    touched[d] = touched[c] = True
    for si in np.nonzero(~touched)[0]:
        rep.add("isolated-symbol", (sg.symbols[si],),
                "symbol carries no elements; remove it explicitly")

    return rep


def _search_units(sg: StarSemigroupoid):
    """Two-sided fiber identities found by exhaustive search, per symbol.

    For each symbol the element of its (s, s) fiber that fixes its whole
    out-fiber from the left and its whole in-fiber from the right.
    """
    code = sg.code
    T, d, c = code.T, code.d, code.c
    own = np.arange(len(sg.elements))
    composable = d[:, None] == c[None, :]
    fixes_left = ~np.any(composable & (T != own[None, :]), axis=1)
    fixes_right = ~np.any(composable & (T != own[:, None]), axis=0)
    # at most one per symbol: two of them would both equal their product
    found = {int(d[e]): sg.elements[e]
             for e in np.nonzero((d == c) & fixes_left & fixes_right)[0]}
    return {s: found[si] for si, s in enumerate(sg.symbols) if si in found}


def classify(sg: StarSemigroupoid) -> Classification:
    """Unit/transitive/inverse/groupoid flags, by exhaustive search."""
    rep = ValidationReport(list(_axiom_violations(sg)))
    if not rep.ok:
        raise InvalidSemigroupoid(f"axioms violated: {rep.axioms()}")

    units = _search_units(sg)
    has_unit = set(units) == set(sg.symbols)

    code = sg.code
    T, d, c = code.T, code.d, code.c
    hom = np.zeros((len(sg.symbols),) * 2, dtype=bool)
    hom[d, c] = True
    is_transitive = bool(hom.all())

    # unique pseudo-inverse per element: cand[a, b] when b is one for a
    own = np.arange(len(sg.elements))
    ab, ba = T, T.T
    cand = (d[None, :] == c[:, None]) & (c[None, :] == d[:, None]) & (ab >= 0) & (ba >= 0)
    cand &= (T[ab, own[:, None]] == own[:, None]) & (T[ba, own[None, :]] == own[None, :])
    is_inverse = bool(np.all(cand.sum(axis=1) == 1))
    inverse_map = None
    if is_inverse:
        inverse = np.nonzero(cand)[1]  # one column per row, rows in order
        inverse_map = {a: sg.elements[b] for a, b in zip(sg.elements, inverse)}

    is_groupoid = False
    if has_unit and is_inverse:
        unit = np.array([code.index[units[s]] for s in sg.symbols], dtype=np.int32)
        is_groupoid = bool(np.all(T[own, inverse] == unit[c])
                           and np.all(T[inverse, own] == unit[d]))

    star_matches = None
    if is_inverse:
        star_matches = bool(np.all(code.star == inverse))

    return Classification(
        has_unit=has_unit,
        is_transitive=is_transitive,
        is_inverse=is_inverse,
        is_groupoid=is_groupoid,
        inverse_map=inverse_map,
        units=units if has_unit else None,
        star_matches_inverse=star_matches,
    )


def validate_action(act: LeftAction, unital: bool = False) -> ValidationReport:
    """Exhaustive check of the left-action axioms, with witnesses."""
    sg = act.sg
    rep = ValidationReport()
    el, base = sg.elements, act.base
    T, d, c = sg.code.T, sg.code.d, sg.code.c
    anchor, A = act.code.anchor, act.code.A

    hit = np.zeros(len(sg.symbols), dtype=bool)
    hit[anchor] = True
    for si in np.nonzero(~hit)[0]:
        rep.add("A1", (sg.symbols[si],), "anchor misses this symbol (not surjective)")

    defined = A >= 0
    should = d[:, None] == anchor[None, :]
    wrong = defined & should & (anchor[A] != c[:, None])
    for i, j in zip(*np.nonzero((defined != should) | wrong)):
        if defined[i, j] != should[i, j]:
            why = "defined off the anchor fiber" if defined[i, j] else "missing action value"
            rep.add("A2", (el[i], base[j]), why)
        else:
            rep.add("A2", (el[i], base[j]),
                    f"anchor({base[A[i, j]]!r}) is not the codomain of {el[i]!r}")

    for ka, kb in _chunks(sg.code.pairs, len(base)):
        lhs = A[T[ka, kb]]
        bx = A[kb]
        rhs = np.where(bx >= 0, A[ka[:, None], bx], -1)
        bad = (d[kb][:, None] == anchor[None, :]) & ((lhs < 0) | (lhs != rhs))
        for r, x in zip(*np.nonzero(bad)):
            rep.add("A3", (el[ka[r]], el[kb[r]], base[x]),
                    f"(ab).x = {_label(base, lhs[r, x])!r} vs a.(b.x) = {_label(base, rhs[r, x])!r}")

    if unital:
        units = sg.units if sg.units is not None else _search_units(sg)
        for x in act.base:
            e = units.get(act.anchor[x])
            if e is None:
                rep.add("A-unital", (x,), "no unit available for the anchor symbol")
            elif act.act.get((e, x)) != x:
                rep.add("A-unital", (x,), f"unit moves the point to {act.act.get((e, x))!r}")

    return rep


def orbit(act: LeftAction, x) -> set:
    """All points reachable from x by one action step, together with x."""
    if x not in set(act.base):
        raise UnknownPoint(f"unknown point {x!r}")
    s = act.anchor[x]
    out = {x}
    for g in act.sg.in_fiber(s):
        if (g, x) in act.act:
            out.add(act.act[(g, x)])
    return out


def orbit_trivial_bundle(act: LeftAction, bundle) -> bool:
    """True iff the fiber dimension is constant on every action orbit."""
    dim = np.fromiter((bundle.dim[bundle.require(x)] for x in act.base),
                      dtype=np.int64, count=len(act.base))
    A = act.code.A
    steps = (act.sg.code.d[:, None] == act.code.anchor[None, :]) & (A >= 0)
    return not np.any(steps & (dim[A] != dim[None, :]))


# ------------------------------------------------------------------
# canonical actions


def self_action(sg: StarSemigroupoid) -> LeftAction:
    """The semigroupoid acting on itself by left multiplication (anchor = codomain)."""
    base = sg.elements
    anchor = {b: sg.c[b] for b in base}
    table = {}
    for g in sg.elements:
        for b in base:
            if sg.d[g] == sg.c[b]:
                table[(g, b)] = sg.compose[(g, b)]
    return LeftAction(sg=sg, base=base, anchor=anchor, act=table)


def symbol_action(sg: StarSemigroupoid) -> LeftAction:
    """The action on the symbol set itself: an element moves its domain to its codomain."""
    base = sg.symbols
    anchor = {s: s for s in base}
    table = {(g, sg.d[g]): sg.c[g] for g in sg.elements}
    return LeftAction(sg=sg, base=base, anchor=anchor, act=table)


# ------------------------------------------------------------------
# generator families


def pair_groupoid(symbols, action: str = "self"):
    """Pair groupoid on a symbol set: one arrow between every ordered pair.

    The element (u, v) is the arrow from v to u, so (u,v)(v,w) = (u,w).
    """
    syms = tuple(symbols)
    if len(syms) < 1:
        raise BadFamilyParams("pair_groupoid needs at least one symbol")
    elts = [f"({u},{v})" for u in syms for v in syms]
    d = {f"({u},{v})": v for u in syms for v in syms}
    c = {f"({u},{v})": u for u in syms for v in syms}
    compose = {}
    for u, v, w in itertools.product(syms, repeat=3):
        compose[(f"({u},{v})", f"({v},{w})")] = f"({u},{w})"
    star = {f"({u},{v})": f"({v},{u})" for u in syms for v in syms}
    units = {s: f"({s},{s})" for s in syms}
    sg = StarSemigroupoid(syms, tuple(elts), d, c, compose, star, units)
    return sg, _pick_action(sg, action)


def _normalize_group_table(table):
    """Accept {g: {h: gh}} or {(g,h): gh}; return ({(g,h): gh}, elements)."""
    flat = {}
    if not table:
        raise BadFamilyParams("empty group table")
    sample = next(iter(table))
    if isinstance(table[sample], dict):
        for g, row in table.items():
            for h, gh in row.items():
                flat[(g, h)] = gh
    else:
        flat = dict(table)
    elts = sorted({g for pair in flat for g in pair} | set(flat.values()))
    for g, h in itertools.product(elts, repeat=2):
        if (g, h) not in flat:
            raise BadFamilyParams(f"group table misses the product {g!r}*{h!r}")
    return flat, elts


def _group_semigroupoid(table, symbol="s0"):
    flat, elts = _normalize_group_table(table)
    identity = None
    for e in elts:
        if all(flat[(e, g)] == g and flat[(g, e)] == g for g in elts):
            identity = e
            break
    if identity is None:
        raise BadFamilyParams("group table has no identity element")
    inv = {}
    for g in elts:
        for h in elts:
            if flat[(g, h)] == identity and flat[(h, g)] == identity:
                inv[g] = h
                break
        else:
            raise BadFamilyParams(f"group table has no inverse for {g!r}")
    d = {g: symbol for g in elts}
    c = {g: symbol for g in elts}
    return StarSemigroupoid(
        (symbol,), tuple(elts), d, c, dict(flat), inv, {symbol: identity}
    )


def group_as_groupoid(table, action: str = "self"):
    """A finite group, from its multiplication table, as a one-symbol groupoid."""
    sg = _group_semigroupoid(table)
    return sg, _pick_action(sg, action)


def group_action(table, base, action_map):
    """A finite group acting on an explicit point set.

    action_map maps (group element, point) -> point and must be total.
    """
    sg = _group_semigroupoid(table)
    base = tuple(base)
    symbol = sg.symbols[0]
    anchor = {x: symbol for x in base}
    table_a = {}
    for g in sg.elements:
        for x in base:
            if (g, x) not in action_map:
                raise BadFamilyParams(f"action table misses ({g!r}, {x!r})")
            table_a[(g, x)] = action_map[(g, x)]
    return sg, LeftAction(sg=sg, base=base, anchor=anchor, act=table_a)


def _enumerate_partial_bijections(src, dst):
    """All injective partial maps src -> dst, as sorted graph tuples."""
    out = [()]
    for k in range(1, min(len(src), len(dst)) + 1):
        for dom in itertools.combinations(src, k):
            for img in itertools.permutations(dst, k):
                out.append(tuple(zip(dom, img)))
    return out


def partial_bijections(fiber_sizes, action: str = "self"):
    """The inverse semigroupoid of all partial bijections between finite fibers.

    One symbol per fiber; an element with domain symbol s and codomain
    symbol t is an injective partial map from the s-fiber into the
    t-fiber. The empty partial map is included for every ordered symbol
    pair: composition needs it for closure.
    """
    sizes = tuple(int(n) for n in fiber_sizes)
    if not sizes or any(n < 1 for n in sizes):
        raise BadFamilyParams("fiber sizes must be a nonempty tuple of positive ints")
    syms = tuple(f"p{i}" for i in range(len(sizes)))
    fibers = {s: tuple(f"{s}.{j}" for j in range(n)) for s, n in zip(syms, sizes)}

    def label(s, t, graph):
        body = ",".join(f"{a}:{b}" for a, b in graph)
        return f"{t}<{s}[{body}]"

    elts, d, c, graphs = [], {}, {}, {}
    for s in syms:
        for t in syms:
            for graph in _enumerate_partial_bijections(fibers[s], fibers[t]):
                g = label(s, t, graph)
                elts.append(g)
                d[g] = s
                c[g] = t
                graphs[g] = dict(graph)

    by_key = {}
    for g in elts:
        key = (d[g], c[g], tuple(sorted(graphs[g].items())))
        by_key[key] = g

    compose = {}
    for a in elts:
        for b in elts:
            if d[a] != c[b]:
                continue
            gb, ga = graphs[b], graphs[a]
            graph = tuple(sorted((p, ga[q]) for p, q in gb.items() if q in ga))
            compose[(a, b)] = by_key[(d[b], c[a], graph)]

    star = {}
    for g in elts:
        conv = tuple(sorted((q, p) for p, q in graphs[g].items()))
        star[g] = by_key[(c[g], d[g], conv)]

    units = {}
    for s in syms:
        ident = tuple(sorted((p, p) for p in fibers[s]))
        units[s] = by_key[(s, s, ident)]

    sg = StarSemigroupoid(syms, tuple(elts), d, c, compose, star, units)
    return sg, _pick_action(sg, action)


def _pick_action(sg, action):
    if action == "self":
        return self_action(sg)
    if action == "symbols":
        return symbol_action(sg)
    raise BadFamilyParams(f"unknown action choice {action!r}")


_FAMILIES = ("pair_groupoid", "group_action", "partial_bijections", "group_as_groupoid")


def cyclic_group_table(n: int):
    """Multiplication table of the cyclic group of order n, elements g0..g(n-1)."""
    if n < 1:
        raise BadFamilyParams("cyclic group order must be positive")
    return {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}


def generate(family: str, seed: int = 0, **params):
    """Build a named example family; output always validates.

    The structure families are deterministic; seed only selects default
    sizes when the family parameters are omitted. Returns a pair
    (semigroupoid, left action).
    """
    rng = abs(int(seed))
    if family == "pair_groupoid":
        symbols = params.get("symbols")
        if symbols is None:
            symbols = tuple(f"s{i}" for i in range(2 + rng % 2))
        return pair_groupoid(symbols, action=params.get("action", "self"))
    if family == "group_as_groupoid":
        table = params.get("table")
        if table is None:
            table = cyclic_group_table(2 + rng % 3)
        return group_as_groupoid(table, action=params.get("action", "self"))
    if family == "group_action":
        table = params.get("table")
        base = params.get("base")
        action_map = params.get("action_map")
        if table is None:
            n = 2 + rng % 3
            table = cyclic_group_table(n)
            base = tuple(f"x{k}" for k in range(n))
            action_map = {
                (f"g{i}", f"x{k}"): f"x{(i + k) % n}" for i in range(n) for k in range(n)
            }
        if base is None or action_map is None:
            raise BadFamilyParams("group_action needs base and action_map with a custom table")
        return group_action(table, base, action_map)
    if family == "partial_bijections":
        sizes = params.get("fiber_sizes")
        if sizes is None:
            sizes = ((1, 1), (2, 1), (1, 1, 1))[rng % 3]
        return partial_bijections(sizes, action=params.get("action", "self"))
    raise BadFamilyParams(f"unknown family {family!r}; choose from {_FAMILIES}")
