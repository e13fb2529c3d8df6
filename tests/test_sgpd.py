import pytest

from helpers import merge_monoid, trivial_group, z2_group, z2_swap
from kgl import sgpd
from kgl.errors import BadFamilyParams, InvalidSemigroupoid, MalformedTable
from kgl.sgpd import LeftAction, StarSemigroupoid


def test_pair_groupoid_valid_and_classified():
    sg, act = sgpd.pair_groupoid(("s", "t"))
    assert len(sg.elements) == 4
    assert sgpd.validate(sg).ok
    assert sgpd.validate_action(act).ok
    cls = sgpd.classify(sg)
    assert cls.has_unit and cls.is_transitive and cls.is_inverse and cls.is_groupoid
    assert cls.star_matches_inverse
    assert cls.units == {"s": "(s,s)", "t": "(t,t)"}


def test_star_corruption_reports_involution_violation():
    sg, _ = sgpd.pair_groupoid(("s", "t"))
    star = dict(sg.star)
    star["(s,t)"] = "(s,t)"  # breaks d(a*) = c(a)
    bad = StarSemigroupoid(sg.symbols, sg.elements, sg.d, sg.c, sg.compose, star,
                           units=sg.units)
    rep = sgpd.validate(bad)
    assert not rep.ok
    assert any(v.axiom.startswith("I") for v in rep.entries)
    assert any("(s,t)" in v.witness for v in rep.entries)


def test_one_element_group():
    sg = trivial_group()
    assert sgpd.validate(sg).ok
    cls = sgpd.classify(sg)
    assert cls.is_groupoid and cls.has_unit


def test_partial_bijections_classification():
    # all partial bijections between two 2-element fibers
    sg, _ = sgpd.partial_bijections((2, 2))
    assert sgpd.validate(sg).ok
    cls = sgpd.classify(sg)
    assert cls.is_inverse
    assert not cls.is_groupoid
    assert cls.star_matches_inverse
    # every element composes against its star through itself
    for a in sg.elements:
        assert sg.compose[(sg.compose[(a, sg.star[a])], a)] == a


def test_partial_bijections_singleton_count():
    # between two singleton fibers: 4 nonempty graphs plus one empty map
    # per ordered symbol pair
    sg, _ = sgpd.partial_bijections((1, 1))
    assert len(sg.elements) == 8
    nonempty = [a for a in sg.elements if not a.endswith("[]")]
    assert len(nonempty) == 4


def test_truncated_free_semigroup_not_inverse():
    sg = StarSemigroupoid(
        symbols=("s",),
        elements=("a", "a2"),
        d={"a": "s", "a2": "s"},
        c={"a": "s", "a2": "s"},
        compose={("a", "a"): "a2", ("a", "a2"): "a2", ("a2", "a"): "a2",
                 ("a2", "a2"): "a2"},
        star={"a": "a", "a2": "a2"},
    )
    assert sgpd.validate(sg).ok
    cls = sgpd.classify(sg)
    assert not cls.is_inverse
    assert not cls.has_unit


def test_classify_rejects_invalid_tables():
    sg, _ = sgpd.pair_groupoid(("s", "t"))
    star = dict(sg.star)
    star["(s,t)"] = "(s,t)"
    bad = StarSemigroupoid(sg.symbols, sg.elements, sg.d, sg.c, sg.compose, star,
                           units=sg.units)
    with pytest.raises(InvalidSemigroupoid):
        sgpd.classify(bad)


def test_self_and_symbol_actions_valid():
    sg, _ = sgpd.pair_groupoid(("s", "t"))
    assert sgpd.validate_action(sgpd.self_action(sg)).ok
    assert sgpd.validate_action(sgpd.symbol_action(sg)).ok


def test_corrupt_action_reports_anchor_violation():
    sg, act = z2_swap()
    table = dict(act.act)
    table[("g", "x1")] = "x1"  # still anchored right, breaks associativity instead
    bad = LeftAction(sg, act.base, act.anchor, table)
    rep = sgpd.validate_action(bad)
    assert not rep.ok


def test_action_unital_flag():
    sg, act = z2_swap()
    assert sgpd.validate_action(act, unital=True).ok
    table = dict(act.act)
    table[("e", "x1")] = "x2"
    table[("e", "x2")] = "x1"
    swapped_unit = LeftAction(sg, act.base, act.anchor, table)
    rep = sgpd.validate_action(swapped_unit, unital=True)
    assert not rep.ok
    assert any(v.axiom.startswith("A-unital") or "unital" in v.axiom.lower()
               for v in rep.entries)


def test_orbits_and_orbit_triviality():
    from kgl.bundle import HilbertBundle

    sg, act = z2_swap()
    assert sgpd.orbit(act, "x1") == {"x1", "x2"}
    b_ok = HilbertBundle(points=("x1", "x2"), dim={"x1": 2, "x2": 2})
    b_bad = HilbertBundle(points=("x1", "x2"), dim={"x1": 2, "x2": 3})
    assert sgpd.orbit_trivial_bundle(act, b_ok)
    assert not sgpd.orbit_trivial_bundle(act, b_bad)


def test_fixed_point_has_singleton_orbit():
    # one symbol whose fiber no element maps into: orbit stays put
    sg = StarSemigroupoid(
        symbols=("s", "t"),
        elements=("e",),
        d={"e": "s"}, c={"e": "s"},
        compose={("e", "e"): "e"},
        star={"e": "e"},
        units=None,
    )
    act = LeftAction(sg, base=("x", "y"), anchor={"x": "s", "y": "t"},
                     act={("e", "x"): "x"})
    assert sgpd.orbit(act, "y") == {"y"}


def test_merge_monoid_is_valid_action():
    sg, act = merge_monoid()
    assert sgpd.validate(sg).ok
    assert sgpd.validate_action(act, unital=True).ok
    cls = sgpd.classify(sg)
    assert cls.has_unit and not cls.is_groupoid


def test_generate_families_deterministic():
    for family in ("pair_groupoid", "group_action", "partial_bijections",
                   "group_as_groupoid"):
        sg1, act1 = sgpd.generate(family, seed=3)
        sg2, act2 = sgpd.generate(family, seed=3)
        assert sg1.elements == sg2.elements
        assert act1.act == act2.act
        assert sgpd.validate(sg1).ok
        assert sgpd.validate_action(act1).ok


def test_generate_group_action_shape():
    sg, act = sgpd.generate("group_action", seed=0)
    assert len(sg.symbols) == 1
    cls = sgpd.classify(sg)
    assert cls.is_groupoid  # a group is a one-object groupoid


def test_generate_rejects_unknown_family():
    with pytest.raises(BadFamilyParams):
        sgpd.generate("no_such_family", seed=0)
    with pytest.raises(BadFamilyParams):
        sgpd.partial_bijections(())


def test_malformed_tables_rejected_on_construction():
    with pytest.raises(MalformedTable):
        StarSemigroupoid(symbols=("s",), elements=("a",), d={}, c={"a": "s"},
                         compose={}, star={"a": "a"})
    with pytest.raises(MalformedTable):
        StarSemigroupoid(symbols=("s",), elements=("a", "a"), d={"a": "s"},
                         c={"a": "s"}, compose={}, star={"a": "a"})


def test_a_semigroupoid_is_validated_once(monkeypatch):
    sg, _ = sgpd.pair_groupoid(("a", "b"))
    calls = []
    check = sgpd._check_axioms
    monkeypatch.setattr(sgpd, "_check_axioms", lambda s: calls.append(1) or check(s))
    first = sgpd.validate(sg)
    first.add("X", ("a",), "a violation added by the caller")
    assert sgpd.validate(sg).ok  # each call returns a fresh report
    assert sgpd.classify(sg).is_groupoid
    assert calls == [1]
    bad = StarSemigroupoid(symbols=("s",), elements=("e",), d={"e": "s"}, c={"e": "s"},
                           compose={}, star={"e": "e"})
    assert sgpd.validate(bad).axioms() == ["SG3"]
    with pytest.raises(InvalidSemigroupoid):
        sgpd.classify(bad)
    assert calls == [1, 1]
