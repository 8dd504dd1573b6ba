"""Value semantics of the library's classes: equality and hashing by value
(by identity for local rules), keyword construction and defaults, and
immutability."""

from fractions import Fraction

import pytest

from helpers import BIN, cfg, spec, w
from symshift.core import (
    Alphabet,
    PeriodicCensus,
    PeriodicConfig,
    SftSpec,
    Word,
    config_distance,
    normalize_periodic,
)
from symshift.graphs import Dfa, LabeledGraph, SccComponent, essential_form, scc_decomposition
from symshift.localmaps import (
    AuditEntry,
    AuditReport,
    ImagePresentation,
    LocalRule,
    _allowed_windows,
    _skeleton,
    build_image_presentation,
    identity_rule,
)
from symshift.shifts import build_higher_block, periodic_census

FULL2 = spec("01")
GOLDEN = spec("01", "11")
AB = Alphabet(("a", "b"))


def equal_pairs():
    """Pairs of separately built objects with equal values, one pair per
    value class."""
    table = {(a,): a for a in range(2)}
    return [
        (Alphabet(["0", "1"]), Alphabet(("0", "1"))),
        (Word(BIN, [0, 1]), Word(BIN, (0, 1))),
        (
            SftSpec(BIN, [Word(BIN, (1, 1))]),
            SftSpec(Alphabet(("0", "1")), frozenset({w(BIN, "11")})),
        ),
        (PeriodicConfig(w(BIN, "01")), normalize_periodic(w(BIN, "0101"))),
        (LabeledGraph(["x"], [[0, 0, None]]), LabeledGraph(("x",), ((0, 0, None),), None)),
        (Dfa(BIN, ((0, 0),), 0), Dfa(alphabet=BIN, transitions=((0, 0),), initial=0)),
        (PeriodicCensus(2, (1, 3), (1, 2)), periodic_census(GOLDEN, 2)),
        (SccComponent((0,), False), scc_decomposition(LabeledGraph(["x"], [(0, 0, None)]))[0]),
        (AuditEntry("r", True, True, True), AuditEntry("r", True, True, True, None, False)),
        (
            AuditReport((AuditEntry("r", False, None, None),)),
            AuditReport((AuditEntry("r", False, None, None),)),
        ),
        (
            build_image_presentation(LocalRule(FULL2, 0, table)),
            build_image_presentation(LocalRule(FULL2, 0, dict(table))),
        ),
    ]


def every_instance():
    rule = identity_rule(GOLDEN)
    return [a for pair in equal_pairs() for a in pair] + [
        rule,
        build_image_presentation(rule),
        _skeleton(GOLDEN, 1, 1),
    ]


class TestEquality:
    @pytest.mark.parametrize("a, b", equal_pairs(), ids=lambda x: type(x).__name__)
    def test_equal_values_equal_hashes(self, a, b):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_values_differ(self):
        assert Alphabet(("0", "1")) != Alphabet(("1", "0"))
        assert Word(BIN, (0, 1)) != Word(AB, (0, 1))
        assert spec("01", "11") != spec("01", "00")
        assert cfg(BIN, "01") != cfg(BIN, "011")
        assert LabeledGraph(["x"], [], BIN) != LabeledGraph(["x"], [])
        assert Dfa(BIN, ((0, 0),), 0) != Dfa(BIN, ((0, -1),), 0)

    def test_value_classes_differ_from_other_types(self):
        assert Alphabet(("0", "1")) != ("0", "1")
        assert Word(BIN, (0, 1)) != (BIN, (0, 1))
        assert LabeledGraph(["x"], []) != (("x",), (), None)

    def test_alphabet_equality_ignores_index(self):
        a, b = Alphabet(("0", "1")), Alphabet(("0", "1"))
        object.__setattr__(b, "_index", {})
        assert a == b and hash(a) == hash(b)

    def test_spec_hash_keys_the_window_cache(self):
        _allowed_windows.cache_clear()
        _allowed_windows(GOLDEN, 3)
        _allowed_windows(SftSpec(BIN, [Word(BIN, (1, 1))]), 3)
        info = _allowed_windows.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_local_rule_equals_only_itself(self):
        r1, r2 = identity_rule(GOLDEN), identity_rule(GOLDEN)
        assert r1.table == r2.table and r1.name == r2.name
        assert r1 == r1 and r1 != r2
        assert len({r1, r2, r1}) == 2


class TestConstruction:
    def test_keywords_and_defaults(self):
        alph = Alphabet(symbols=["0", "1"])
        assert alph.symbols == ("0", "1")
        word = Word(alphabet=alph, indices=[1, 1])
        assert word.indices == (1, 1)
        s = SftSpec(alphabet=alph, forbidden=[word])
        assert s.forbidden == frozenset({word})
        assert PeriodicConfig(primitive=w(BIN, "01")).least_period == 2
        g = LabeledGraph(states=["x", "y"], edges=[[0, 1, None], (1, 0, None)])
        assert g.alphabet is None
        assert g.states == ("x", "y") and g.edges == ((0, 1, None), (1, 0, None))
        assert LabeledGraph(("x",), ()).alphabet is None
        rule = LocalRule(domain=FULL2, radius=0, table={(0,): 0, (1,): 1})
        assert rule.name == ""
        assert LocalRule(FULL2, 0, {(0,): 1, (1,): 0}, "flip").name == "flip"
        entry = AuditEntry(name="r", selfmap=True, injective=False, surjective=True)
        assert entry.preinjective is None and entry.goe_applies is False
        assert ImagePresentation(half_order=0, graph=g).graph is g

    def test_validation_still_runs(self):
        with pytest.raises(ValueError):
            Alphabet(symbols=("0",))
        with pytest.raises(ValueError):
            Word(BIN, (2,))
        with pytest.raises(ValueError):
            PeriodicConfig(w(BIN, "0101"))
        with pytest.raises(ValueError):
            LabeledGraph(["x"], [(0, 1, None)])
        with pytest.raises(ValueError):
            LocalRule(FULL2, -1, {})

    def test_audit_entry_violation(self):
        assert AuditEntry("r", True, True, False).violation
        assert not AuditEntry("r", False, True, False).violation
        assert AuditEntry("r", True, False, True, False, goe_applies=True).violation
        entries = (AuditEntry("a", True, True, True), AuditEntry("b", True, True, False))
        report = AuditReport(entries)
        assert [e.name for e in report.violations] == ["b"]


FIELDS = {
    "LocalRule": ("domain", "radius", "table", "name"),
    "LabeledGraph": ("states", "edges", "alphabet"),
    "Dfa": ("alphabet", "transitions", "initial"),
    "Alphabet": ("symbols", "_index"),
    "Word": ("alphabet", "indices"),
    "SftSpec": ("alphabet", "forbidden"),
    "PeriodicConfig": ("primitive",),
    "PeriodicCensus": ("max_n", "p", "q"),
    "SccComponent": ("states", "trivial"),
    "AuditEntry": ("name", "selfmap", "injective", "surjective", "preinjective", "goe_applies"),
    "AuditReport": ("entries",),
    "ImagePresentation": ("half_order", "graph"),
    "_Skeleton": ("graph", "windows"),
}


class TestImmutability:
    @pytest.mark.parametrize("obj", every_instance(), ids=lambda x: type(x).__name__)
    def test_no_assignment_or_deletion(self, obj):
        for name in FIELDS[type(obj).__name__]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1


class TestPostInitHook:
    """Construction of LabeledGraph and LocalRule runs ``__post_init__``
    looked up on the class, so wrapping it there sees every instance built
    through ``__init__``."""

    @pytest.mark.parametrize("cls", [LabeledGraph, LocalRule])
    def test_each_construction_calls_the_class_hook_once(self, monkeypatch, cls):
        calls = []
        original = cls.__post_init__

        def counting(obj):
            calls.append(obj)
            original(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
        if cls is LabeledGraph:
            built = [LabeledGraph(["x"], []), LabeledGraph(states=["x", "y"], edges=[(0, 1, None)])]
        else:
            built = [identity_rule(GOLDEN), LocalRule(FULL2, 0, {(0,): 0, (1,): 1})]
        assert len(calls) == len(built)
        assert all(a is b for a, b in zip(calls, built))

    def test_derived_graphs_skip_the_hook(self, monkeypatch):
        calls = []
        original = LabeledGraph.__post_init__

        def counting(obj):
            calls.append(obj)
            original(obj)

        monkeypatch.setattr(LabeledGraph, "__post_init__", counting)
        rule = identity_rule(GOLDEN)
        build_higher_block(GOLDEN, 3)
        # c has no successor, so trimming removes the blocks ending in c
        block = build_higher_block(spec("abc", "ca", "cb", "cc"), 2)
        assert len(essential_form(block).states) < len(block.states)
        build_image_presentation(rule)
        assert calls == []


class TestConfigDistance:
    def test_returns_fractions(self):
        cases = [
            ("0", "0", Fraction(0)),
            ("0", "1", Fraction(1)),
            ("01", "10", Fraction(1)),
            ("001", "0", Fraction(1, 2)),
            ("0001", "0", Fraction(1, 2)),
            ("00001", "00011", Fraction(1, 3)),
        ]
        for x, y, expected in cases:
            d = config_distance(cfg(BIN, x), cfg(BIN, y))
            assert type(d) is Fraction and d == expected
