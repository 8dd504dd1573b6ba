import random
import sys
from itertools import product

import pytest

from helpers import (
    BIN,
    SEEDED_SPECS,
    cfg,
    reference_injective,
    reference_preinjective,
    spec,
    w,
)
from symshift.core import Word, enumerate_locally_allowed, normalize_periodic
from symshift.errors import (
    DensityUnknownError,
    EmptyShiftError,
    FormatError,
    NotASelfmapError,
    NotInDomainError,
    RuleConflictError,
    RuleIncompleteError,
)
from symshift.graphs import determinize_factor_acceptor, essential_form
from symshift.localmaps import (
    LocalRule,
    _allowed_windows,
    and_rule,
    apply_to_periodic,
    build_image_presentation,
    common_half_order,
    compose_rules,
    constant_rule,
    enumerate_rules,
    find_goe_pattern,
    identity_rule,
    is_injective,
    is_preinjective,
    is_surjective,
    parse_rule,
    rule_count,
    rule_from_function,
    shift_rule,
    surjunctivity_audit,
    xor_rule,
)
from symshift.shifts import enumerate_periodic, is_empty, is_irreducible, language_member

FULL2 = spec("01")
GOLDEN = spec("01", "11")
ANTI = spec("01", "01")
TWO_POINTS = spec("01", "01", "10")  # reducible: just 0^inf and 1^inf


def sliding_apply(rule, indices):
    """Apply the rule to a finite word, shrinking it by 2*radius."""
    width = rule.window_length
    return tuple(
        rule.table[indices[i : i + width]] for i in range(len(indices) - width + 1)
    )


def has_preimage(rule, word):
    """Brute-force preimage search over domain words of length |w| + 2*M'."""
    half = common_half_order(rule)
    need = len(word) + 2 * half
    offset = half - rule.radius
    for bits in product(range(rule.domain.alphabet.size), repeat=need):
        candidate = Word(rule.domain.alphabet, bits)
        if not language_member(rule.domain, candidate):
            continue
        out = sliding_apply(rule, bits)
        if out[offset : offset + len(word)] == word.indices:
            return True
    return False


class TestRuleConstruction:
    def test_totality_enforced(self):
        with pytest.raises(RuleIncompleteError):
            LocalRule(FULL2, 1, {(0, 0, 0): 0})

    def test_forbidden_windows_ignored(self):
        table = {win: 0 for win in product(range(2), repeat=3)}
        rule = LocalRule(GOLDEN, 1, table)
        assert (1, 1, 1) not in rule.table
        assert len(rule.table) == 5

    def test_rule_counts(self):
        assert rule_count(FULL2, 1) == 256
        assert rule_count(GOLDEN, 1) == 2**5
        assert sum(1 for _ in enumerate_rules(GOLDEN, 1)) == 32

    @pytest.mark.parametrize(
        "domain", (FULL2, GOLDEN, spec("abc"), spec("01", "0110", "111")) + SEEDED_SPECS
    )
    def test_rule_count_matches_window_enumeration(self, domain):
        # widths up to the memory are enumerated, wider ones counted as paths
        for radius in range(4):
            windows = _allowed_windows(domain, 2 * radius + 1)
            assert rule_count(domain, radius) == domain.alphabet.size ** len(windows)

    def test_rule_count_keeps_no_windows(self):
        # map audit asks for the count to refuse huge families, so counting
        # must not keep the windows alive in the window cache
        before = _allowed_windows.cache_info().currsize
        assert rule_count(GOLDEN, 4) == 2**89
        assert _allowed_windows.cache_info().currsize == before

    def test_builtin_tables(self):
        assert xor_rule(FULL2).table[(1, 0, 1)] == 0
        assert xor_rule(FULL2).table[(1, 0, 0)] == 1
        assert and_rule(FULL2).table[(1, 1, 1)] == 1
        assert and_rule(FULL2).table[(1, 0, 1)] == 0
        assert identity_rule(FULL2).table[(0, 1, 0)] == 1
        assert shift_rule(FULL2).table[(0, 0, 1)] == 1


class TestApplyToPeriodic:
    def test_xor_on_constant_one(self):
        assert apply_to_periodic(xor_rule(FULL2), cfg(BIN, "1")) == cfg(BIN, "0")

    def test_identity(self):
        assert apply_to_periodic(identity_rule(FULL2), cfg(BIN, "01")) == cfg(BIN, "01")

    def test_xor_on_period_three(self):
        # image[z] = c[z-1] + c[z+1] over 011: 1+1, 0+1, 1+0 -> 011
        assert apply_to_periodic(xor_rule(FULL2), cfg(BIN, "011")) == cfg(BIN, "011")

    def test_not_in_domain(self):
        with pytest.raises(NotInDomainError):
            apply_to_periodic(identity_rule(GOLDEN), cfg(BIN, "1"))

    def test_image_period_divides_input_period(self):
        rules = [xor_rule(FULL2), and_rule(FULL2), shift_rule(FULL2), constant_rule(FULL2, 0)]
        for rule in rules:
            for n in range(1, 9):
                for config in enumerate_periodic(FULL2, n):
                    image = apply_to_periodic(rule, config)
                    assert n % image.least_period == 0

    def test_commutes_with_translation(self):
        rules = [xor_rule(FULL2), and_rule(FULL2), shift_rule(FULL2)]
        for rule in rules:
            for n in range(1, 7):
                for config in enumerate_periodic(FULL2, n):
                    word = tuple(config.value_at(z) for z in range(n))
                    image = apply_to_periodic(rule, config)
                    for k in range(n):
                        rotated = normalize_periodic(
                            Word(BIN, word[k:] + word[:k])
                        )
                        rotated_image = normalize_periodic(
                            Word(BIN, tuple(image.value_at(z + k) for z in range(n)))
                        )
                        assert apply_to_periodic(rule, rotated) == rotated_image


class TestImagePresentation:
    def test_identity_presents_full_shift(self):
        pres = build_image_presentation(identity_rule(FULL2))
        assert len(pres.graph.states) == 4
        d = determinize_factor_acceptor(essential_form(pres.graph))
        assert all(
            d.run(bits) is not None for n in range(1, 6) for bits in product(range(2), repeat=n)
        )

    def test_constant_zero_presents_zero_star(self):
        pres = build_image_presentation(constant_rule(FULL2, 0))
        d = determinize_factor_acceptor(essential_form(pres.graph))
        assert d.accepts(w(BIN, "0000"))
        assert not d.accepts(w(BIN, "1"))

    def test_xor_presents_full_shift(self):
        pres = build_image_presentation(xor_rule(FULL2))
        d = determinize_factor_acceptor(essential_form(pres.graph))
        assert all(
            d.run(bits) is not None for n in range(1, 6) for bits in product(range(2), repeat=n)
        )

    def test_empty_domain_raises(self):
        empty = spec("01", "0", "1")
        with pytest.raises(EmptyShiftError):
            build_image_presentation(identity_rule(empty, radius=0))

    def test_underlying_graph_is_the_domain_recoding(self):
        from symshift.shifts import build_higher_block

        for domain, rule in ((FULL2, xor_rule(FULL2)), (GOLDEN, shift_rule(GOLDEN))):
            pres = build_image_presentation(rule)
            block = build_higher_block(domain, 2 * pres.half_order).graph
            assert pres.graph.states == block.states
            assert [(s, d) for s, d, _ in pres.graph.edges] == [
                (s, d) for s, d, _ in block.edges
            ]

    def test_closed_path_labels_match_apply(self):
        cases = [
            (FULL2, xor_rule(FULL2)),
            (FULL2, and_rule(FULL2)),
            (FULL2, shift_rule(FULL2)),
            (GOLDEN, identity_rule(GOLDEN)),
            (GOLDEN, shift_rule(GOLDEN)),
        ]
        for domain, rule in cases:
            pres = build_image_presentation(rule)
            half = pres.half_order
            name_to_id = {s: i for i, s in enumerate(pres.graph.states)}
            edge_label = {(s, d): lab for s, d, lab in pres.graph.edges}
            for n in range(1, 7):
                for config in enumerate_periodic(domain, n):
                    image = apply_to_periodic(rule, config)
                    for z in range(n):
                        src = Word(
                            domain.alphabet,
                            tuple(config.value_at(z + j) for j in range(2 * half)),
                        ).text()
                        dst = Word(
                            domain.alphabet,
                            tuple(config.value_at(z + 1 + j) for j in range(2 * half)),
                        ).text()
                        lab = edge_label[(name_to_id[src], name_to_id[dst])]
                        assert lab == image.value_at(z + half)


class TestSurjectivity:
    def test_xor_surjective(self):
        assert is_surjective(xor_rule(FULL2)) == (True, None)

    def test_identity_surjective(self):
        assert is_surjective(identity_rule(FULL2)) == (True, None)

    def test_constant_zero_not_surjective(self):
        verdict, orphan = is_surjective(constant_rule(FULL2, 0))
        assert not verdict and orphan.text() == "1"

    def test_and_rule_shortest_orphan(self):
        orphan = find_goe_pattern(and_rule(FULL2))
        assert orphan is not None and orphan.text() == "101"
        # confirmed orphan by exhaustive preimage search, and minimal:
        assert not has_preimage(and_rule(FULL2), orphan)
        for n in range(1, 3):
            for bits in product(range(2), repeat=n):
                assert has_preimage(and_rule(FULL2), Word(BIN, bits))

    def test_goe_pattern_none_for_surjective(self):
        assert find_goe_pattern(xor_rule(FULL2)) is None

    def test_not_a_selfmap_is_an_error(self):
        with pytest.raises(NotASelfmapError):
            is_surjective(constant_rule(GOLDEN, 1))
        with pytest.raises(NotASelfmapError):
            is_surjective(xor_rule(FULL2), GOLDEN)

    def test_explicit_target(self):
        assert is_surjective(identity_rule(GOLDEN), GOLDEN) == (True, None)

    def test_orphans_verified_by_brute_force(self):
        for rule in (constant_rule(FULL2, 0), constant_rule(FULL2, 1), and_rule(FULL2)):
            verdict, orphan = is_surjective(rule)
            assert not verdict
            assert language_member(FULL2, orphan)
            assert not has_preimage(rule, orphan)


class TestInjectivity:
    def test_identity_injective(self):
        assert is_injective(identity_rule(FULL2))

    def test_xor_not_injective(self):
        assert not is_injective(xor_rule(FULL2))

    def test_shift_injective(self):
        assert is_injective(shift_rule(FULL2))

    def test_non_injective_has_periodic_witness_pair(self):
        for rule in (xor_rule(FULL2), constant_rule(FULL2, 0), and_rule(FULL2)):
            if is_injective(rule):
                continue
            found = False
            for n in range(1, 9):
                configs = enumerate_periodic(FULL2, n)
                images = [apply_to_periodic(rule, c) for c in configs]
                for i in range(len(configs)):
                    for j in range(i + 1, len(configs)):
                        if images[i] == images[j]:
                            found = True
            assert found


class TestPreinjectivity:
    def test_constant_collapses_finite_differences(self):
        assert not is_preinjective(constant_rule(FULL2, 0))

    def test_xor_preinjective(self):
        assert is_preinjective(xor_rule(FULL2))

    def test_identity_preinjective(self):
        assert is_preinjective(identity_rule(FULL2))

    def test_and_not_preinjective(self):
        assert not is_preinjective(and_rule(FULL2))


class TestComposition:
    def test_composition_closure(self):
        pairs = [
            (xor_rule(FULL2), shift_rule(FULL2)),
            (and_rule(FULL2), xor_rule(FULL2)),
            (shift_rule(FULL2), shift_rule(FULL2)),
            (identity_rule(GOLDEN), shift_rule(GOLDEN)),
        ]
        for outer, inner in pairs:
            composite = compose_rules(outer, inner)
            assert composite.radius == outer.radius + inner.radius
            domain = inner.domain
            for n in range(1, 7):
                for config in enumerate_periodic(domain, n):
                    direct = apply_to_periodic(composite, config)
                    chained = apply_to_periodic(outer, apply_to_periodic(inner, config))
                    assert direct == chained

    def test_inner_leaving_the_domain_raises(self):
        # every output window of the constant-1 map is 111, outside the
        # golden-mean table; composing used to give the all-0 rule
        with pytest.raises(NotASelfmapError):
            compose_rules(identity_rule(GOLDEN), constant_rule(GOLDEN, 1))


class TestAudit:
    def test_identity_entry(self):
        report = surjunctivity_audit([identity_rule(FULL2)], FULL2)
        entry = report.entries[0]
        assert entry.selfmap and entry.injective and entry.surjective
        assert not report.violations

    def test_xor_entry(self):
        report = surjunctivity_audit([xor_rule(FULL2)], FULL2)
        entry = report.entries[0]
        assert entry.selfmap and not entry.injective and entry.surjective
        assert not report.violations

    def test_non_selfmap_entry(self):
        report = surjunctivity_audit([constant_rule(GOLDEN, 1)], GOLDEN)
        entry = report.entries[0]
        assert not entry.selfmap and entry.injective is None

    def test_density_precondition(self):
        with pytest.raises(DensityUnknownError):
            surjunctivity_audit([identity_rule(ANTI)], ANTI)

    def test_small_rule_family_no_violations(self):
        rules = list(enumerate_rules(GOLDEN, 0))
        report = surjunctivity_audit(rules, GOLDEN)
        assert len(report.entries) == 4
        assert not report.violations

    def test_garden_of_eden_mismatch_is_a_violation(self, monkeypatch):
        # a wrong pre-injectivity verdict: every map has an excursion
        monkeypatch.setattr("symshift.localmaps._has_excursion", lambda fwd, n: True)
        rules = [identity_rule(FULL2), xor_rule(FULL2), constant_rule(FULL2, 0)]
        report = surjunctivity_audit(rules, FULL2, check_preinjective=True)
        assert [e.name for e in report.violations] == ["identity", "xor"]
        # without pre-injectivity there is nothing to hold the rows to
        assert not surjunctivity_audit(rules, FULL2).violations

    def test_reducible_domain_is_not_held_to_garden_of_eden(self):
        assert not is_irreducible(TWO_POINTS)
        report = surjunctivity_audit([constant_rule(TWO_POINTS, 1)], TWO_POINTS, True)
        entry = report.entries[0]
        assert entry.selfmap and not entry.surjective and entry.preinjective
        assert not report.violations


RULE_TEXT = """
# xor over a binary alphabet
radius: 1
map: 0 0 0 -> 0
map: 0 0 1 -> 1
map: 0 1 0 -> 0
map: 0 1 1 -> 1
map: 1 0 0 -> 1
map: 1 0 1 -> 0
map: 1 1 0 -> 1
map: 1 1 1 -> 0
"""


class TestRuleFormat:
    def test_parse_against_full_shift(self):
        rule = parse_rule(RULE_TEXT, FULL2)
        assert rule.radius == 1
        assert rule.table == xor_rule(FULL2).table

    def test_parse_against_golden_ignores_forbidden_windows(self):
        rule = parse_rule(RULE_TEXT, GOLDEN)
        assert len(rule.table) == 5
        assert (1, 1, 0) not in rule.table

    def test_missing_window_reported(self):
        text = "radius: 1\nmap: 0 0 0 -> 0\n"
        with pytest.raises(RuleIncompleteError) as e:
            parse_rule(text, FULL2)
        assert "001" in str(e.value)

    def test_conflicting_duplicate(self):
        text = RULE_TEXT + "map: 0 0 0 -> 1\n"
        with pytest.raises(RuleConflictError):
            parse_rule(text, FULL2)

    def test_agreeing_duplicate_tolerated(self):
        text = RULE_TEXT + "map: 0 0 0 -> 0\n"
        assert parse_rule(text, FULL2).table == xor_rule(FULL2).table

    def test_format_errors(self):
        with pytest.raises(FormatError) as e:
            parse_rule("map: 0 0 0 -> 0", FULL2)
        assert e.value.line == 1
        with pytest.raises(FormatError) as e:
            parse_rule("radius: 1\nmap: 0 0 -> 0", FULL2)
        assert e.value.line == 2
        with pytest.raises(FormatError) as e:
            parse_rule("radius: 1\nmap: 0 0 2 -> 0", FULL2)
        assert e.value.line == 2
        with pytest.raises(FormatError):
            parse_rule("radius: x", FULL2)
        with pytest.raises(FormatError):
            parse_rule("# empty", FULL2)


class TestGoeEquivalenceSpotChecks:
    def test_surjective_iff_preinjective_on_named_rules(self):
        for rule in (
            xor_rule(FULL2),
            and_rule(FULL2),
            identity_rule(FULL2),
            shift_rule(FULL2),
            constant_rule(FULL2, 0),
            constant_rule(FULL2, 1),
        ):
            assert is_surjective(rule)[0] == is_preinjective(rule)

    def test_surjective_iff_preinjective_on_golden_domain(self):
        # the equivalence also holds on a proper irreducible SFT domain;
        # rules whose image leaves the domain are skipped
        checked = 0
        for rule in enumerate_rules(GOLDEN, 1):
            try:
                onto, _ = is_surjective(rule)
            except NotASelfmapError:
                continue
            assert onto == is_preinjective(rule), rule.name
            checked += 1
        assert checked > 0


FULL3 = spec("012")
# memory 3, so radius-1 rules read an inner window of the order-4 skeleton
NO0110 = spec("01", "0110")


def numbered_rule(domain, radius, number):
    """The rule whose output on the i-th allowed window (lexicographic) is
    bit i of ``number``."""
    windows = [x.indices for x in enumerate_locally_allowed(domain, 2 * radius + 1)]
    return LocalRule(domain, radius, {win: (number >> i) & 1 for i, win in enumerate(windows)})


def random_rules(domain, radius, count, seed):
    rng = random.Random(seed)
    windows = [x.indices for x in enumerate_locally_allowed(domain, 2 * radius + 1)]
    size = domain.alphabet.size
    return [
        LocalRule(domain, radius, {win: rng.randrange(size) for win in windows}, f"r{radius}-{i}")
        for i in range(count)
    ]


def structured_rules(domain):
    """Injective and surjective non-injective rules at radii 1 and 2."""
    k = domain.alphabet.size
    return [
        identity_rule(domain),
        shift_rule(domain),
        identity_rule(domain, 2),
        rule_from_function(domain, 1, lambda win: (win[1] + 1) % k, "rotate"),
        rule_from_function(domain, 1, lambda win: (win[0] + win[2]) % k, "sum"),
    ]


def single_rule_row(rule):
    """(selfmap, injective, surjective, preinjective) from the one-rule calls."""
    try:
        surjective, _ = is_surjective(rule)
    except NotASelfmapError:
        return (False, None, None, None)
    return (True, is_injective(rule), surjective, is_preinjective(rule))


class TestSharedSkeleton:
    """The audit relabels one domain skeleton per (order, radius); every row
    must equal what the separate one-rule decisions answer."""

    FAMILIES = (
        ("full2", FULL2, lambda: list(enumerate_rules(FULL2, 1))),
        ("golden", GOLDEN, lambda: list(enumerate_rules(GOLDEN, 1))),
        ("full3", FULL3, lambda: random_rules(FULL3, 1, 40, 7) + structured_rules(FULL3)),
        # two radii in one audit: two skeletons
        (
            "no0110",
            NO0110,
            lambda: random_rules(NO0110, 1, 20, 8)
            + random_rules(NO0110, 2, 10, 9)
            + structured_rules(NO0110),
        ),
    )

    @pytest.mark.parametrize("name,domain,rules", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_audit_rows_match_single_rule_calls(self, name, domain, rules):
        rules = rules()
        report = surjunctivity_audit(rules, domain, check_preinjective=True)
        assert len(report.entries) == len(rules)
        for rule, entry in zip(rules, report.entries):
            row = (entry.selfmap, entry.injective, entry.surjective, entry.preinjective)
            assert row == single_rule_row(rule), entry.name

    @pytest.mark.skipif(
        sys.implementation.name != "cpython", reason="counts CPython allocator blocks"
    )
    def test_repeated_audits_leave_no_blocks_behind(self):
        # A tuple built from an iterator of unknown length is resized, and
        # when it dies CPython keeps it on a free list that only a full
        # collection empties; built per rule, such tuples would add about
        # two blocks per row until the lists are full (peak memory of a
        # long audit run grew by 1.4 MB that way).
        rules = list(enumerate_rules(FULL2, 1))
        for _ in range(3):
            surjunctivity_audit(rules, FULL2, check_preinjective=True)
        before = sys.getallocatedblocks()
        for _ in range(10):
            surjunctivity_audit(rules, FULL2, check_preinjective=True)
        assert sys.getallocatedblocks() - before < 10 * len(rules) // 2

    def test_preinjective_left_out_on_request(self):
        rules = list(enumerate_rules(GOLDEN, 1))
        with_pre = surjunctivity_audit(rules, GOLDEN, check_preinjective=True).entries
        without = surjunctivity_audit(rules, GOLDEN).entries
        for a, b in zip(with_pre, without):
            assert b.preinjective is None
            assert (a.selfmap, a.injective, a.surjective) == (b.selfmap, b.injective, b.surjective)


# Shortest orphans of non-surjective rules, keyed by (domain, radius, rule
# number as in numbered_rule).  A change here is a change of witness.
PINNED_ORPHANS = {
    ("full2", 1, 1): "101",
    ("full2", 1, 5): "10001",
    ("full2", 1, 13): "1100",
    ("full2", 1, 19): "010",
    ("full2", 1, 22): "10010101",
    ("full2", 1, 23): "01001",
    ("full2", 1, 25): "11011",
    ("full2", 1, 37): "100101001",
    ("full2", 1, 43): "01000",
    ("full2", 1, 57): "001000",
    ("full2", 1, 91): "010010010",
    ("full2", 1, 104): "10010101",
    ("full2", 1, 146): "100111",
    ("full2", 1, 151): "01010110",
    ("full2", 1, 164): "100101001",
    ("full2", 1, 218): "010010010",
    ("full2", 1, 233): "01010110",
    ("full2", 1, 255): "0",
    ("golden", 1, 0): "1",
    ("golden", 1, 2): "101",
    ("golden", 1, 8): "101",
    ("golden", 1, 16): "1001",
    ("full2", 2, 2849574871): "0000000",
    ("full2", 2, 2006490094): "001000010",
    ("full2", 2, 2333844543): "1101011101",
    ("full2", 2, 1257836634): "1100000011",
    ("full2", 2, 3005859231): "1010110110",
    ("full2", 2, 3862209315): "10011001",
    ("full2", 2, 1573481329): "110000100",
    ("full2", 2, 4080235110): "0110000",
}


def test_pinned_orphans():
    domains = {"full2": FULL2, "golden": GOLDEN}
    for (name, radius, number), orphan in PINNED_ORPHANS.items():
        surjective, word = is_surjective(numbered_rule(domains[name], radius, number))
        assert not surjective and word.text() == orphan, (name, radius, number)


def has_parallel_labels(rule) -> bool:
    """Some state of the essential image presentation has two out-edges
    with one label."""
    edges = essential_form(build_image_presentation(rule).graph).edges
    return len({(src, lab) for src, _, lab in edges}) < len(edges)


class TestPairAutomatonOracles:
    """is_injective and is_preinjective against the string-named pair
    construction with fixed-point trimming (tests/helpers.py)."""

    @staticmethod
    def check(rules) -> set:
        """Compare every rule with the oracles; the (injective,
        pre-injective) verdicts seen."""
        seen = set()
        for rule in rules:
            verdict = (is_injective(rule), is_preinjective(rule))
            assert verdict == (reference_injective(rule), reference_preinjective(rule)), rule.name
            seen.add(verdict)
        return seen

    def test_all_binary_radius_1_rules(self):
        self.check(enumerate_rules(FULL2, 1))

    def test_seeded_radius_2_rules(self):
        rules = random_rules(FULL2, 2, 15, 21) + random_rules(GOLDEN, 2, 15, 22)
        rules += [make(d, 2) for d in (FULL2, GOLDEN) for make in (identity_rule, shift_rule)]
        rules += [xor_rule(FULL2, 2), and_rule(FULL2, 2)]
        self.check(rules)

    def test_seeded_ternary_rules(self):
        rules = random_rules(FULL3, 1, 30, 23) + structured_rules(FULL3)
        assert self.check(rules) == {(True, True), (False, True), (False, False)}

    def test_seeded_domains_of_memory_2_and_3(self):
        rules = []
        for i, s in enumerate(SEEDED_SPECS):
            if s.memory >= 2 and not is_empty(s):
                rules += random_rules(s, 0, 1, 100 + i) + random_rules(s, 1, 1, 200 + i)
                rules += [identity_rule(s, 1), shift_rule(s, 1)]
        assert len(self.check(rules)) == 3
        assert any(has_parallel_labels(rule) for rule in rules)

    def test_structured_radius_3_rules(self):
        rules = [
            rule_from_function(FULL2, 3, lambda win: win[4], "shift+1"),
            rule_from_function(FULL2, 3, lambda win: win[2], "shift-1"),
            identity_rule(FULL2, 3),
        ]
        assert self.check(rules) == {(True, True)}
        assert self.check([xor_rule(FULL2, 3)]) == {(False, True)}

    def test_reducible_domain(self):
        # {0^inf} and {1^inf}: no two distinct points differ in finitely
        # many places, so every rule is pre-injective
        rules = list(enumerate_rules(TWO_POINTS, 0)) + list(enumerate_rules(TWO_POINTS, 1))
        assert self.check(rules) == {(True, True), (False, True)}
