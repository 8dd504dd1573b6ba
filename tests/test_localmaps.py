import random
import sys
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from helpers import (
    BIN,
    SEEDED_SPECS,
    assert_valid_derived,
    blowup_rule,
    cfg,
    dfa_accepts,
    dfa_run,
    has_preimage_on_full_shift,
    rebuilt_image_presentation,
    reference_amalgamate,
    reference_compose,
    reference_divergence,
    reference_injective,
    reference_preinjective,
    reference_shrunk_image,
    reference_trimmed_table,
    spec,
    w,
)
from symshift import graphs, localmaps, shifts
from symshift.core import Word, enumerate_locally_allowed, is_locally_allowed, normalize_periodic
from symshift.errors import (
    AlphabetMismatchError,
    BadLengthError,
    DensityUnknownError,
    EmptyShiftError,
    FormatError,
    NotASelfmapError,
    NotInDomainError,
    RuleConflictError,
    RuleIncompleteError,
    TooLargeError,
)
from symshift.graphs import LabeledGraph, determinize_factor_acceptor, essential_form
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
    rule_from_function,
    shift_rule,
    surjunctivity_audit,
    window_count,
    xor_rule,
)
from symshift.shifts import (
    build_higher_block,
    enumerate_periodic,
    factor_acceptor,
    is_empty,
    is_irreducible,
    language_member,
    presentation,
)

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
        # one rule per choice of an output for each window
        assert window_count(FULL2, 1) == 8
        assert window_count(GOLDEN, 1) == 5
        assert sum(1 for _ in enumerate_rules(GOLDEN, 1)) == 32

    @pytest.mark.parametrize(
        "domain",
        (FULL2, GOLDEN, spec("abc"), spec("01", "0110", "111"))
        + SEEDED_SPECS
        + (spec("01", "01101001"), spec("abc", "abcabca", "bb")),
    )
    def test_rule_count_matches_window_enumeration(self, domain):
        # windows are counted as paths, those no wider than the memory on
        # the spec without its longer forbidden words
        for radius in range(4):
            windows = _allowed_windows(domain, 2 * radius + 1)
            assert window_count(domain, radius) == len(windows)

    @pytest.mark.parametrize(
        "count",
        [
            window_count,
            lambda domain, radius: next(enumerate_rules(domain, radius)),
            lambda domain, radius: rule_from_function(domain, radius, lambda win: 0),
            identity_rule,
            shift_rule,
            xor_rule,
            and_rule,
            lambda domain, radius: constant_rule(domain, 0, radius),
        ],
        ids=[
            "window_count", "enumerate_rules", "rule_from_function",
            "identity_rule", "shift_rule", "xor_rule", "and_rule", "constant_rule",
        ],
    )
    def test_negative_radius_is_refused_by_name(self, count):
        with pytest.raises(BadLengthError, match="radius must be non-negative, got -1"):
            count(FULL2, -1)

    def test_window_count_ignores_longer_forbidden_words(self, monkeypatch):
        # 2^23 windows of width 23 under one forbidden word of length 24 are
        # counted as paths of the full shift, not listed
        def refuse(spec, length):
            raise AssertionError("windows listed")

        monkeypatch.setattr(localmaps, "enumerate_locally_allowed", refuse)
        assert window_count(spec("01", "0" * 24), 11) == 2**23

    def test_window_count_lists_only_letters(self, monkeypatch):
        # the windows are counted in shifts.allowed_word_count, which lists
        # only the one-letter blocks of the full shift it counts paths in
        listed = []

        def enumerate_and_record(s, length):
            listed.append(length)
            return enumerate_locally_allowed(s, length)

        monkeypatch.setattr(shifts, "enumerate_locally_allowed", enumerate_and_record)
        assert window_count(spec("01", "0" * 24), 11) == 2**23
        assert listed == [1]

    def test_rule_count_keeps_no_windows(self):
        # map audit asks for the count to refuse huge families, so counting
        # must not keep the windows alive in the window cache
        before = _allowed_windows.cache_info().currsize
        assert window_count(GOLDEN, 4) == 89
        assert _allowed_windows.cache_info().currsize == before

    def test_window_of_the_wrong_length_refused(self):
        with pytest.raises(ValueError):
            LocalRule(FULL2, 1, {(0, 0): 0})

    def test_symbol_out_of_range_refused(self):
        with pytest.raises(ValueError):
            LocalRule(FULL2, 0, {(0,): 0, (1,): 2})

    def test_binary_rules_refuse_a_ternary_alphabet(self):
        with pytest.raises(ValueError):
            xor_rule(FULL3)
        with pytest.raises(ValueError):
            and_rule(FULL3)

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

    def test_configuration_over_another_alphabet(self):
        with pytest.raises(AlphabetMismatchError):
            apply_to_periodic(identity_rule(FULL2), cfg(FULL3.alphabet, "2"))

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
            dfa_run(d, bits) is not None
            for n in range(1, 6)
            for bits in product(range(2), repeat=n)
        )

    def test_constant_zero_presents_zero_star(self):
        pres = build_image_presentation(constant_rule(FULL2, 0))
        d = determinize_factor_acceptor(essential_form(pres.graph))
        assert dfa_accepts(d, w(BIN, "0000"))
        assert not dfa_accepts(d, w(BIN, "1"))

    def test_xor_presents_full_shift(self):
        pres = build_image_presentation(xor_rule(FULL2))
        d = determinize_factor_acceptor(essential_form(pres.graph))
        assert all(
            dfa_run(d, bits) is not None
            for n in range(1, 6)
            for bits in product(range(2), repeat=n)
        )

    def test_empty_domain_raises(self):
        empty = spec("01", "0", "1")
        with pytest.raises(EmptyShiftError):
            build_image_presentation(identity_rule(empty, radius=0))

    def test_underlying_graph_is_the_domain_recoding(self):
        from symshift.shifts import build_higher_block

        for domain, rule in ((FULL2, xor_rule(FULL2)), (GOLDEN, shift_rule(GOLDEN))):
            pres = build_image_presentation(rule)
            block = build_higher_block(domain, 2 * pres.half_order)
            assert pres.graph.states == block.states
            assert [(s, d) for s, d, _ in pres.graph.edges] == [
                (s, d) for s, d, _ in block.edges
            ]

    @pytest.mark.parametrize("radius", [1, 2])
    def test_image_graphs_pass_validation(self, radius):
        for seed, domain in enumerate((FULL2, GOLDEN, FULL3)):
            for rule in random_rules(domain, radius, 4, seed):
                assert_valid_derived(build_image_presentation(rule).graph)

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
                        src = tuple(config.value_at(z + j) for j in range(2 * half))
                        dst = tuple(config.value_at(z + 1 + j) for j in range(2 * half))
                        lab = edge_label[(name_to_id[src], name_to_id[dst])]
                        assert lab == image.value_at(z + half)


class TestSurjectivity:
    def test_xor_surjective(self):
        assert is_surjective(xor_rule(FULL2)) == (True, None)

    def test_target_over_another_alphabet(self):
        with pytest.raises(AlphabetMismatchError):
            is_surjective(xor_rule(FULL2), FULL3)

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

    @pytest.mark.parametrize(
        "seed, want",
        [
            (1, "0000100100001001010100"),
            (7, "01001111011010110101101"),
            (4099, "0000000100011001110011"),
        ],
        ids=["1", "7", "4099"],
    )
    def test_blowup_probe_rule_answers_within_the_budget(self, monkeypatch, seed, want):
        # each search reaches the two-ended phase, and the seed-7 radius-4
        # rule pairs 12.4M masks in its largest one; the orphan is the
        # length-lex least, read back from one forward and one backward mask
        meetings = Counter()
        first_meeting = graphs._first_meeting

        def counted(*args):
            meetings["calls"] += 1
            return first_meeting(*args)

        monkeypatch.setattr(graphs, "_first_meeting", counted)
        rule = blowup_rule(seed)
        verdict, orphan = is_surjective(rule)
        assert verdict is False and orphan.text() == want
        assert meetings["calls"] > 0
        assert not has_preimage_on_full_shift(rule, orphan)
        for factor in (orphan.indices[1:], orphan.indices[:-1]):
            assert has_preimage_on_full_shift(rule, Word(BIN, factor))

    def test_search_refused_past_its_budget(self, monkeypatch):
        monkeypatch.setattr(graphs, "_MAX_MASK_PAIRS", 1000)
        with pytest.raises(TooLargeError, match="more than 1000 masks") as e:
            is_surjective(blowup_rule(7))
        assert e.value.code == "E_TOO_LARGE"

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

    def test_two_domains_refused(self):
        with pytest.raises(AlphabetMismatchError):
            compose_rules(identity_rule(FULL2), identity_rule(GOLDEN))

    @pytest.mark.parametrize("forbidden", [["11"], ["11", "000", "01010"]], ids=["golden", "orbit"])
    def test_membership_builds_no_presentation(self, monkeypatch, forbidden):
        # the seeded pairs compose as the old reader composed them; on the
        # orbit of (001)^inf, 101 is locally allowed but no language word,
        # and "fill" maps it to 1, so a window holding it misses outer's
        # table, as 110 does, and defaults to 0
        domain = spec("01", *forbidden)
        fill = rule_from_function(domain, 1, lambda win: 1 if win == (1, 0, 1) else win[1], "fill")
        rules = [identity_rule(domain), shift_rule(domain), fill]
        rules += random_rules(domain, 0, 4, 61) + random_rules(domain, 1, 6, 62)
        pairs = [(outer, inner) for outer in rules for inner in rules[:7]]
        expected = []
        for outer, inner in pairs:
            try:
                expected.append(reference_compose(outer, inner))
            except NotASelfmapError:
                expected.append(None)

        def refuse(*args, **kwargs):
            raise AssertionError("composition built a presentation")

        monkeypatch.setattr(shifts, "presentation", refuse)
        monkeypatch.setattr(localmaps, "presentation", refuse)
        monkeypatch.setattr(graphs, "_path_reader", refuse)
        monkeypatch.setattr(localmaps, "_path_reader", refuse)
        with pytest.raises(NotASelfmapError):
            compose_rules(identity_rule(GOLDEN), constant_rule(GOLDEN, 1))
        for (outer, inner), want in zip(pairs, expected):
            if want is None:
                with pytest.raises(NotASelfmapError):
                    compose_rules(outer, inner)
            else:
                got = compose_rules(outer, inner)
                assert (got.radius, got.table, got.name) == (want.radius, want.table, want.name)
        assert 4 <= expected.count(None) <= len(pairs) - 4


class TestAudit:
    def test_identity_entry(self):
        report = surjunctivity_audit([identity_rule(FULL2)], FULL2)
        entry = report.entries[0]
        assert entry.selfmap and entry.injective and entry.surjective
        assert not report.violations

    def test_rule_of_another_domain_refused(self):
        with pytest.raises(ValueError):
            surjunctivity_audit([identity_rule(FULL2), identity_rule(GOLDEN)], FULL2)

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
        monkeypatch.setattr("symshift.localmaps._pair_verdicts", lambda image: (False, False))
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

    @pytest.mark.parametrize(
        "text",
        [
            "radius: 0\nmap: 0->0\nmap:1 -> 1\n",
            "radius: 0 # identity\r\nmap: 0->0 # keep\r\nmap:1 -> 1\r\n",
        ],
    )
    def test_arrow_and_colon_need_no_spaces(self, text):
        assert parse_rule(text, FULL2).table == identity_rule(FULL2, 0).table

    def test_parse_against_golden_ignores_forbidden_windows(self):
        rule = parse_rule(RULE_TEXT, GOLDEN)
        assert len(rule.table) == 5
        assert (1, 1, 0) not in rule.table

    def test_missing_window_reported(self):
        text = "radius: 1\nmap: 0 0 0 -> 0\n"
        with pytest.raises(RuleIncompleteError) as e:
            parse_rule(text, FULL2)
        assert "001" in str(e.value)

    def test_wide_missing_window_shown_by_its_ends(self):
        # radius 4000: the first missing window has 8001 symbols; the walk
        # to it keeps one prefix, where a stack of prefixes peaked at
        # hundreds of megabytes
        tracemalloc.start()
        try:
            with pytest.raises(RuleIncompleteError) as e:
                parse_rule("radius: 4000\n", FULL2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = str(e.value)
        assert f"'{'0' * 32}...{'0' * 32}' (8001 symbols)" in message
        assert len(message) < 200
        assert peak < 5_000_000

    def test_wide_rule_refused_without_counting_windows(self, monkeypatch):
        # counting the windows of width 200001 takes big-int path counts of
        # O(R) bits over O(R) steps; the walk stops at the first window
        counted = []

        def counting(fn):
            def wrapped(*args):
                counted.append(args)
                return fn(*args)

            return wrapped

        monkeypatch.setattr(localmaps, "window_count", counting(window_count))
        monkeypatch.setattr(localmaps, "allowed_word_count", counting(shifts.allowed_word_count))
        with pytest.raises(RuleIncompleteError) as e:
            parse_rule("radius: 100000\n", GOLDEN)
        assert "(200001 symbols)" in str(e.value)
        assert counted == []

    @pytest.mark.parametrize("domain", (FULL2, GOLDEN) + SEEDED_SPECS[::4])
    def test_first_missing_window_matches_enumeration(self, domain):
        # the refusal names the first window the table lacks among the
        # locally allowed ones, listed by brute force
        rng = random.Random(len(domain.forbidden))
        tokens = domain.alphabet.symbols
        for radius in (0, 1, 2):
            width = 2 * radius + 1
            windows = [
                win
                for win in product(range(domain.alphabet.size), repeat=width)
                if is_locally_allowed(domain, Word(domain.alphabet, win))
            ]
            entries = [win for win in windows if rng.random() < 0.8]
            lines = [f"radius: {radius}"]
            lines += [f"map: {' '.join(tokens[a] for a in win)} -> {tokens[0]}" for win in entries]
            missing = [win for win in windows if win not in entries]
            if not missing:
                assert len(parse_rule("\n".join(lines), domain).table) == len(windows)
                continue
            with pytest.raises(RuleIncompleteError) as e:
                parse_rule("\n".join(lines), domain)
            shown = Word(domain.alphabet, missing[0]).text()
            assert str(e.value) == f"rule has no entry for allowed window {shown!r}"

    def test_complete_file_walks_its_windows_once(self, monkeypatch):
        # the walk that looks for a missing window builds the table in
        # window order, whatever the order of the file, and the window
        # cache is not filled by a second walk
        windows = list(product(range(2), repeat=5))
        lines = [f"map: {' '.join(map(str, win))} -> {win[0] ^ win[-1]}" for win in windows]
        text = "radius: 2\n" + "\n".join(reversed(lines))
        walks = []

        def recording(s, length):
            walks.append(length)
            return enumerate_locally_allowed(s, length)

        monkeypatch.setattr(localmaps, "enumerate_locally_allowed", recording)
        _allowed_windows.cache_clear()
        rules = {domain: parse_rule(text, domain) for domain in (FULL2, GOLDEN)}
        assert walks == [5, 5]
        assert _allowed_windows.cache_info().misses == 0
        for domain, rule in rules.items():
            assert (rule.domain, rule.radius, rule.name) == (domain, 2, "")
            assert list(rule.table.items()) == list(xor_rule(domain, 2).table.items())

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
        with pytest.raises(FormatError, match="exactly one output token") as e:
            parse_rule("radius: 0\nmap: 0 -> 0 -> 1", FULL2)
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
    windows = list(enumerate_locally_allowed(domain, 2 * radius + 1))
    return LocalRule(domain, radius, {win: (number >> i) & 1 for i, win in enumerate(windows)})


def random_rules(domain, radius, count, seed):
    rng = random.Random(seed)
    windows = list(enumerate_locally_allowed(domain, 2 * radius + 1))
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
    must equal what the separate one-rule decisions answer.  Those run on
    the shrunk image presentation and the audit on the unreduced one, so
    the rows, with the orphans of the unreduced image, are also the oracle
    of the shrink."""

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
        ("full2-r2", FULL2, lambda: random_rules(FULL2, 2, 40, 52) + structured_rules(FULL2)),
    )

    @pytest.mark.parametrize("name,domain,rules", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_audit_rows_match_single_rule_calls(self, name, domain, rules):
        rules = rules()
        report = surjunctivity_audit(rules, domain, check_preinjective=True)
        assert len(report.entries) == len(rules)
        goal = presentation(domain)
        for rule, entry in zip(rules, report.entries):
            row = (entry.selfmap, entry.injective, entry.surjective, entry.preinjective)
            assert row == single_rule_row(rule), entry.name
            if entry.selfmap:
                image = build_image_presentation(rule).graph
                orphan = localmaps._compare_with_target(image, domain, goal)[1]
                assert is_surjective(rule)[1] == orphan, entry.name

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


def preimage_counts(rule, n):
    """How many words of length n + 2r the rule maps onto each word of
    length n, by sliding it over every word: on a full shift every word is
    in the domain."""
    k = rule.domain.alphabet.size
    return Counter(
        sliding_apply(rule, x) for x in product(range(k), repeat=n + 2 * rule.radius)
    )


def right_permutive_rules(domain, count, seed):
    """Radius-1 rules that permute the right letter by a seeded permutation
    per left pair: right-permutive, hence onto."""
    rng = random.Random(seed)
    k = domain.alphabet.size
    rules = []
    for i in range(count):
        perms = {pair: rng.sample(range(k), k) for pair in product(range(k), repeat=2)}
        rules.append(
            rule_from_function(domain, 1, lambda win, p=perms: p[win[:2]][win[2]], f"perm{i}")
        )
    return rules


@pytest.mark.parametrize(
    "domain, rules, longest",
    [
        (FULL2, [numbered_rule(FULL2, 1, i) for i in range(256)], 4),
        (FULL3, random_rules(FULL3, 1, 15, 6) + right_permutive_rules(FULL3, 15, 6), 3),
    ],
    ids=["binary", "ternary"],
)
def test_hedlund_balance(domain, rules, longest):
    """A rule of radius r onto a full shift over k letters gives every word
    exactly k**(2r) preimages (Hedlund); the orphan of a rule that is not
    onto has none."""
    k = domain.alphabet.size
    onto = 0
    for rule in rules:
        surjective, orphan = is_surjective(rule)
        if surjective:
            onto += 1
            for n in range(1, longest + 1):
                counts = preimage_counts(rule, n)
                assert all(
                    counts[x] == k ** (2 * rule.radius) for x in product(range(k), repeat=n)
                ), (rule.name, n)
        else:
            assert preimage_counts(rule, len(orphan))[orphan.indices] == 0, rule.name
    assert 0 < onto < len(rules)


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

    def test_each_shape_of_the_pair_search(self):
        # each group takes one path through the search, on the unreduced
        # image the audit reads and on the shrunk one the single-rule
        # questions read
        family = {rule.name: rule for rule in enumerate_rules(FULL2, 1)}
        shapes = [
            # two parallel edges with one label, in the shrunk image
            ([constant_rule(FULL2, 0), constant_rule(FULL2, 1)], (False, False)),
            # a return to the diagonal through off-diagonal pairs
            ([family["rule1"]], (False, False)),
            # a cycle in the diagonal's reach and no return to it
            ([family[f"rule{i}"] for i in (30, 45, 75, 120)], (False, True)),
            # a cycle out of the diagonal's reach, which is empty
            ([xor_rule(FULL2), constant_rule(TWO_POINTS, 1)], (False, True)),
        ]
        for rules, verdict in shapes:
            assert self.check(rules) == {verdict}
            for rule in rules:
                for image in (build_image_presentation(rule).graph, localmaps._shrunk_image(rule)):
                    assert localmaps._pair_verdicts(image) == verdict, rule.name

    def test_reducible_domain(self):
        # {0^inf} and {1^inf}: no two distinct points differ in finitely
        # many places, so every rule is pre-injective
        rules = list(enumerate_rules(TWO_POINTS, 0)) + list(enumerate_rules(TWO_POINTS, 1))
        assert self.check(rules) == {(True, True), (False, True)}


def full_dfa_comparison(rule, target):
    """The containments of ``_compare_with_target`` the long way, as the
    oracle of the searches that determinize on demand: both sides are full
    ``Dfa``s, compared by the reference search over pairs of their states.
    Returns (into, stray, orphan)."""
    image = determinize_factor_acceptor(build_image_presentation(rule).graph)
    goal = factor_acceptor(target)
    stray = reference_divergence(image, goal, True, False)
    orphan = reference_divergence(goal, image, True, False) if stray is None else None
    return stray is None, stray, orphan


class TestContainmentOnDemand:
    def test_stray_word_matches_full_dfa(self):
        cases = [(constant_rule(GOLDEN, 1), GOLDEN), (xor_rule(FULL2), GOLDEN)]
        # a reducible image: the stray word lies in the component of 1^inf,
        # out of reach of the component of 0^inf
        cases.append((identity_rule(TWO_POINTS), spec("01", "1")))
        cases += [(rule, GOLDEN) for rule in random_rules(FULL2, 2, 10, 17)]
        strays = 0
        for rule, target in cases:
            into, stray, _ = full_dfa_comparison(rule, target)
            if into:
                continue
            strays += 1
            with pytest.raises(NotASelfmapError, match=f"image word '{stray.text()}' lies"):
                is_surjective(rule, target)
        assert strays >= 10

    def test_golden_radius_1_selfmap_flags_match_full_dfa(self):
        rules = list(enumerate_rules(GOLDEN, 1))
        assert len(rules) == 32
        report = surjunctivity_audit(rules, GOLDEN)
        flags = []
        for rule, entry in zip(rules, report.entries):
            into, _, orphan = full_dfa_comparison(rule, GOLDEN)
            assert entry.selfmap == into, rule.name
            if into:
                assert entry.surjective == (orphan is None), rule.name
            flags.append(into)
        assert True in flags and False in flags

    def test_radius_3_random_rule_orphan_matches_full_dfa(self):
        # a binary radius-3 rule reading six of its seven cells: its output
        # on w[0..6] is bit int(w[0..5], base 2) of a seeded 64-bit table
        bits = random.Random(20261019).getrandbits(64)
        rule = rule_from_function(
            FULL2, 3, lambda win: bits >> int("".join(map(str, win[:6])), 2) & 1
        )
        _, _, orphan = full_dfa_comparison(rule, FULL2)
        assert orphan is not None
        assert is_surjective(rule) == (False, orphan)

    def test_radius_3_orphans_match_reference_search(self):
        # seeded rules of the same kind, their shortest orphans of lengths
        # 6 to 12 and more, against a search over the full subset
        # construction that steps one pair at a time
        rng = random.Random(20261020)
        goal = factor_acceptor(FULL2)
        lengths = set()
        for _ in range(12):
            bits = rng.getrandbits(64)
            rule = rule_from_function(
                FULL2, 3, lambda win: bits >> int("".join(map(str, win[:6])), 2) & 1
            )
            image = determinize_factor_acceptor(build_image_presentation(rule).graph)
            orphan = reference_divergence(goal, image, True, False)
            assert is_surjective(rule) == (orphan is None, orphan)
            lengths.add(None if orphan is None else len(orphan))
        assert len(lengths) >= 4


# targets of the selfmap check: forbidden words of lengths 3, 4 and 5; the
# orbit of (001)^inf, where 101 is locally allowed but outside the language;
# and an empty shift with locally allowed words
THREE_LENGTHS = spec("01", "000", "0110", "11011")
UNEXTENDABLE = spec("01", "11", "000", "01010")
EMPTY_TARGET = spec("01", "00", "01", "11")


class TestSelfmapByForbiddenWords:
    @pytest.mark.parametrize("target", [THREE_LENGTHS, UNEXTENDABLE, EMPTY_TARGET])
    def test_selfmap_flags_match_full_dfa(self, target):
        flags = Counter()
        rules = random_rules(FULL2, 1, 12, 31) + random_rules(FULL2, 2, 12, 32)
        for rule in rules + [constant_rule(FULL2, 1)]:
            into = full_dfa_comparison(rule, target)[0]
            try:
                is_surjective(rule, target)
            except NotASelfmapError:
                assert not into, rule.name
            else:
                assert into, rule.name
            flags[into] += 1
        if is_empty(target):
            assert flags == {False: len(rules) + 1}
            return
        # the audit's selfmap flags on the target as the domain
        rules = [identity_rule(target), shift_rule(target, 2)]
        rules += random_rules(target, 1, 16, 33) + random_rules(target, 2, 16, 34)
        report = surjunctivity_audit(rules, target)
        for rule, entry in zip(rules, report.entries):
            into = full_dfa_comparison(rule, target)[0]
            assert entry.selfmap == into, rule.name
            flags[into] += 1
        assert flags[True] >= 4 and flags[False] >= 4

    def test_unextendable_word_is_locally_allowed(self):
        word = BIN.parse_word("101")
        assert is_locally_allowed(UNEXTENDABLE, word)
        assert not language_member(UNEXTENDABLE, word)

    def test_reader_packs_each_graph_once(self, monkeypatch):
        calls = []
        packed_rows = graphs._packed_rows

        def counted(n, sides, reverse):
            sides = list(sides)
            calls.append(sides)
            return packed_rows(n, sides, reverse)

        acceptor = factor_acceptor(GOLDEN)
        golden = presentation(GOLDEN)
        monkeypatch.setattr(graphs, "_packed_rows", counted)
        reads = graphs._path_reader(golden)
        for n in range(8):
            for idx in product(range(2), repeat=n):
                assert reads(idx) == (dfa_run(acceptor, idx) is not None)
        assert calls.count([(0, golden.edges)]) == 1
        # {0^inf}: every word of length 5 but 00000 is forbidden, and the
        # image of the constant-0 rule avoids all 31 of them; the reader
        # packs the graph that is_surjective reads, the shrunk image, once
        target = spec("01", *("".join(word) for word in product("01", repeat=5) if "1" in word))
        rule = constant_rule(FULL2, 0)
        image = localmaps._shrunk_image(rule)
        calls.clear()
        assert is_surjective(rule, target) == (True, None)
        assert calls.count([(0, image.edges)]) == 1


class TestShrunkImage:
    """The map questions read the image presentation after
    ``graphs._amalgamate`` (``TestSharedSkeleton`` holds their answers to
    the unreduced audit)."""

    @pytest.mark.parametrize("symbol", [0, 1])
    def test_parallel_edges_are_an_excursion(self, symbol):
        # the constant rule's image shrinks to one state with two loops of
        # one label: no two states differ, yet two paths read one word
        rule = constant_rule(FULL2, symbol)
        image = localmaps._shrunk_image(rule)
        assert len(image.states) == 1 and image.edges == ((0, 0, symbol),) * 2
        assert not is_injective(rule) and not is_preinjective(rule)

    @pytest.mark.parametrize("radius", range(1, 7))
    def test_sizes(self, radius):
        for make in (identity_rule, shift_rule):
            assert len(localmaps._shrunk_image(make(FULL2, radius)).states) == 1
        # xor of the end cells reads both, and its image does not shrink
        image = build_image_presentation(xor_rule(FULL2, radius)).graph
        assert localmaps._shrunk_image(xor_rule(FULL2, radius)) == image

    def test_radius_6_identity_injective(self):
        # 4,096 image states; the unreduced cycle search entered 8.4M pairs
        assert is_injective(identity_rule(FULL2, 6)) is True

    def test_pair_search_refused_past_its_budget(self, monkeypatch):
        # xor of the end cells reads its whole window, its 64 image states
        # at radius 3 do not shrink, and its search enters 12 pairs
        rule = xor_rule(FULL2, 3)
        monkeypatch.setattr(localmaps, "_MAX_PAIRS_ENTERED", 11)
        for question in (is_injective, is_preinjective):
            with pytest.raises(TooLargeError, match="64 image states") as e:
                question(rule)
            assert e.value.code == "E_TOO_LARGE" and "11 pairs" in str(e.value)
        # an image that shrinks to one state has no pair to enter
        monkeypatch.setattr(localmaps, "_MAX_PAIRS_ENTERED", 0)
        assert is_injective(identity_rule(FULL2, 3)) is True
        monkeypatch.setattr(localmaps, "_MAX_PAIRS_ENTERED", 12)
        assert (is_injective(rule), is_preinjective(rule)) == (False, True)

    def test_rare_context_shrinks_by_amalgamation(self):
        # the rule reads its end cells only where all 13 interior cells are
        # 1, so the trim keeps all 15 cells: amalgamation alone takes the
        # 16,384 blocks of its image down to at most 15 states
        rule = rare_context_rule(7)
        assert len(build_image_presentation(rule).graph.states) == 2**14
        assert localmaps._trimmed_table(rule)[1] == 15
        assert len(localmaps._shrunk_image(rule).states) <= 15

    @pytest.mark.parametrize("radius", [2, 3])
    def test_rare_context_answers_as_unreduced(self, radius):
        rule = rare_context_rule(radius)
        oracle = image_answers(rule, rebuilt_image_presentation(rule))
        assert image_answers(rule, localmaps._shrunk_image(rule)) == oracle
        assert oracle[1] is not None and oracle[2] == (False, False)

    def test_radius_7_xor_answers(self):
        # 16,384 image states that do not shrink
        assert is_injective(xor_rule(FULL2, 7)) is False

    def test_radius_7_xor_search_holds_the_pairs_it_enters_only(self):
        # an array of one byte per ordered pair of its 16,384 states would
        # take 256 MiB
        image = localmaps._shrunk_image(xor_rule(FULL2, 7))
        assert len(image.states) == 2**14
        tracemalloc.start()
        try:
            verdicts = localmaps._pair_verdicts(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdicts == (False, True)
        assert peak < 32 * 2**20


def image_answers(rule, image):
    """(into, orphan, (injective, pre-injective)) read off one presentation
    of the rule's image: the selfmap flag and shortest orphan of
    ``_compare_with_target`` and the verdicts of ``_pair_verdicts``."""
    into, orphan = localmaps._compare_with_target(image, rule.domain, presentation(rule.domain))
    return into, orphan, localmaps._pair_verdicts(image)


def sub_window_rules(domain, radius, seed):
    """One seeded rule per sub-window [lo, hi) of the window of the radius,
    ends and empty ones included, whose output is a random function of
    the cells in it; with the width hi - lo."""
    rng = random.Random(seed)
    width = 2 * radius + 1
    windows = _allowed_windows(domain, width)
    rules = []
    for lo in range(width + 1):
        for hi in range(lo, width + 1):
            outputs = {}
            table = {
                win: outputs.setdefault(win[lo:hi], rng.randrange(domain.alphabet.size))
                for win in windows
            }
            rules.append((LocalRule(domain, radius, table, f"r{radius}[{lo}:{hi}]"), hi - lo))
    return rules


class TestTrimmedWindow:
    """``_shrunk_image`` reads the image at the window that is left when
    the cells the output never depends on are dropped from its ends; every
    verdict and orphan must equal the unreduced oracle's,
    ``rebuilt_image_presentation`` (tests/helpers.py)."""

    @staticmethod
    def check(rule):
        oracle = image_answers(rule, rebuilt_image_presentation(rule))
        assert image_answers(rule, localmaps._shrunk_image(rule)) == oracle, rule.name
        into, orphan, (injective, preinjective) = oracle
        if into:
            assert is_surjective(rule) == (orphan is None, orphan), rule.name
        else:
            with pytest.raises(NotASelfmapError):
                is_surjective(rule)
        assert (is_injective(rule), is_preinjective(rule)) == (injective, preinjective), rule.name

    def test_all_binary_and_golden_radius_1_rules(self):
        rules = list(enumerate_rules(FULL2, 1)) + list(enumerate_rules(GOLDEN, 1))
        widths = Counter()
        for rule in rules:
            self.check(rule)
            widths[localmaps._trimmed_table(rule)[1]] += 1
        assert set(widths) == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "domain", [FULL2, GOLDEN, NO0110, FULL3], ids=["full2", "golden", "no0110", "full3"]
    )
    def test_rules_reading_a_sub_window(self, domain):
        # memory+1 > width: the words the image is read from are longer
        # than the window that is left
        longer = 0
        for radius in range(3):
            seed = 100 * radius + len(domain.forbidden)
            for rule, read in sub_window_rules(domain, radius, seed):
                width = localmaps._trimmed_table(rule)[1]
                assert width <= read, rule.name
                longer += domain.memory + 1 > width
                self.check(rule)
        assert longer

    @pytest.mark.parametrize("radius", range(4))
    def test_trim_keeps_the_end_cells_read(self, radius):
        # on the full shift, a rule that reads both end cells of [lo, hi)
        # keeps exactly that sub-window, each key the cells it reads
        width = 2 * radius + 1
        windows = _allowed_windows(FULL2, width)
        for lo in range(width + 1):
            for hi in range(lo, width + 1):

                def ends(win, lo=lo, hi=hi):
                    cells = win[lo:hi]
                    return (cells[0] + cells[-1]) % 2 if len(cells) > 1 else sum(cells)

                rule = rule_from_function(FULL2, radius, ends)
                table, kept = localmaps._trimmed_table(rule)
                assert kept == hi - lo, (lo, hi)
                assert table == {win[lo:hi]: rule.table[win] for win in windows}

    def test_pairs_rules(self):
        # the ``pairs`` workload's rules: identity and shifts read one cell,
        # xor all seven, and the random rules six, whose shrunk images come
        # out smaller than the unreduced image's
        for rule in pairs_rules():
            self.check(rule)
            image = localmaps._shrunk_image(rule)
            unreduced = reference_amalgamate(rebuilt_image_presentation(rule))
            if rule.name.startswith("0x"):
                assert localmaps._trimmed_table(rule)[1] == 6
                assert len(image.states) < len(unreduced.states), rule.name
            else:
                assert len(image.states) == len(unreduced.states), rule.name


def pairs_rules():
    """The radius-3 rules of the ``pairs`` benchmark workload: shift by one
    cell each way, identity, xor of the end cells, and two rules whose
    output on w[0..6] is bit int(w[0..5], base 2) of a 64-bit table, one
    of them the workload's slowest rule."""
    rules = [
        rule_from_function(FULL2, 3, lambda win: win[4], "shift+1"),
        rule_from_function(FULL2, 3, lambda win: win[2], "shift-1"),
        identity_rule(FULL2, 3),
        xor_rule(FULL2, 3),
    ]
    for bits in (0x4B5FF9E5E6FC1C13, random.Random(20261021).getrandbits(64)):
        rules.append(
            rule_from_function(
                FULL2, 3, lambda win: bits >> int("".join(map(str, win[:6])), 2) & 1, hex(bits)
            )
        )
    return rules


def rare_context_rule(radius, context=None):
    """The xor of the end cells where the interior cells w[1..2r-1] read
    ``context``, all 1 by default, and the middle cell elsewhere: a rule on
    the full binary shift that reads its end cells in one context only."""
    r = radius
    context = (1,) * (2 * r - 1) if context is None else context
    name = f"rare{r}-{''.join(map(str, context))}"
    return rule_from_function(
        FULL2, r, lambda win: win[0] ^ win[2 * r] if win[1 : 2 * r] == context else win[r], name
    )


def alternating_context_rule(radius):
    """``rare_context_rule`` in the context 1 0 1 ... 1, which no neighbour
    of the all-0 or the all-1 window reads: the probe of ``_unread_cells``
    then misses both end cells."""
    return rare_context_rule(radius, tuple((i + 1) % 2 for i in range(2 * radius - 1)))


def table_words(domain, length, table):
    """The words ``_read_words`` reads edges from: the locally allowed words
    of ``length`` whose first cells are a window of ``table``."""
    width = len(next(iter(table)))
    return [w for w in enumerate_locally_allowed(domain, length) if w[:width] in table]


def oracle_corpus():
    """The rules the shrink is checked on against the graph-at-a-time
    oracles of tests/helpers.py: every binary and golden-mean radius-1
    rule, one rule per sub-window on four domains, the ``pairs`` rules,
    rare-context rules and seeded ternary rules."""
    rules = list(enumerate_rules(FULL2, 1)) + list(enumerate_rules(GOLDEN, 1))
    for domain in (FULL2, GOLDEN, NO0110, FULL3):
        for radius in range(3):
            seed = 100 * radius + len(domain.forbidden)
            rules += [rule for rule, _ in sub_window_rules(domain, radius, seed)]
    rules += pairs_rules()
    rules += [rare_context_rule(radius) for radius in range(1, 6)]
    rules += [alternating_context_rule(radius) for radius in range(2, 6)]
    for radius, seed in ((0, 40), (1, 41), (2, 42)):
        rules += random_rules(FULL3, radius, 12, seed)
    return rules


class TestShrinkAgainstOracle:
    """``_trimmed_table`` cuts each end in one pass and ``_shrunk_image``
    runs on integer lists; ``reference_trimmed_table`` and
    ``reference_shrunk_image`` (tests/helpers.py) cut a cell per pass and
    amalgamate a graph at a time.  Both must give the same table, keys in
    the same order, and the same graph, states and edges in the same
    order."""

    def test_trimmed_tables_match(self):
        unordered = 0
        for rule in oracle_corpus():
            table, width = localmaps._trimmed_table(rule)
            oracle, oracle_width = reference_trimmed_table(rule)
            assert width == oracle_width, rule.name
            assert list(table.items()) == list(oracle.items()), rule.name
            unordered += list(table) != sorted(table)
        # keys left out of lexicographic order by a cut of first cells on a
        # domain with forbidden words
        assert unordered

    def test_shrunk_images_match(self):
        for rule in oracle_corpus():
            image = localmaps._shrunk_image(rule)
            oracle = reference_shrunk_image(rule)
            assert image.states == oracle.states, rule.name
            assert image.edges == oracle.edges, rule.name
            assert_valid_derived(image)

    def test_seeded_specs(self):
        # empty domains, and reads that leave blocks with no successor or
        # stranded, which the trim to essential form removes
        empty = stranded = 0
        for i, s in enumerate(SEEDED_SPECS):
            for radius in range(3):
                rule = random_rules(s, radius, 1, 2000 + 3 * i + radius)[0]
                if is_empty(s):
                    for shrink in (localmaps._shrunk_image, reference_shrunk_image):
                        with pytest.raises(EmptyShiftError):
                            shrink(rule)
                    empty += 1
                    continue
                table, width = localmaps._trimmed_table(rule)
                length = max(width, s.memory + 1)
                read = localmaps._read_words(s, length, 0, table)
                stranded += len(read[0]) < len({w[:-1] for w in table_words(s, length, table)})
                image = localmaps._shrunk_image(rule)
                oracle = reference_shrunk_image(rule)
                assert (image.states, image.edges) == (oracle.states, oracle.edges), (i, radius)
        assert empty and stranded

    def test_read_lists_equal_keys_in_one_order(self):
        # the first passes of ``graphs._amalgamate`` take a state's edges in
        # the order they are listed: two states with the same labeled out-
        # (in-) edges must list them in one order, also when a cut of first
        # cells left the table out of lexicographic order
        unordered = 0
        for rule in oracle_corpus():
            table, width = localmaps._trimmed_table(rule)
            if not table:
                continue
            unordered += list(table) != sorted(table)
            states, src, dst, lab = localmaps._read_words(
                rule.domain, max(width, rule.domain.memory + 1), 0, table
            )
            for ends, others in ((src, dst), (dst, src)):
                listed: list[list] = [[] for _ in states]
                for e, o, x in zip(ends, others, lab):
                    listed[e].append((o, x))
                by_multiset = {}
                for codes in listed:
                    assert by_multiset.setdefault(tuple(sorted(codes)), codes) == codes, rule.name
        assert unordered

    @pytest.mark.parametrize("radius", range(3, 8))
    def test_cut_steps_down_past_the_probe(self, radius):
        # the probe bounds the cut at r cells at each end, but the rule reads
        # the end cells; each conflict steps the cut down to the cut cell
        # nearest the kept ones in which its two windows differ, so there
        # are fewer passes than the r a step of one cell would make at each
        rule = alternating_context_rule(radius)
        cells = range(rule.window_length)
        for order in (cells, cells[::-1]):
            assert localmaps._unread_cells(rule.table, order, range(2)) == radius

        class Passes(dict):
            made = 0

            def items(self):
                Passes.made += 1
                return super().items()

        counted = LocalRule._built(rule.domain, radius, Passes(rule.table))
        table, width = localmaps._trimmed_table(counted)
        assert width == rule.window_length and table is counted.table
        assert Passes.made < 2 * radius

    def test_one_graph_per_shrink(self, monkeypatch):
        built = []
        original = LabeledGraph._built.__func__

        def counted(cls, states, edges, alphabet):
            built.append(len(states))
            return original(cls, states, edges, alphabet)

        monkeypatch.setattr(LabeledGraph, "_built", classmethod(counted))
        # one rule that shrinks to one state, one that merges, one that
        # does not, and one whose read leaves stranded blocks
        rules = [identity_rule(FULL2, 3), pairs_rules()[-1], xor_rule(FULL2, 2)]
        rules.append(random_rules(SEEDED_SPECS[14], 1, 1, 43)[0])
        for rule in rules:
            built.clear()
            image = localmaps._shrunk_image(rule)
            assert built == [len(image.states)], rule.name


class TestImageReadOffTable:
    """``build_image_presentation`` reads the image presentation off the
    rule table; ``rebuilt_image_presentation`` (tests/helpers.py) relabels
    the domain's higher-block graph.  Both must give the same graph: the
    same states and the same edges, each in the same order."""

    @staticmethod
    def check(rules) -> None:
        for rule in rules:
            image = build_image_presentation(rule).graph
            oracle = rebuilt_image_presentation(rule)
            assert image.states == oracle.states, rule.name
            assert image.edges == oracle.edges, rule.name
            assert image == oracle

    def test_all_binary_and_golden_radius_1_rules(self):
        rules = list(enumerate_rules(FULL2, 1)) + list(enumerate_rules(GOLDEN, 1))
        assert len(rules) == 256 + 32
        self.check(rules)

    def test_seeded_specs_at_radii_0_to_2(self):
        # wider: the domain's memory needs blocks longer than 2r, so the
        # windows lie inside the edges; stranded: trimming removes blocks
        wider = stranded = 0
        for i, s in enumerate(SEEDED_SPECS):
            for radius in range(3):
                rule = random_rules(s, radius, 1, 1000 + 3 * i + radius)[0]
                if is_empty(s):
                    assert not rebuilt_image_presentation(rule).states
                    with pytest.raises(EmptyShiftError):
                        build_image_presentation(rule)
                    continue
                self.check([rule])
                half = common_half_order(rule)
                block = build_higher_block(s, 2 * half)
                wider += half > radius
                stranded += len(presentation(s, 2 * half).states) < len(block.states)
        assert wider and stranded

    def test_pairs_rules_at_radius_3(self):
        self.check(pairs_rules())

    def test_shrunk_images_answer_alike(self):
        rules = pairs_rules() + random_rules(GOLDEN, 2, 10, 31) + random_rules(NO0110, 1, 10, 32)
        rules += [constant_rule(GOLDEN, 1), shift_rule(NO0110)]
        for rule in rules:
            shrunk = reference_amalgamate(rebuilt_image_presentation(rule))
            goal = presentation(rule.domain)
            into, orphan = localmaps._compare_with_target(shrunk, rule.domain, goal)
            if into:
                assert is_surjective(rule) == (orphan is None, orphan), rule.name
            else:
                with pytest.raises(NotASelfmapError):
                    is_surjective(rule)
            verdicts = (is_injective(rule), is_preinjective(rule))
            assert verdicts == localmaps._pair_verdicts(shrunk), rule.name

    @pytest.mark.parametrize(
        "domain, radius", [(FULL2, 1), (GOLDEN, 2), (NO0110, 0), (NO0110, 1), (FULL3, 1)]
    )
    def test_audit_skeleton_matches_the_rebuilt_one(self, domain, radius):
        half = max(radius, (domain.memory + 1) // 2)
        states, src, dst, windows = localmaps._skeleton(identity_rule(domain, radius))
        graph = presentation(domain, 2 * half)
        words = graph.states
        lo, hi = half - radius, half + radius + 1
        assert tuple(states) == words
        assert list(zip(src, dst)) == [(s, d) for s, d, _ in graph.edges]
        assert windows == [(words[s] + words[d][-1:])[lo:hi] for s, d, _ in graph.edges]

    def test_audit_rows_relabel_to_the_rebuilt_image(self):
        # every binary radius-1 rule on the full and golden mean shifts and
        # 64 seeded ternary ones: the image an audit row reads equals the
        # relabeled higher-block graph and passes validation unchanged
        rules = list(enumerate_rules(FULL2, 1)) + list(enumerate_rules(GOLDEN, 1))
        rules += random_rules(FULL3, 1, 64, 25)
        skeletons = {}
        for rule in rules:
            key = (rule.domain, rule.radius)
            if key not in skeletons:
                skeletons[key] = localmaps._skeleton(rule)
            image = localmaps._relabeled(skeletons[key], rule)
            assert image == rebuilt_image_presentation(rule), rule.name
            assert_valid_derived(image)
