import gc
import random
import sys
from collections import Counter
from itertools import product
from math import gcd

import pytest

from helpers import (
    BIN,
    SEEDED_SPECS,
    assert_valid_derived,
    cfg,
    dense_census,
    dfa_accepts,
    dfa_run,
    divisor_recursion_q,
    multi_block_spec,
    nfa_member,
    spec,
    two_pass_higher_block,
    w,
    words_of_language,
)
from symshift.core import Word, cyclic_factors, enumerate_locally_allowed, is_locally_allowed
from symshift.errors import (
    AlphabetMismatchError,
    BadLengthError,
    EmptyShiftError,
    OrderTooSmallError,
    OverlapTooShortError,
    TooLargeError,
)
from symshift import shifts
from symshift.graphs import LabeledGraph, essential_form, scc_decomposition
from symshift.localmaps import build_image_presentation, identity_rule
from symshift.shifts import (
    build_higher_block,
    enumerate_periodic,
    factor_acceptor,
    is_empty,
    is_irreducible,
    is_mixing,
    language_member,
    pasting_check,
    periodic_census,
    periodic_density,
    presentation,
    sofic_equal,
)

GOLDEN = spec("01", "11")
ANTI = spec("01", "01")
FULL2 = spec("01")
FULL3 = spec("abc")
CHECKER = spec("01", "00", "11")


def census_oracle(s, max_n):
    """Brute-force census: for every cyclic word, scan all windows of the
    doubled unrolling whose length is the longest forbidden length."""
    forb = [f.indices for f in s.forbidden]
    longest = max((len(f) for f in forb), default=0)
    counts = []
    for n in range(1, max_n + 1):
        count = 0
        for word in product(range(s.alphabet.size), repeat=n):
            reps = word
            while len(reps) < n + max(longest - 1, 0):
                reps = reps + word
            ok = True
            for start in range(n):
                window = reps[start : start + longest]
                for f in forb:
                    for i in range(len(window) - len(f) + 1):
                        if window[i : i + len(f)] == f:
                            ok = False
            count += ok
        counts.append(count)
    return counts


class TestBuildHigherBlock:
    def test_full_shift_order_1(self):
        g = build_higher_block(FULL2, 1)
        assert g.states == ((0,), (1,))
        assert len(g.edges) == 4

    def test_golden_mean_instance(self):
        g = build_higher_block(GOLDEN, 1)
        assert g.states == ((0,), (1,))
        assert set(g.edges) == {(0, 0, 0), (0, 1, 0), (1, 0, 1)}

    def test_anti_golden(self):
        # of the four 2-words only 01 is dropped
        g = build_higher_block(ANTI, 1)
        assert set(g.edges) == {(0, 0, 0), (1, 0, 1), (1, 1, 1)}

    def test_block_cap(self, monkeypatch):
        monkeypatch.setattr(shifts, "MAX_BLOCKS", 4)
        assert len(build_higher_block(FULL2, 2).states) == 4
        with pytest.raises(TooLargeError):
            build_higher_block(FULL2, 3)
        with pytest.raises(TooLargeError):
            periodic_census(FULL2, 2, order=3)

    def test_refuses_before_listing(self, monkeypatch):
        # 2^23 blocks of length 23 under one forbidden word of length 24 are
        # counted as paths of the full shift and refused; only its two
        # one-letter blocks are ever listed
        listed = []

        def enumerate_and_record(s, length):
            listed.append(length)
            return enumerate_locally_allowed(s, length)

        monkeypatch.setattr(shifts, "enumerate_locally_allowed", enumerate_and_record)
        with pytest.raises(TooLargeError):
            build_higher_block(spec("01", "0" * 24), 23)
        assert listed == [1]

    def test_refusal_names_the_order_asked_for(self):
        # blocks of length 29 are counted over the 2^19 blocks of length 19
        # avoiding 0^20, which are too many to build
        with pytest.raises(TooLargeError, match="blocks of length 29 not counted"):
            build_higher_block(spec("01", "0" * 20, "1" * 30), 29)

    @pytest.mark.parametrize("s", SEEDED_SPECS[:16] + (FULL3, spec("abc", "abcabca", "bb")))
    def test_allowed_word_count_matches_enumeration(self, s):
        for length in range(8):
            count = sum(1 for _ in enumerate_locally_allowed(s, length))
            assert shifts.allowed_word_count(s, length) == count

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build_higher_block(spec("01", "000"), 1)

    def test_merged_words_allowed_and_states_in_language(self):
        for s in (GOLDEN, ANTI, CHECKER, spec("01", "010")):
            hb = build_higher_block(s, s.memory + 1)
            names = hb.states
            for src, dst, lab in hb.edges:
                u = names[src]
                v = names[dst]
                assert u[1:] == v[:-1]
                merged = Word(s.alphabet, u + v[-1:])
                assert is_locally_allowed(s, merged)
                assert lab == u[0]
            for name in essential_form(hb).states:
                assert language_member(s, Word(s.alphabet, name))


    @pytest.mark.parametrize(
        "s",
        SEEDED_SPECS
        + (
            FULL2,  # no forbidden word, memory 1
            spec("abc", "b"),  # single letters only
            spec("abc", "a", "c"),
            spec("abc", "aba", "abc"),  # the state ab bans two letters
            spec("abcd", "d", "ca", "abc", "bbb", "bba"),  # three lengths
        ),
    )
    def test_matches_two_pass_construction(self, s):
        # one enumeration plus the edge rule gives the same states and edges,
        # in the same order, as enumerating the merged words
        for order in range(s.memory, s.memory + 3):
            assert build_higher_block(s, order) == two_pass_higher_block(s, order)

    @pytest.mark.parametrize(
        "s", SEEDED_SPECS + tuple(multi_block_spec(random.Random(seed)) for seed in range(4))
    )
    def test_derived_graphs_pass_validation(self, s):
        for order in range(s.memory, s.memory + 3):
            block = build_higher_block(s, order)
            for g in (block, essential_form(block), presentation(s, order)):
                assert_valid_derived(g)

    @pytest.mark.skipif(
        sys.implementation.name != "cpython", reason="counts CPython's cyclic garbage"
    )
    def test_construction_leaves_no_reference_cycles(self):
        s = spec("abc", "ab", "cca")
        gc.collect()
        gc.disable()
        try:
            for n in range(6):
                list(enumerate_locally_allowed(s, n))
            build_higher_block(s, 3)
            # c has no successor, so every block ending in c is stranded
            block = build_higher_block(spec("abc", "ca", "cb", "cc"), 2)
            assert len(essential_form(block).states) < len(block.states)
            presentation(s, 4)
            build_image_presentation(identity_rule(s))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEmptiness:
    def test_everything_forbidden(self):
        assert is_empty(spec("01", "0", "1"))

    def test_golden_not_empty(self):
        assert not is_empty(GOLDEN)

    def test_full_not_empty(self):
        assert not is_empty(FULL2)

    def test_no_allowed_two_words(self):
        assert is_empty(spec("01", "00", "01", "10", "11"))


class TestLanguageMember:
    def test_examples(self):
        assert language_member(GOLDEN, w(BIN, "0101"))
        assert not language_member(GOLDEN, w(BIN, "11"))

    def test_locally_allowed_but_not_extendable(self):
        s = spec("ab", "aa", "ab", "ba")
        word = s.alphabet.parse_word("a")
        assert is_locally_allowed(s, word)
        assert not language_member(s, word)
        assert language_member(s, s.alphabet.parse_word("bbb"))

    def test_empty_word(self):
        assert language_member(FULL2, w(BIN, ""))
        assert not language_member(spec("01", "0", "1"), w(BIN, ""))

    def test_membership_implies_locally_allowed(self):
        for s in (GOLDEN, ANTI, CHECKER):
            for n in range(7):
                for bits in product(range(2), repeat=n):
                    word = Word(s.alphabet, bits)
                    if language_member(s, word):
                        assert is_locally_allowed(s, word)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            language_member(GOLDEN, FULL3.alphabet.parse_word("a"))

    @pytest.mark.parametrize(
        "s",
        SEEDED_SPECS
        # empty shifts, the second with locally allowed words
        + (spec("01", "0", "1"), spec("01", "00", "01", "11")),
    )
    def test_matches_nondeterministic_run(self, s):
        # membership steps one word's mask of states; the whole subset
        # construction and the NFA run are its oracles, the empty word too
        member = nfa_member(s)
        acceptor = factor_acceptor(s)
        longest = 6 if s.alphabet.size == 2 else 4
        for n in range(7):
            for idx in product(range(s.alphabet.size), repeat=n):
                word = Word(s.alphabet, idx)
                expected = member(word)
                assert (dfa_run(acceptor, idx) is not None) == expected, word
                if n <= longest:
                    assert language_member(s, word) == expected, word
        expected = [
            Word(s.alphabet, idx)
            for n in range(5)
            for idx in product(range(s.alphabet.size), repeat=n)
            if member(Word(s.alphabet, idx))
        ]
        assert words_of_language(s, 4) == expected


class TestIrreducibleMixing:
    def test_irreducible_examples(self):
        assert is_irreducible(GOLDEN)
        assert not is_irreducible(ANTI)
        assert is_irreducible(FULL2)

    def test_mixing_examples(self):
        assert is_mixing(GOLDEN)  # loop at 0 and 2-cycle give gcd 1
        assert not is_mixing(CHECKER)  # only the 2-cycle 0<->1, gcd 2
        assert is_mixing(FULL2)

    def test_reducible_is_not_mixing(self):
        assert not is_mixing(ANTI)  # two loops joined one way: two blocks

    def test_checkerboard_is_irreducible_not_mixing(self):
        assert is_irreducible(CHECKER)
        assert not is_mixing(CHECKER)

    def test_empty_shift_raises(self):
        empty = spec("01", "0", "1")
        for op in (is_irreducible, is_mixing, periodic_density):
            with pytest.raises(EmptyShiftError):
                op(empty)

    def test_mixing_against_cycle_length_oracle(self):
        # period = gcd of closed-path lengths up to the state count, read off
        # the traces of adjacency powers; simple cycles fit within n states
        specs = [GOLDEN, CHECKER, FULL2, spec("01", "010"), spec("abc", "ab"),
                 spec("01", "000", "11"), spec("abc", "aa", "bc")]
        for s in specs:
            graph = presentation(s)
            if not graph.states or len(scc_decomposition(graph)) != 1:
                continue
            n = len(graph.states)
            adjacency = [[0] * n for _ in range(n)]
            for src, dst, _ in graph.edges:
                adjacency[src][dst] += 1
            period = 0
            power = adjacency
            for length in range(1, n + 1):
                if sum(power[i][i] for i in range(n)) > 0:
                    period = gcd(period, length)
                power = [
                    [
                        sum(power[i][k] * adjacency[k][j] for k in range(n))
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
            assert is_mixing(s) == (period == 1)


class TestPeriodicCensus:
    def test_golden_mean_counts(self):
        census = periodic_census(GOLDEN, 4)
        assert list(census.p) == [1, 3, 4, 7]
        assert list(census.p) == census_oracle(GOLDEN, 4)

    def test_anti_golden_counts(self):
        census = periodic_census(ANTI, 3)
        assert list(census.p) == [2, 2, 2]

    def test_full_shift_counts(self):
        census = periodic_census(FULL2, 3)
        assert list(census.p) == [2, 4, 8]

    def test_oracle_agreement_small_family(self):
        specs = [
            GOLDEN,
            ANTI,
            CHECKER,
            FULL2,
            spec("01", "010"),
            spec("abc", "ab", "ba"),
            spec("abc", "aaa"),
        ]
        for s in specs:
            census = periodic_census(s, 10)
            assert list(census.p) == census_oracle(s, 10)

    def test_q_recursion_and_exact_periods(self):
        for s in (GOLDEN, FULL2, CHECKER):
            census = periodic_census(s, 8)
            for n in range(1, 9):
                divisor_sum = sum(census.q[d - 1] for d in range(1, n + 1) if n % d == 0)
                assert census.p[n - 1] == divisor_sum
                exact = [c for c in enumerate_periodic(s, n) if c.least_period == n]
                assert census.q[n - 1] == len(exact)

    def test_census_matches_enumeration_length(self):
        for s in (GOLDEN, ANTI, CHECKER):
            census = periodic_census(s, 6)
            for n in range(1, 7):
                assert census.p[n - 1] == len(enumerate_periodic(s, n))

    def test_higher_order_invariance(self):
        for s in (GOLDEN, ANTI, CHECKER):
            base = periodic_census(s, 6)
            again = periodic_census(s, 6, order=s.memory + 2)
            assert base.p == again.p and base.q == again.q

    def test_empty_shift_census_is_zero(self):
        census = periodic_census(spec("01", "0", "1"), 3)
        assert list(census.p) == [0, 0, 0]

    def test_bad_max_n(self):
        with pytest.raises(BadLengthError):
            periodic_census(GOLDEN, 0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("extra_order", (0, 2))
    def test_block_census_matches_dense_oracle(self, seed, extra_order):
        # several nontrivial blocks and trivial ones; at max_n past the
        # largest block m every block continues by Newton's identities
        s = multi_block_spec(random.Random(seed))
        order = s.memory + extra_order
        components = scc_decomposition(presentation(s, order))
        m = max(len(c.states) for c in components if not c.trivial)
        p, q = dense_census(s, 3 * m, order)
        for max_n in sorted({1, m - 1, m, m + 1, 3 * m} - {0}):
            census = periodic_census(s, max_n, order)
            assert list(census.p) == p[:max_n] and list(census.q) == q[:max_n]

    def test_long_censuses_by_recurrence(self):
        # golden mean: Lucas numbers; full shift on one state: 2^n
        lucas = [1, 3]
        while len(lucas) < 300:
            lucas.append(lucas[-1] + lucas[-2])
        assert list(periodic_census(GOLDEN, 300).p) == lucas
        assert list(periodic_census(FULL2, 300).p) == [2**n for n in range(1, 301)]

    @pytest.mark.parametrize("s", (GOLDEN, FULL2, CHECKER, spec("abc", "aaa")) + SEEDED_SPECS[:8])
    def test_sieve_q_matches_divisor_recursion(self, s):
        census = periodic_census(s, 60)
        assert list(census.q) == divisor_recursion_q(list(census.p))

    def test_max_n_one_counts_self_loops(self):
        # k = 1: no step is pushed, p_1 is the last-step sum alone
        for s in SEEDED_SPECS + tuple(multi_block_spec(random.Random(seed)) for seed in range(6)):
            assert list(periodic_census(s, 1).p) == dense_census(s, 1)[0]

    def test_single_cycle_block(self):
        # a -> b -> c -> a is the only cycle: out-degree 1, fields of 2 bits
        s = spec("abc", "aa", "ac", "ba", "bb", "cb", "cc")
        for max_n in (1, 2, 3, 4, 12):
            census = periodic_census(s, max_n)
            assert list(census.p) == [3 * (n % 3 == 0) for n in range(1, max_n + 1)]
            assert list(census.p) == dense_census(s, max_n)[0]

    def test_block_past_one_chunk_with_wide_fields(self):
        # 42 states of out-degree up to 7: at max_n >= 42 a field holds
        # 7^42 (119 bits), so the starts fill one chunk of 34 and part of
        # a second, and p_43, p_44 continue by Newton's identities
        letters = "abcdefg"
        pairs = [a + b for a in letters for b in letters]
        s = spec(letters, *random.Random(0).sample(pairs, 7))
        m = len(presentation(s, 2).states)
        chunk = shifts._PACKED_BITS // ((7**m).bit_length() + 1)
        assert m == 42 and 1 < chunk < m and m % chunk  # the case spans chunks
        p, q = dense_census(s, m + 2, 2)
        for max_n in (m, m + 2):
            census = periodic_census(s, max_n, order=2)
            assert list(census.p) == p[:max_n] and list(census.q) == q[:max_n]

    def test_large_block_without_a_long_run(self):
        # binary with 1^12 forbidden: one block of 2^11 states at order 11,
        # and for n <= 12 every cyclic word but 1^n is allowed
        s = spec("01", "1" * 12)
        assert len(presentation(s).states) == 2**11
        assert list(periodic_census(s, 12).p) == [2**n - 1 for n in range(1, 13)]

    def test_newton_division_asserts_exactness(self):
        # 1, 0 are not the power traces of any 2x2 integer matrix: 2 c_2 = 1
        with pytest.raises(AssertionError):
            shifts._continue_power_sums([1, 0], 3)


class TestEnumeratePeriodic:
    def test_golden_period_2(self):
        configs = enumerate_periodic(GOLDEN, 2)
        assert configs == [cfg(BIN, "0"), cfg(BIN, "01"), cfg(BIN, "10")]

    def test_anti_golden_only_constants(self):
        assert enumerate_periodic(ANTI, 5) == [cfg(BIN, "0"), cfg(BIN, "1")]

    def test_forbidden_zero(self):
        assert enumerate_periodic(spec("01", "0"), 1) == [cfg(BIN, "1")]

    def test_anchored_rotations_are_distinct(self):
        configs = enumerate_periodic(GOLDEN, 2)
        assert cfg(BIN, "01") in configs and cfg(BIN, "10") in configs
        assert cfg(BIN, "01") != cfg(BIN, "10")


class TestPeriodicDensity:
    def test_examples(self):
        assert periodic_density(GOLDEN)
        assert not periodic_density(ANTI)
        assert periodic_density(FULL2)

    def test_irreducible_implies_dense(self):
        specs = [GOLDEN, ANTI, CHECKER, FULL2, spec("01", "010"), spec("abc", "ab")]
        for s in specs:
            if is_irreducible(s):
                assert periodic_density(s)

    def test_density_invariant_under_higher_blocks(self):
        for s in (GOLDEN, ANTI, CHECKER, spec("01", "010")):
            graph_m = presentation(s, s.memory)
            graph_n = presentation(s, s.memory + 2)

            def dense(graph):
                comp = {}
                for ci, c in enumerate(scc_decomposition(graph)):
                    for q in c.states:
                        comp[q] = ci
                return all(comp[a] == comp[b] for a, b, _ in graph.edges)

            assert dense(graph_m) == dense(graph_n) == periodic_density(s)

    def test_density_witness_at_desk_scale(self):
        # every short language word occurs in some periodic configuration
        for s in (GOLDEN, CHECKER, FULL2):
            assert periodic_density(s)
            n_states = len(presentation(s).states)
            for word in words_of_language(s, 6):
                if len(word) == 0:
                    continue
                found = False
                for n in range(1, n_states + len(word) + 1):
                    for config in enumerate_periodic(s, n):
                        if word in cyclic_factors(config, len(word)):
                            found = True
                            break
                    if found:
                        break
                assert found, f"no periodic configuration contains {word!r}"


class TestSoficEqual:
    def test_identical(self):
        g = presentation(GOLDEN)
        assert sofic_equal(g, g) == (True, None)

    def test_golden_orders_1_and_2(self):
        g1 = build_higher_block(GOLDEN, 1)
        g2 = build_higher_block(GOLDEN, 2)
        assert sofic_equal(g1, g2) == (True, None)

    def test_memory_1_vs_memory_2_specs(self):
        golden_m2 = spec("01", "011", "110", "111")
        assert golden_m2.memory == 2
        g1 = presentation(GOLDEN)
        g2 = presentation(golden_m2)
        assert sofic_equal(g1, g2) == (True, None)

    def test_golden_vs_full(self):
        equal, ce = sofic_equal(presentation(GOLDEN), presentation(FULL2))
        assert not equal and ce.text() == "11"
        assert language_member(FULL2, ce) and not language_member(GOLDEN, ce)

    def test_agrees_with_word_enumeration(self):
        pairs = [
            (GOLDEN, spec("01", "011", "110", "111"), True),
            (GOLDEN, FULL2, False),
            (ANTI, GOLDEN, False),
        ]
        for s1, s2, expected in pairs:
            equal, _ = sofic_equal(presentation(s1), presentation(s2))
            assert equal == expected
            words1 = {x.indices for x in words_of_language(s1, 6)}
            words2 = {x.indices for x in words_of_language(s2, 6)}
            assert (words1 == words2) == expected


def random_presentation(rng: random.Random) -> LabeledGraph:
    """A seeded binary presentation with 1-4 states and each possible edge
    present with probability 0.3, so stranded states are common."""
    n = rng.randint(1, 4)
    edges = [
        (p, q, a) for p in range(n) for q in range(n) for a in range(2) if rng.random() < 0.3
    ]
    return LabeledGraph(tuple(f"s{i}" for i in range(n)), tuple(edges), BIN)


def with_stranded_state(g: LabeledGraph, rng: random.Random) -> LabeledGraph:
    """``g`` plus one state with edges into ``g`` only, so it is never entered."""
    n = len(g.states)
    extra = tuple((n, q, rng.randrange(2)) for q in range(n) if rng.random() < 0.5)
    return LabeledGraph(g.states + ("new",), g.edges + extra, BIN)


def brute_member(g: LabeledGraph, word) -> bool:
    """True iff ``word`` labels the middle of some path of ``g`` with
    len(word) + 2n edges, n the number of states: a path of n edges repeats
    a state, so both ends of such a path extend to a bi-infinite path."""
    n = len(g.states)
    entered = set(range(n))  # where a path of i edges can end
    left = set(range(n))  # where a path of i edges can start
    for _ in range(n):
        entered = {d for s, d, _ in g.edges if s in entered}
        left = {s for s, d, _ in g.edges if d in left}
    for a in word:
        entered = {d for s, d, lab in g.edges if s in entered and lab == a}
    return bool(entered & left)


def test_sofic_equal_against_brute_force():
    """Words of length 0 are left out: every acceptor accepts the empty
    word, so the empty shift and a nonempty one differ first at length 1."""
    rng = random.Random(12)
    verdicts = Counter()
    stranded = 0
    for i in range(400):
        g1 = random_presentation(rng)
        g2 = random_presentation(rng) if i % 2 else with_stranded_state(g1, rng)
        stranded += any(
            not any(s == q for s, _, _ in g.edges) or not any(d == q for _, d, _ in g.edges)
            for g in (g1, g2)
            for q in range(len(g.states))
        )
        equal, witness = sofic_equal(g1, g2)
        verdicts[equal] += 1
        longest = 5 if equal else len(witness) - 1
        for n in range(1, longest + 1):
            for x in product(range(2), repeat=n):
                assert brute_member(g1, x) == brute_member(g2, x), (i, x)
        if not equal:
            assert brute_member(g1, witness.indices) != brute_member(g2, witness.indices), i
    assert verdicts[True] > 50 and verdicts[False] > 50 and stranded > 100


class TestPasting:
    def test_examples(self):
        assert pasting_check(GOLDEN, w(BIN, "0"), w(BIN, "0"), w(BIN, "1"))
        assert pasting_check(GOLDEN, w(BIN, "1"), w(BIN, "0"), w(BIN, "1"))
        assert pasting_check(FULL2, w(BIN, "11"), w(BIN, "0"), w(BIN, "11"))

    def test_overlap_too_short(self):
        s = spec("01", "000")
        with pytest.raises(OverlapTooShortError):
            pasting_check(s, w(BIN, "0"), w(BIN, "1"), w(BIN, "0"))

    def test_pasting_property_randomized(self):
        rng = random.Random(99)
        specs = [GOLDEN, ANTI, CHECKER, spec("01", "010"), spec("01", "000", "11")]
        for s in specs:
            m = s.memory
            for _ in range(100):
                u = Word(s.alphabet, tuple(rng.randrange(2) for _ in range(rng.randrange(4))))
                v = Word(s.alphabet, tuple(rng.randrange(2) for _ in range(rng.randrange(m, m + 3))))
                x = Word(s.alphabet, tuple(rng.randrange(2) for _ in range(rng.randrange(4))))
                if language_member(s, u + v) and language_member(s, v + x):
                    assert pasting_check(s, u, v, x)


class TestFactorAcceptor:
    def test_counts_words(self):
        d = factor_acceptor(GOLDEN)
        assert dfa_accepts(d, w(BIN, "0101")) and not dfa_accepts(d, w(BIN, "110"))
