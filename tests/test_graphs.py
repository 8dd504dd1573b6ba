import random
from collections import Counter
from itertools import product

import pytest

from helpers import (
    ABC,
    BIN,
    assert_valid_derived,
    dfa_accepts,
    dfa_run,
    fixed_point_essential_form,
    named_product_automaton,
    reference_amalgamate,
    reference_divergence,
    reference_subset_rows,
    seeded_de_bruijn,
)
from symshift import graphs, localmaps, shifts
from symshift.core import Alphabet, SftSpec, Word
from symshift.errors import AlphabetMismatchError, FormatError, TooLargeError, UnlabeledError
from symshift.graphs import (
    LabeledGraph,
    determinize_factor_acceptor,
    dfa_language_equal,
    dfa_language_subset,
    essential_form,
    format_presentation,
    has_biinfinite_path,
    parse_presentation,
    product_automaton,
    scc_decomposition,
)


def unlabeled(names, pairs):
    names = tuple(names)
    return LabeledGraph(names, tuple((names.index(s), names.index(d), None) for s, d in pairs))


def labeled(names, triples, alphabet=BIN):
    names = tuple(names)
    return LabeledGraph(
        names,
        tuple(
            (names.index(s), names.index(d), alphabet.index(l)) for s, d, l in triples
        ),
        alphabet,
    )


# golden-mean presentation labeled by target letter: 0->0 "0", 0->1 "1", 1->0 "0"
GOLDEN_PRES = labeled("01", [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "0")])
# the same shift labeled by source letter: 0->0 "0", 0->1 "0", 1->0 "1"
GOLDEN_PRES_SRC = labeled("01", [("0", "0", "0"), ("0", "1", "0"), ("1", "0", "1")])
FULL_PRES = labeled("q", [("q", "q", "0"), ("q", "q", "1")])


def adjacency(g):
    n = len(g.states)
    m = [[0] * n for _ in range(n)]
    for s, d, _ in g.edges:
        m[s][d] += 1
    return m


def mat_mult(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def closed_path_counts(g, up_to):
    """Trace of adjacency powers = number of closed paths per length."""
    a = adjacency(g)
    counts = []
    power = a
    for _ in range(up_to):
        counts.append(sum(power[i][i] for i in range(len(a))))
        power = mat_mult(power, a)
    return counts


def all_three_state_graphs():
    for bits in product((0, 1), repeat=9):
        pairs = [(i, j) for i in range(3) for j in range(3) if bits[3 * i + j]]
        yield LabeledGraph(("a", "b", "c"), tuple((i, j, None) for i, j in pairs))


class TestEssentialForm:
    def test_acyclic_chain_becomes_empty(self):
        g = unlabeled("abc", [("a", "b"), ("b", "c")])
        assert essential_form(g).states == ()

    def test_self_loop_unchanged(self):
        g = unlabeled("a", [("a", "a")])
        assert essential_form(g) == g

    def test_pendant_edge_removed(self):
        # c has no outgoing edge; removing it strands nothing else
        g = unlabeled("abc", [("a", "b"), ("b", "a"), ("b", "c")])
        t = essential_form(g)
        assert t.states == ("a", "b")
        assert set(t.edges) == {(0, 1, None), (1, 0, None)}

    def test_idempotent_monotone_and_cycle_preserving(self):
        for g in all_three_state_graphs():
            t = essential_form(g)
            assert essential_form(t) == t
            assert set(t.states) <= set(g.states)
            kept = {g.states.index(s) for s in t.states}
            assert all(
                (s, d, None) in g.edges for s, d, _ in
                ((g.states.index(t.states[a]), g.states.index(t.states[b]), None) for a, b, _ in t.edges)
            )
            assert closed_path_counts(g, 8) == closed_path_counts(t, 8)
            assert kept <= set(range(3))

    def test_four_state_random_graphs_preserve_closed_paths(self):
        rng = random.Random(7)
        for _ in range(60):
            edges = []
            for i in range(4):
                for j in range(4):
                    for _ in range(rng.randrange(3)):
                        edges.append((i, j, None))
            g = LabeledGraph(("a", "b", "c", "d"), tuple(edges))
            assert closed_path_counts(g, 8) == closed_path_counts(essential_form(g), 8)


def assert_components_match_closure(g):
    """The components are the classes of mutual reachability, read off a
    transitive closure (Warshall, on bit masks); members are sorted; a
    component is trivial iff it is one state without a self-loop; and every
    edge between two components runs from a later-listed one to an
    earlier-listed one."""
    n = len(g.states)
    reach = [1 << v for v in range(n)]
    for src, dst, _ in g.edges:
        reach[src] |= 1 << dst
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    classes = {
        tuple(j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1) for i in range(n)
    }
    comps = scc_decomposition(g)
    assert len(comps) == len(classes) and {c.states for c in comps} == classes
    position = {}
    for k, c in enumerate(comps):
        assert list(c.states) == sorted(c.states)
        loop = (c.states[0], c.states[0], None) in g.edges
        assert c.trivial == (len(c.states) == 1 and not loop)
        position.update((v, k) for v in c.states)
    for src, dst, _ in g.edges:
        assert position[src] >= position[dst]


class TestScc:
    def test_two_cycle_is_one_component(self):
        g = unlabeled("ab", [("a", "b"), ("b", "a")])
        comps = scc_decomposition(g)
        assert len(comps) == 1 and comps[0].states == (0, 1) and not comps[0].trivial

    def test_single_edge_gives_trivial_components(self):
        g = unlabeled("ab", [("a", "b")])
        comps = scc_decomposition(g)
        assert sorted(c.states for c in comps) == [(0,), (1,)]
        assert all(c.trivial for c in comps)

    def test_two_loops_joined(self):
        g = unlabeled("ab", [("a", "a"), ("b", "b"), ("a", "b")])
        comps = scc_decomposition(g)
        assert sorted(c.states for c in comps) == [(0,), (1,)]
        assert all(not c.trivial for c in comps)

    def test_partition(self):
        for g in all_three_state_graphs():
            comps = scc_decomposition(g)
            seen = [s for c in comps for s in c.states]
            assert sorted(seen) == [0, 1, 2]

    def test_all_three_state_graphs_against_closure_oracle(self):
        for g in all_three_state_graphs():
            assert_components_match_closure(g)

    def test_random_graphs_against_closure_oracle(self):
        # 1-9 states, self-loops and parallel edges allowed
        rng = random.Random(24)
        for _ in range(1500):
            n = rng.randint(1, 9)
            edges = [(rng.randrange(n), rng.randrange(n), None) for _ in range(rng.randint(0, 3 * n))]
            edges += rng.sample(edges, rng.randint(0, min(3, len(edges))))
            rng.shuffle(edges)
            assert_components_match_closure(LabeledGraph(tuple(range(n)), tuple(edges)))

    def test_long_cycle_is_one_component(self):
        n = 100_000
        g = LabeledGraph(tuple(range(n)), tuple((i, (i + 1) % n, None) for i in range(n)))
        assert scc_decomposition(g) == ((tuple(range(n)), False),)

    def test_long_path_is_all_trivial_in_completion_order(self):
        n = 100_000
        g = LabeledGraph(tuple(range(n)), tuple((i, i + 1, None) for i in range(n - 1)))
        assert scc_decomposition(g) == tuple(((i,), True) for i in reversed(range(n)))


class TestBiinfinitePath:
    def test_examples(self):
        assert has_biinfinite_path(unlabeled("a", [("a", "a")]))
        assert not has_biinfinite_path(unlabeled("abc", [("a", "b"), ("b", "c")]))
        assert has_biinfinite_path(
            unlabeled("01", [("0", "0"), ("0", "1"), ("1", "0")])
        )

    def test_agrees_with_nontrivial_scc(self):
        for g in all_three_state_graphs():
            by_trimming = has_biinfinite_path(g)
            by_scc = any(not c.trivial for c in scc_decomposition(g))
            assert by_trimming == by_scc


def path_language(g, max_len):
    """Label words of finite paths, by breadth-first path extension."""
    words = {()}
    frontier = {(q, ()) for q in range(len(g.states))}
    for _ in range(max_len):
        nxt = set()
        for q, word in frontier:
            for src, dst, lab in g.edges:
                if src == q:
                    nxt.add((dst, word + (lab,)))
        frontier = nxt
        words |= {w for _, w in frontier}
    return words


def dfa_language(d, max_len):
    k = d.alphabet.size
    out = set()
    for n in range(max_len + 1):
        for idx in product(range(k), repeat=n):
            if len(idx) == 0 or dfa_run(d, idx) is not None:
                out.add(idx)
    return out


class TestDeterminize:
    def test_full_shift_single_state(self):
        d = determinize_factor_acceptor(FULL_PRES)
        assert d.n_states == 1
        assert d.transitions == ((0, 0),)

    def test_golden_mean_rejects_11(self):
        d = determinize_factor_acceptor(GOLDEN_PRES)
        # subsets reachable from {0,1}: on "0" -> {0}, on "1" -> {1}; from
        # {0}: on "0" -> {0}, on "1" -> {1}; from {1}: on "0" -> {0}, "1" dead
        assert d.n_states == 3
        assert not dfa_accepts(d, BIN.parse_word("11"))
        assert dfa_accepts(d, BIN.parse_word("0101"))
        assert dfa_accepts(d, BIN.parse_word("10"))

    def test_empty_graph_accepts_only_empty_word(self):
        d = determinize_factor_acceptor(LabeledGraph((), (), BIN))
        assert dfa_accepts(d, BIN.parse_word(""))
        assert not dfa_accepts(d, BIN.parse_word("0"))

    def test_unlabeled_rejected(self):
        with pytest.raises(UnlabeledError):
            determinize_factor_acceptor(unlabeled("a", [("a", "a")]))

    def test_language_agreement_with_path_search(self):
        rng = random.Random(11)
        cases = [GOLDEN_PRES, GOLDEN_PRES_SRC, FULL_PRES]
        abc = Alphabet(("a", "b", "c"))
        for _ in range(40):
            n = rng.randrange(1, 4)
            edges = []
            for _ in range(rng.randrange(1, 7)):
                edges.append((rng.randrange(n), rng.randrange(n), rng.randrange(3)))
            cases.append(
                LabeledGraph(tuple(f"s{i}" for i in range(n)), tuple(edges), abc)
            )
        for g in cases:
            d = determinize_factor_acceptor(g)
            assert dfa_language(d, 6) == path_language(g, 6)


class TestDfaEquality:
    def test_reflexive(self):
        for g in (GOLDEN_PRES, GOLDEN_PRES_SRC, FULL_PRES):
            assert dfa_language_equal(g, g) == (True, None)

    def test_full_vs_golden_counterexample(self):
        equal, ce = dfa_language_equal(FULL_PRES, GOLDEN_PRES)
        assert not equal
        assert ce.text() == "11"
        # the witness is accepted by exactly one side
        d_full = determinize_factor_acceptor(FULL_PRES)
        d_gold = determinize_factor_acceptor(GOLDEN_PRES)
        assert dfa_accepts(d_full, ce) and not dfa_accepts(d_gold, ce)

    def test_two_golden_presentations_agree(self):
        assert dfa_language_equal(GOLDEN_PRES, GOLDEN_PRES_SRC) == (True, None)

    def test_subset_direction(self):
        assert dfa_language_subset(GOLDEN_PRES, FULL_PRES) == (True, None)
        ok, witness = dfa_language_subset(FULL_PRES, GOLDEN_PRES)
        assert not ok and witness.text() == "11"

    def test_empty_acceptor_comparisons(self):
        empty = LabeledGraph((), (), BIN)
        assert dfa_language_equal(empty, empty) == (True, None)
        equal, ce = dfa_language_equal(empty, FULL_PRES)
        assert not equal and len(ce) == 1

    def test_alphabet_mismatch(self):
        abc = Alphabet(("a", "b", "c"))
        other = LabeledGraph(("q",), ((0, 0, 0),), abc)
        with pytest.raises(AlphabetMismatchError):
            dfa_language_equal(other, FULL_PRES)

    def test_counterexample_is_shortest_on_random_pairs(self):
        rng = random.Random(23)
        abc = Alphabet(("a", "b", "c"))
        pool = []
        for _ in range(30):
            n = rng.randrange(1, 4)
            edges = tuple(
                (rng.randrange(n), rng.randrange(n), rng.randrange(3))
                for _ in range(rng.randrange(1, 7))
            )
            pool.append(LabeledGraph(tuple(f"s{i}" for i in range(n)), edges, abc))
        for i in range(0, len(pool) - 1, 2):
            g1, g2 = pool[i], pool[i + 1]
            equal, ce = dfa_language_equal(g1, g2)
            if equal:
                assert ce is None
                continue
            d1, d2 = determinize_factor_acceptor(g1), determinize_factor_acceptor(g2)
            assert len(ce) <= max(d1.n_states, 1) * max(d2.n_states, 1) + 1
            assert dfa_accepts(d1, ce) != dfa_accepts(d2, ce)
            for n in range(1, len(ce)):
                for bits in product(range(3), repeat=n):
                    shorter = Word(abc, bits)
                    assert dfa_accepts(d1, shorter) == dfa_accepts(d2, shorter)

    def test_equivalence_relation_on_family(self):
        gs = (GOLDEN_PRES, GOLDEN_PRES_SRC, FULL_PRES)
        for g1 in gs:
            for g2 in gs:
                eq12 = dfa_language_equal(g1, g2)[0]
                assert eq12 == dfa_language_equal(g2, g1)[0]
                for g3 in gs:
                    if eq12 and dfa_language_equal(g2, g3)[0]:
                        assert dfa_language_equal(g1, g3)[0]


class TestSearchOnDemand:
    """The containment and equality checks on labeled graphs, which
    determinize only the subsets their search visits, against the full
    subset construction of both followed by the reference search over pairs
    of ``Dfa`` states (tests/helpers.py)."""

    @staticmethod
    def graph_pairs(count, seed):
        rng = random.Random(seed)
        alphabets = (BIN, Alphabet(("a", "b", "c")))
        pairs = []
        for i in range(count):
            alphabet = alphabets[i % 2]
            n = rng.randrange(1, 7)
            edges = [
                (rng.randrange(n), rng.randrange(n), rng.randrange(alphabet.size))
                for _ in range(rng.randrange(1, 3 * n + 1))
            ]
            g = LabeledGraph(tuple(range(n)), edges, alphabet)
            if i % 3 == 0:
                # the same graph with its states permuted and a stranded
                # state added: same language, so the search runs to the end
                perm = rng.sample(range(n), n)
                moved = [(perm[s], perm[d], lab) for s, d, lab in edges]
                moved.append((n, perm[0], rng.randrange(alphabet.size)))
                other = LabeledGraph(tuple(range(n + 1)), moved, alphabet)
            elif i % 3 == 1:
                other = LabeledGraph((), (), alphabet)
            else:
                m = rng.randrange(1, 7)
                other = LabeledGraph(
                    tuple(range(m)),
                    [
                        (rng.randrange(m), rng.randrange(m), rng.randrange(alphabet.size))
                        for _ in range(rng.randrange(1, 3 * m + 1))
                    ],
                    alphabet,
                )
            pairs.append((g, other))
        return pairs

    def test_matches_full_subset_construction(self):
        verdicts = Counter()
        for g1, g2 in self.graph_pairs(240, 29):
            d1, d2 = determinize_factor_acceptor(g1), determinize_factor_acceptor(g2)
            for check, want_side2 in ((dfa_language_subset, False), (dfa_language_equal, True)):
                for a1, a2, b1, b2 in ((g1, g2, d1, d2), (g2, g1, d2, d1)):
                    want = reference_divergence(b1, b2, True, want_side2)
                    assert check(a1, a2) == (want is None, want)
                    verdicts[check.__name__, want is None] += 1
        # every check reaches both verdicts many times
        assert min(verdicts.values()) >= 40 and len(verdicts) == 4

    def test_graph_sides_are_checked(self):
        with pytest.raises(UnlabeledError):
            dfa_language_subset(unlabeled("a", [("a", "a")]), FULL_PRES)
        abc = Alphabet(("a", "b", "c"))
        with pytest.raises(AlphabetMismatchError):
            dfa_language_equal(LabeledGraph(("q",), ((0, 0, 0),), abc), FULL_PRES)


class TestTwoEndedSearch:
    """The level-by-level subset construction and the divergence search,
    forward alone and from both ends, against references that take one
    subset and one pair at a time (tests/helpers.py)."""

    @staticmethod
    def random_labeled(rng, alphabet, n):
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(alphabet.size))
            for _ in range(rng.randrange(0, 3 * n + 1) if n else 0)
        ]
        return LabeledGraph(tuple(range(n)), edges, alphabet)

    def test_subset_construction_matches_reference(self):
        rng = random.Random(41)
        for i in range(300):
            g = self.random_labeled(rng, (BIN, ABC)[i % 2], rng.randrange(0, 13))
            d = determinize_factor_acceptor(g)
            assert d.transitions == reference_subset_rows(g)
            assert d.initial == (0 if g.states else None)

    @pytest.mark.parametrize("width", [0, 1, 16])
    def test_divergence_matches_reference(self, monkeypatch, width):
        # width 0 pairs the two ends from the first round, 1 after one
        # forward level; at the default 16 graphs this small are searched
        # forward alone
        monkeypatch.setattr(graphs, "_ONE_ENDED_WIDTH", width)
        rng = random.Random(43 + width)
        verdicts = Counter()
        for i in range(200):
            alphabet = (BIN, ABC)[i % 2]
            g1 = self.random_labeled(rng, alphabet, rng.randrange(0, 9))
            g2 = self.random_labeled(rng, alphabet, rng.randrange(0, 9))
            d1, d2 = determinize_factor_acceptor(g1), determinize_factor_acceptor(g2)
            for a1, a2, b1, b2 in ((g1, g2, d1, d2), (g2, g1, d2, d1)):
                want = reference_divergence(b1, b2, True, False)
                assert dfa_language_subset(a1, a2) == (want is None, want)
                verdicts["subset", want is None] += 1
                want = reference_divergence(b1, b2, True, True)
                assert dfa_language_equal(a1, a2) == (want is None, want)
                verdicts["equal", want is None] += 1
        assert len(verdicts) == 4 and min(verdicts.values()) >= 20

    def test_wide_levels_meet_from_both_ends(self, monkeypatch):
        # the forward levels of seeded de Bruijn graphs outgrow the
        # one-ended width well before the shortest word outside them
        meetings = Counter()
        first_meeting = graphs._first_meeting

        def counted(*args):
            meetings["calls"] += 1
            return first_meeting(*args)

        monkeypatch.setattr(graphs, "_first_meeting", counted)
        full = determinize_factor_acceptor(FULL_PRES)
        rng = random.Random(47)
        for _ in range(6):
            g = seeded_de_bruijn(rng.getrandbits(64))
            want = reference_divergence(full, determinize_factor_acceptor(g), True, False)
            assert want is not None
            assert dfa_language_subset(FULL_PRES, g) == (False, want)
            assert dfa_language_equal(g, FULL_PRES) == (False, want)
        assert meetings["calls"] >= 12

    def test_search_refused_past_its_budget(self, monkeypatch):
        # at budget 0 the first meeting of two nonempty levels is refused
        g = seeded_de_bruijn(random.Random(47).getrandbits(64))
        assert dfa_language_subset(FULL_PRES, g)[0] is False
        monkeypatch.setattr(graphs, "_MAX_MASK_PAIRS", 0)
        questions = (
            lambda: dfa_language_subset(FULL_PRES, g),
            lambda: dfa_language_equal(g, FULL_PRES),
            lambda: shifts.sofic_equal(FULL_PRES, g),
        )
        for question in questions:
            with pytest.raises(TooLargeError, match="more than 0 masks") as e:
                question()
            assert e.value.code == "E_TOO_LARGE"
            assert "1 and 64 states" in str(e.value) or "64 and 1 states" in str(e.value)
        # a search that ends before its first meeting is answered
        assert dfa_language_equal(FULL_PRES, FULL_PRES) == (True, None)


def random_graph(rng, n, m, labeled=True):
    names = tuple(f"s{i}" for i in range(n))
    edges = [
        (rng.randrange(n), rng.randrange(n), rng.randrange(2) if labeled else None)
        for _ in range(m)
    ]
    return LabeledGraph(names, edges, BIN if labeled else None)


class TestWorklistEssentialForm:
    """The worklist trimming against the fixed-point loop it replaced
    (tests/helpers.py): same states in the same order, same edges in the
    same order."""

    def test_matches_fixed_point_on_random_graphs(self):
        rng = random.Random(2)
        for _ in range(400):
            n = rng.randrange(0, 30)
            m = rng.randrange(0, 3 * n + 1) if n else 0
            g = random_graph(rng, n, m, labeled=rng.random() < 0.5)
            got, want = essential_form(g), fixed_point_essential_form(g)
            assert got.states == want.states
            assert got.edges == want.edges

    def test_long_chains_need_many_rounds(self):
        # a 3-cycle with a chain feeding into it, a chain draining out of
        # it and a chain with neither end on it; the fixed point strips one
        # state per chain and round, in shuffled state order
        rng = random.Random(3)
        for length in (1, 2, 40, 300):
            names = [f"c{i}" for i in range(3)]
            names += [f"{kind}{i}" for kind in "iod" for i in range(length)]
            rng.shuffle(names)
            at = {name: i for i, name in enumerate(names)}
            pairs = [("c0", "c1"), ("c1", "c2"), ("c2", "c0")]
            for kind in "iod":
                pairs += [(f"{kind}{i}", f"{kind}{i + 1}") for i in range(length - 1)]
            pairs += [(f"i{length - 1}", "c0"), ("c2", "o0")]
            rng.shuffle(pairs)
            g = LabeledGraph(
                tuple(names), [(at[a], at[b], rng.randrange(2)) for a, b in pairs], BIN
            )
            got, want = essential_form(g), fixed_point_essential_form(g)
            assert got.states == want.states
            assert got.edges == want.edges
            assert sorted(got.states) == ["c0", "c1", "c2"]

    def test_nothing_stranded_returns_the_graph(self):
        assert essential_form(GOLDEN_PRES) is GOLDEN_PRES


def labeled_closed_paths(g, length):
    """Closed paths of one length, counted per label word read from their
    start: the periodic points of the labeled edge shift, which every
    conjugacy through which the labels factor keeps."""
    out = [[] for _ in g.states]
    for src, dst, lab in g.edges:
        out[src].append((dst, lab))
    counts = Counter()
    for start in range(len(g.states)):
        stack = [(start, ())]
        while stack:
            q, word = stack.pop()
            if len(word) == length:
                counts[word] += q == start
                continue
            stack += [(dst, word + (lab,)) for dst, lab in out[q]]
    return +counts


def amalgamated(g):
    """``graphs._amalgamate`` on the graph's edges as three lists, and the
    graph it returns, built as ``localmaps._shrunk_image`` builds it."""
    columns = [[e[i] for e in g.edges] for i in range(3)]
    states, src, dst, lab = graphs._amalgamate(g.states, *columns, g.alphabet.size)
    return LabeledGraph._built(states, list(zip(src, dst, lab)), g.alphabet)


class TestAmalgamate:
    def test_merged_multiplicities_are_kept(self):
        # A and B have one in-edge each, from C on b, but A has two a-edges
        # to C and B one: merged, they keep all three
        edges = [("A", "C", "0")] * 2 + [("B", "C", "0"), ("C", "A", "1"), ("C", "B", "1")]
        g = labeled("ABC", edges)
        got = amalgamated(g)
        assert got.states == ("A", "C")
        assert got.edges == ((0, 1, 0),) * 3 + ((1, 0, 1),)
        assert_valid_derived(got)

    @staticmethod
    def random_essential_graphs():
        # edges sorted by (source, target, label), which lists the edges of
        # states with the same labeled edges in one order, as the passes
        # before the first merge need
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 7)
            g = essential_form(random_graph(rng, n, rng.randrange(n, 3 * n + 1)))
            yield LabeledGraph(g.states, sorted(g.edges), g.alphabet)

    @staticmethod
    def rule_images():
        # image presentations of local rules, built from higher-block
        # graphs, merge far more often than random graphs
        full2 = SftSpec(BIN, ())
        rules = list(localmaps.enumerate_rules(full2, 1))
        rng = random.Random(6)
        windows = list(product(range(2), repeat=5))
        rules += [
            localmaps.LocalRule(full2, 2, {w: rng.randrange(2) for w in windows}) for _ in range(40)
        ]
        return [localmaps.build_image_presentation(rule).graph for rule in rules]

    @pytest.mark.parametrize(
        "family,least", [("random_essential_graphs", 10), ("rule_images", 150)]
    )
    def test_keeps_periodic_points_and_language(self, family, least):
        # and merges what the graph-at-a-time passes merged, into the same
        # states and edges in the same order
        merged = 0
        for g in getattr(self, family)():
            got = amalgamated(g)
            merged += len(got.states) < len(g.states)
            for length in range(1, 6):
                assert labeled_closed_paths(got, length) == labeled_closed_paths(g, length)
            assert path_language(got, 5) == path_language(g, 5)
            assert essential_form(got) is got
            assert_valid_derived(got)
            oracle = reference_amalgamate(g)
            assert (got.states, got.edges) == (oracle.states, oracle.edges)
        assert merged >= least

    def test_keys_are_sorted_after_a_merge(self):
        # D and E merge on their in-edges, and D keeps its own 0-edge to B
        # and then E's 1-edge to A, listed out of order: only its sorted key
        # shows that D now has the out-edges of A, and merges into it
        edges = [("A", "A", "1"), ("A", "B", "0"), ("B", "D", "1"), ("B", "E", "1")]
        edges += [("D", "B", "0"), ("E", "A", "1")]
        g = labeled("ABDE", edges)
        got = amalgamated(g)
        assert got.states == ("A", "B")
        assert got == reference_amalgamate(g)

    @pytest.mark.parametrize("g", [GOLDEN_PRES, GOLDEN_PRES_SRC, FULL_PRES])
    def test_nothing_merges_returns_the_graph(self, g):
        # the very lists it was given, not copies
        columns = [[e[i] for e in g.edges] for i in range(3)]
        got = graphs._amalgamate(g.states, *columns, g.alphabet.size)
        assert all(a is b for a, b in zip(got, [g.states, *columns]))


class TestProductAutomaton:
    def test_full_shift_product(self):
        p = product_automaton(FULL_PRES)
        assert p.states == (0,)
        assert sorted(p.edges) == [(0, 0, 0), (0, 0, 1)]
        assert [divmod(code, 1) for code in p.states] == [(0, 0)]

    def test_shared_label_creates_offdiagonal_state(self):
        g = labeled("pqr", [("p", "q", "0"), ("p", "r", "0")])
        p = product_automaton(g)
        # the pair (q,r) of the three-state graph has code 1*3 + 2
        assert p.states == tuple(range(9))
        assert (0, 5) in {(p.states[s], p.states[d]) for s, d, _ in p.edges}

    def test_golden_product_trims_to_diagonal(self):
        p = product_automaton(GOLDEN_PRES)
        assert len(p.states) == 4
        t = essential_form(p)
        assert set(t.states) == {0, 3}
        assert {divmod(code, 2) for code in t.states} == {(0, 0), (1, 1)}

    def test_label_projection_on_periodic_paths(self):
        # every closed product path projects to two closed paths of the base
        # graph with the same label word
        g = GOLDEN_PRES
        p = product_automaton(g)
        base_paths = path_language(g, 5)
        n = len(g.states)
        for s, d, lab in p.edges:
            p1, q1 = divmod(s, n)
            p2, q2 = divmod(d, n)
            assert (p1, p2, lab) in {(a, b, l) for a, b, l in g.edges}
            assert (q1, q2, lab) in {(a, b, l) for a, b, l in g.edges}
        assert path_language(p, 5) <= base_paths

    def test_unlabeled_rejected(self):
        with pytest.raises(UnlabeledError):
            product_automaton(unlabeled("a", [("a", "a")]))

    def test_codes_match_named_construction(self):
        rng = random.Random(4)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 8), rng.randrange(0, 16))
            n = len(g.states)
            coded = product_automaton(g)
            named, diagonal = named_product_automaton(g)
            assert coded.edges == named.edges
            for code in coded.states:
                p, q = divmod(code, n)
                assert named.states[code] == f"({g.states[p]},{g.states[q]})"
            trimmed = essential_form(coded)
            assert [named.states[c] for c in trimmed.states] == list(
                fixed_point_essential_form(named).states
            )
            assert {c for c in trimmed.states if c % (n + 1) == 0} == {
                i for i, name in enumerate(named.states) if name in diagonal
            } & set(trimmed.states)


class TestPresentationFormat:
    def test_round_trip(self):
        text = format_presentation(GOLDEN_PRES)
        g = parse_presentation(text)
        assert g == GOLDEN_PRES

    def test_unlabeled_round_trip(self):
        g = unlabeled("ab", [("a", "b"), ("b", "a")])
        assert parse_presentation(format_presentation(g)) == g

    @staticmethod
    def saved_and_loaded(g, tmp_path):
        path = tmp_path / "g.pres"
        graphs.save_presentation(g, path)
        return graphs.load_presentation(path)

    def test_int_names_load_back_as_strings(self, tmp_path):
        # a pair automaton names its states by their pair codes
        g = product_automaton(GOLDEN_PRES)
        assert g.states == (0, 1, 2, 3)
        loaded = self.saved_and_loaded(g, tmp_path)
        assert loaded.states == ("0", "1", "2", "3")
        assert (loaded.edges, loaded.alphabet) == (g.edges, g.alphabet)

    def test_unlabeled_tuple_names_load_back(self, tmp_path):
        g = LabeledGraph(((0, 1), (1, 0)), [(0, 1, None), (1, 0, None)])
        loaded = self.saved_and_loaded(g, tmp_path)
        assert loaded.states == ("(0, 1)", "(1, 0)")
        assert loaded.edges == g.edges and loaded.alphabet is None

    def test_word_names_load_back_as_their_text(self, tmp_path):
        g = shifts.presentation(SftSpec(ABC, ()), 2)
        loaded = self.saved_and_loaded(g, tmp_path)
        assert loaded.states == tuple(Word(ABC, s).text() for s in g.states)
        assert loaded.states[:2] == ("aa", "ab") and loaded.edges == g.edges

    @pytest.mark.parametrize(
        "names", [("01", (0, 1)), (1, "1"), ((0,), "0")], ids=["word", "int", "letter"]
    )
    def test_names_written_alike_are_refused(self, names, tmp_path):
        g = LabeledGraph(names, [(0, 1, 0), (1, 0, 1)], BIN)
        with pytest.raises(ValueError, match="two states would both be written as"):
            graphs.save_presentation(g, tmp_path / "g.pres")
        assert not (tmp_path / "g.pres").exists()

    def test_field_order_is_insignificant(self):
        text = """
        {"edges": [{"to": "q", "from": "q", "label": "0"}],
         "alphabet": ["0", "1"], "states": ["q"]}
        """
        g = parse_presentation(text)
        assert g.edges == ((0, 0, 0),)

    @pytest.mark.parametrize(
        "text",
        [
            '{"states": 5}',
            '{"states": ["a"], "alphabet": 5}',
            '{"states": ["a"], "alphabet": [1, 2]}',
            '{"states": ["a"], "edges": 7}',
            '{"states": ["a"], "edges": [{"from": ["a"], "to": "a"}]}',
            '{"states": ["a"], "alphabet": ["0", "1"],'
            ' "edges": [{"from": "a", "to": "a", "label": ["0"]}]}',
        ],
    )
    def test_wrongly_typed_fields(self, text):
        with pytest.raises(FormatError):
            parse_presentation(text)

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_presentation("{}")
        with pytest.raises(FormatError):
            parse_presentation('{"states": ["a"], "edges": [{"from": "a", "to": "b"}]}')
        with pytest.raises(FormatError):
            parse_presentation('{"states": ["a"], "edges": [{"from": "a", "to": "a", "label": "0"}]}')
        with pytest.raises(FormatError) as e:
            parse_presentation('{"states": ["a"],\n "edges": }')
        assert e.value.line == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"states": ["a", "a"]}',
            '{"states": ["a"], "alphabet": ["0", "1"], "edges":'
            ' [{"from": "a", "to": "a", "label": "0"}, {"from": "a", "to": "a"}]}',
            '{"states": ["a"], "alphabet": ["0", "1,2"]}',
        ],
        ids=["duplicate-states", "mixed-labels", "comma-symbol"],
    )
    def test_invalid_graph_is_a_format_error(self, text):
        with pytest.raises(FormatError):
            parse_presentation(text)
