"""Small builders and reference constructions shared by the test modules."""

import random
from collections import deque
from itertools import product

from symshift.core import (
    Alphabet,
    SftSpec,
    Word,
    enumerate_locally_allowed,
    is_locally_allowed,
    normalize_periodic,
)
from symshift.errors import AlphabetMismatchError, EmptyShiftError, NotASelfmapError
from symshift.graphs import Dfa, LabeledGraph, _path_reader, scc_decomposition
from symshift.localmaps import LocalRule, build_image_presentation, common_half_order
from symshift.shifts import factor_acceptor, presentation

BIN = Alphabet(("0", "1"))
ABC = Alphabet(("a", "b", "c"))


def spec(symbols, *forbidden) -> SftSpec:
    """Build an SftSpec from symbol characters and forbidden words as strings."""
    alph = Alphabet(tuple(symbols))
    return SftSpec(alph, frozenset(alph.word(tuple(f)) for f in forbidden))


def w(alphabet: Alphabet, text: str) -> Word:
    return alphabet.parse_word(text)


def cfg(alphabet: Alphabet, text: str):
    return normalize_periodic(alphabet.parse_word(text))


def random_spec(rng: random.Random, size: int, memory: int) -> SftSpec:
    """A seeded spec over ``size`` symbols whose memory is exactly ``memory``:
    one to four forbidden words of lengths 1..memory+1, one of them of length
    memory+1."""
    alph = Alphabet(tuple("abcdefgh"[:size]))
    lengths = [memory + 1] + [rng.randint(1, memory + 1) for _ in range(rng.randint(0, 3))]
    forbidden = {
        Word(alph, tuple(rng.randrange(size) for _ in range(m))) for m in lengths
    }
    return SftSpec(alph, frozenset(forbidden))


_rng = random.Random(3)
# eight seeded specs for each alphabet size 2, 3 and memory 1, 2, 3
SEEDED_SPECS = tuple(
    random_spec(_rng, size, memory)
    for size in (2, 3)
    for memory in (1, 2, 3)
    for _ in range(8)
)


def multi_block_spec(rng: random.Random) -> SftSpec:
    """A seeded spec over 3 or 4 symbols, with forbidden 2- and 3-words,
    whose essential presentation has at least two nontrivial strongly
    connected components, one of them with three or more states, and at
    least one trivial component: states on paths between cycles."""
    while True:
        size = rng.choice((3, 4))
        alph = Alphabet(tuple("abcd"[:size]))
        forbidden = {
            tuple(rng.randrange(size) for _ in range(2))
            for _ in range(rng.randint(size, size * size - 2))
        }
        forbidden |= {
            tuple(rng.randrange(size) for _ in range(3)) for _ in range(rng.randint(0, 3))
        }
        s = SftSpec(alph, frozenset(Word(alph, f) for f in forbidden))
        components = scc_decomposition(presentation(s))
        sizes = [len(c.states) for c in components if not c.trivial]
        if len(sizes) >= 2 and max(sizes) >= 3 and len(sizes) < len(components):
            return s


# Reference constructions kept as test oracles: the fixed-point essential form
# and the string-named pair automaton that the library used before its
# worklist and integer-coded versions, the higher-block graph built from two
# word enumerations, the image presentation relabeled from the domain's
# higher-block graph, membership by running the presentation as a
# nondeterministic acceptor or by stepping a word's mask of states through
# it, and the census by dense adjacency powers.


def dense_census(s: SftSpec, max_n: int, order: int | None = None) -> tuple[list, list]:
    """p_1..p_max_n as traces of dense integer adjacency powers of the
    essential presentation, and q by divisor_recursion_q."""
    graph = presentation(s, order)
    n = len(graph.states)
    adjacency = [[0] * n for _ in range(n)]
    for src, dst, _ in graph.edges:
        adjacency[src][dst] += 1
    p = []
    power = adjacency
    for _ in range(max_n):
        p.append(sum(power[i][i] for i in range(n)))
        power = [
            [sum(power[i][k] * adjacency[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return p, divisor_recursion_q(p)


def divisor_recursion_q(p: list[int]) -> list[int]:
    """q_n = p_n minus q_d over the proper divisors d of n, each n scanning
    1..n for its divisors."""
    q: list[int] = []
    for m in range(1, len(p) + 1):
        q.append(p[m - 1] - sum(q[d - 1] for d in range(1, m) if m % d == 0))
    return q


def brute_locally_allowed(s: SftSpec, length: int) -> list[tuple[int, ...]]:
    """Locally allowed words of one length, by filtering every word; in
    lexicographic order."""
    return [
        idx
        for idx in product(range(s.alphabet.size), repeat=length)
        if is_locally_allowed(s, Word(s.alphabet, idx))
    ]


def two_pass_higher_block(s: SftSpec, order: int) -> LabeledGraph:
    """Higher-block graph from two enumerations: states are the allowed
    words of length ``order``, edges the allowed words of length
    ``order + 1``, joining their prefix to their suffix."""
    words = brute_locally_allowed(s, order)
    index = {idx: i for i, idx in enumerate(words)}
    edges = tuple(
        (index[m[:-1]], index[m[1:]], m[0]) for m in brute_locally_allowed(s, order + 1)
    )
    return LabeledGraph(tuple(words), edges, s.alphabet)


def rebuilt_image_presentation(rule) -> LabeledGraph:
    """The image presentation as the library built it before reading it off
    the rule table: the essential higher-block graph of the domain at order
    2*M', each edge labeled by the rule on the window of length 2r+1 sliced
    from the merged blocks at its two ends.  Empty when the domain is."""
    half = common_half_order(rule)
    graph = presentation(rule.domain, 2 * half)
    words = graph.states
    lo, hi = half - rule.radius, half + rule.radius + 1
    edges = tuple(
        (s, d, rule.table[(words[s] + words[d][-1:])[lo:hi]]) for s, d, _ in graph.edges
    )
    return LabeledGraph(words, edges, graph.alphabet)


def assert_valid_derived(g: LabeledGraph) -> None:
    """A graph the library derives without validating it passes validation
    unchanged, with the tuple shapes that validation gives a graph."""
    assert type(g.states) is tuple
    assert type(g.edges) is tuple and all(type(e) is tuple for e in g.edges)
    assert LabeledGraph(g.states, g.edges, g.alphabet) == g


def nfa_member(s: SftSpec):
    """Membership predicate that runs a word through the essential
    presentation as a nondeterministic acceptor started in all states."""
    graph = presentation(s)
    step: dict[tuple[int, int], set[int]] = {}
    for src, dst, lab in graph.edges:
        step.setdefault((src, lab), set()).add(dst)

    def member(word: Word) -> bool:
        current = set(range(len(graph.states)))
        for a in word.indices:
            nxt: set[int] = set()
            for q in current:
                nxt |= step.get((q, a), set())
            if not nxt:
                return False
            current = nxt
        return bool(current)

    return member


def reference_member(s: SftSpec):
    """Membership predicate as the library decided it before its extension
    search: a word's mask of states stepped through the essential
    presentation by ``_path_reader``, the empty word being a member iff the
    shift is non-empty."""
    reads = _path_reader(presentation(s))
    return lambda word: reads(word.indices)


def reference_compose(outer: LocalRule, inner: LocalRule) -> LocalRule:
    """Outer after inner as the library composed them before it asked
    ``language_member``: a window whose image misses outer's table is read
    through the domain's essential presentation (``reference_member``), and
    refused when it is a language word, else mapped to symbol 0."""
    domain = inner.domain
    radius = outer.radius + inner.radius
    mid_width = 2 * inner.radius + 1
    member = None
    table = {}
    for idx in enumerate_locally_allowed(domain, 2 * radius + 1):
        mid = tuple(inner.table[idx[i : i + mid_width]] for i in range(2 * outer.radius + 1))
        if mid not in outer.table:
            member = member or reference_member(domain)
            if member(Word(domain.alphabet, idx)):
                raise NotASelfmapError(f"inner maps the language word {idx} outside the domain")
        table[idx] = outer.table.get(mid, 0)
    name = f"{outer.name or 'outer'}-after-{inner.name or 'inner'}"
    return LocalRule(domain, radius, table, name)


def fixed_point_essential_form(g: LabeledGraph) -> LabeledGraph:
    """Essential form by re-scanning every edge until no state is stranded."""
    keep = set(range(len(g.states)))
    while True:
        out_deg = dict.fromkeys(keep, 0)
        in_deg = dict.fromkeys(keep, 0)
        for src, dst, _ in g.edges:
            if src in keep and dst in keep:
                out_deg[src] += 1
                in_deg[dst] += 1
        stranded = {i for i in keep if out_deg[i] == 0 or in_deg[i] == 0}
        if not stranded:
            break
        keep -= stranded
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    states = tuple(g.states[i] for i in order)
    edges = tuple(
        (remap[s], remap[d], lab) for s, d, lab in g.edges if s in keep and d in keep
    )
    return LabeledGraph(states, edges, g.alphabet)


def named_product_automaton(a: LabeledGraph) -> tuple[LabeledGraph, frozenset[str]]:
    """Pair automaton with states named "(p,q)" after the state names of
    ``a``, and the names of its diagonal states."""
    names = tuple(f"({p},{q})" for p in a.states for q in a.states)
    n = len(a.states)
    by_label: dict[int, list[tuple[int, int]]] = {}
    for src, dst, lab in a.edges:
        by_label.setdefault(lab, []).append((src, dst))
    edges = []
    for lab, moves in by_label.items():
        for p, r in moves:
            for q, s in moves:
                edges.append((p * n + q, r * n + s, lab))
    diagonal = frozenset(f"({p},{p})" for p in a.states)
    return LabeledGraph(names, tuple(edges), a.alphabet), diagonal


def _named_pairs(rule):
    image = fixed_point_essential_form(build_image_presentation(rule).graph)
    return named_product_automaton(image)


def reference_injective(rule) -> bool:
    """Injectivity: the trimmed named pair automaton keeps only diagonal states."""
    pairs, diagonal = _named_pairs(rule)
    return set(fixed_point_essential_form(pairs).states) <= diagonal


def reference_preinjective(rule) -> bool:
    """Pre-injectivity: no non-diagonal state of the untrimmed named pair
    automaton is both reachable from the diagonal and co-reachable to it."""
    pairs, diagonal_names = _named_pairs(rule)
    n = len(pairs.states)
    forward = [[] for _ in range(n)]
    backward = [[] for _ in range(n)]
    for src, dst, _ in pairs.edges:
        forward[src].append(dst)
        backward[dst].append(src)
    diagonal = {i for i, name in enumerate(pairs.states) if name in diagonal_names}

    def reach(adjacent):
        seen = set()
        frontier = list(diagonal)
        while frontier:
            nxt = []
            for q in frontier:
                for r in adjacent[q]:
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return seen

    return not ((reach(forward) & reach(backward)) - diagonal)


def reference_subset_rows(g: LabeledGraph) -> tuple[tuple[int, ...], ...]:
    """Rows of the subset construction of ``g`` with every state initial,
    one subset at a time and one member at a time: subsets numbered in
    breadth-first order, the successors of each in symbol order, -1 for
    the empty subset."""
    n = len(g.states)
    if not n:
        return ()
    moves = [[0] * n for _ in range(g.alphabet.size)]
    for src, dst, lab in g.edges:
        moves[lab][src] |= 1 << dst
    ids = {(1 << n) - 1: 0}
    queue = deque(ids)
    rows = []
    while queue:
        subset = queue.popleft()
        row = []
        for by_state in moves:
            target = 0
            for q in range(n):
                if subset >> q & 1:
                    target |= by_state[q]
            if target and target not in ids:
                ids[target] = len(ids)
                queue.append(target)
            row.append(ids[target] if target else -1)
        rows.append(tuple(row))
    return tuple(rows)


def reference_divergence(d1: Dfa, d2: Dfa, want_side1: bool, want_side2: bool) -> Word | None:
    """The length-lex least word that exactly one of two ``Dfa``s reads, the
    one a wanted side (side 1: ``d1``): one breadth-first search over pairs
    of states, the dead state -1 completing both, successors in symbol
    order."""
    rows = [[*d.transitions, (-1,) * d.alphabet.size] for d in (d1, d2)]
    start = tuple(-1 if d.initial is None else d.initial for d in (d1, d2))
    parents = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for sym, (r1, r2) in enumerate(zip(rows[0][node[0]], rows[1][node[1]])):
            if (r1 < 0) != (r2 < 0) and (want_side1 if r2 < 0 else want_side2):
                out = [sym]
                while parents[node] is not None:
                    node, last = parents[node]
                    out.append(last)
                return Word(d1.alphabet, tuple(reversed(out)))
            child = (r1, r2)
            if r1 >= 0 and r2 >= 0 and child not in parents:
                parents[child] = (node, sym)
                queue.append(child)
    return None


def dfa_run(d: Dfa, indices) -> int | None:
    """The state a ``Dfa`` reaches on a word given as symbol indices, None
    once the run is undefined or the acceptor has no initial state."""
    q = d.initial
    for a in indices:
        if q is None:
            return None
        nxt = d.transitions[q][a]
        q = nxt if nxt != -1 else None
    return q


def dfa_accepts(d: Dfa, word: Word) -> bool:
    """Whether a ``Dfa``, all of whose states accept, accepts the word; the
    empty word always."""
    if word.alphabet != d.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    return len(word) == 0 or dfa_run(d, word.indices) is not None


def words_of_language(s: SftSpec, max_len: int) -> list[Word]:
    """All language words of length at most max_len, the locally allowed
    words that the spec's full factor acceptor reads."""
    acceptor = factor_acceptor(s)
    return [
        Word(s.alphabet, idx)
        for n in range(max_len + 1)
        for idx in enumerate_locally_allowed(s, n)
        if dfa_run(acceptor, idx) is not None
    ]


def blowup_rule(seed: int) -> LocalRule:
    """The seeded binary radius-4 rule of ``bench/worker.py blowup``: one
    bit of ``random.Random(f"blowup-{seed}")`` per window, in product
    order.  Its orphan search pairs millions of masks."""
    bits = random.Random(f"blowup-{seed}").getrandbits(512)
    windows = product(range(2), repeat=9)
    domain = SftSpec(BIN, frozenset())
    return LocalRule(domain, 4, {win: bits >> i & 1 for i, win in enumerate(windows)})


def has_preimage_on_full_shift(rule: LocalRule, word: Word) -> bool:
    """Whether some word of the full shift maps onto ``word``: the sets of
    the last 2r cells of the preimages of each prefix, stepped a letter at
    a time, independent of the graph searches."""
    width = rule.window_length
    letters = range(rule.domain.alphabet.size)
    tails = set(product(letters, repeat=width - 1))
    for symbol in word.indices:
        tails = {
            (t + (a,))[1:] for t in tails for a in letters if rule.table[t + (a,)] == symbol
        }
    return bool(tails)


def seeded_de_bruijn(bits: int) -> LabeledGraph:
    """Labeled de Bruijn graph on 6-bit blocks, each block's two edges
    labeled by its bit of ``bits``: the shape of the image of a binary
    radius-3 rule reading six cells."""
    edges = [(s, (s << 1) & 63 | b, bits >> s & 1) for s in range(64) for b in (0, 1)]
    return LabeledGraph(tuple(range(64)), edges, BIN)


# The shrunk image as the library built it before it ran on integer arrays:
# the end trim one cell per pass over the table, the read into a graph of
# edge tuples, and amalgamation passes that rebuild the edge tuples.


def reference_trimmed_table(rule) -> tuple[dict, int]:
    """The rule's table without the end cells of its window that the output
    never depends on, and the width left, dropping one cell per pass: the
    first cell while windows that differ only there have one output, then
    the last cell alike, down to width 0 for a constant rule."""
    table, width = rule.table, rule.window_length
    letters = range(rule.domain.alphabet.size)
    for first in (True, False):
        while width and table:  # an empty table is an empty domain
            shorter = _drop_end(table, first, letters)
            if shorter is None:
                break
            table, width = shorter, width - 1
    return table, width


def _drop_end(table: dict, first: bool, letters: range) -> dict | None:
    """``table`` keyed by its windows without their first (or last) cell, in
    the order of their first windows, or None when two windows that differ
    only in that cell have different outputs."""
    window, out = next(iter(table.items()))
    for a in letters:
        if table.get((a,) + window[1:] if first else window[:-1] + (a,), out) != out:
            return None
    cut = slice(1, None) if first else slice(None, -1)
    shorter: dict[tuple[int, ...], int] = {}
    for window, out in table.items():
        if shorter.setdefault(window[cut], out) != out:
            return None
    return shorter


def reference_read_blocks(domain: SftSpec, length: int, offset: int, table: dict) -> LabeledGraph:
    """The essential graph whose edges are the domain's locally allowed
    words of ``length``, each from its prefix to its suffix and labeled by
    ``table`` at the window ``offset`` cells into it; words read off
    ``table.items()`` when they are as long as its windows, and left out
    when their window has no entry or their suffix is no prefix; trimmed
    to essential form by ``fixed_point_essential_form``."""
    width = len(next(iter(table), ()))
    if length == width:
        labelled = table.items()
    else:
        window = slice(offset, offset + width)
        get = table.get
        words = enumerate_locally_allowed(domain, length)
        labelled = [(w, out) for w in words if (out := get(w[window])) is not None]
    index: dict[tuple[int, ...], int] = {}
    sources = [index.setdefault(w[:-1], len(index)) for w, _ in labelled]
    edges = []
    for src, (w, out) in zip(sources, labelled):
        dst = index.get(w[1:])
        if dst is not None:
            edges.append((src, dst, out))
    graph = fixed_point_essential_form(LabeledGraph(list(index), edges, domain.alphabet))
    if not graph.states:
        raise EmptyShiftError("the domain shift is empty")
    return graph


def reference_amalgamate(g: LabeledGraph) -> LabeledGraph:
    """States with the same multiset of labeled out-edges merged into the
    first of them, which keeps the in-edges of all; then the same for
    in-edges; passes alternate until two in a row merge nothing.  Kept
    states keep the name of their first member and edges their order; a
    graph in which nothing merges is returned as it is."""
    states, edges = g.states, g.edges
    n = len(states)
    k = g.alphabet.size
    forward = True  # out-edges, keyed at their source
    quiet = 0  # passes in a row that merged nothing
    while quiet < 2:
        keys: list[list[int]] = [[] for _ in range(n)]
        if forward:
            for src, dst, lab in edges:
                keys[src].append(dst * k + lab)
        else:
            for src, dst, lab in edges:
                keys[dst].append(src * k + lab)
        for key in keys:
            key.sort()
        first: dict[tuple[int, ...], int] = {}
        leader = [first.setdefault(key, q) for q, key in enumerate(map(tuple, keys))]
        if len(first) == n:
            quiet += 1
        else:
            quiet = 0
            kept = list(first.values())
            remap = [-1] * n
            for new, old in enumerate(kept):
                remap[old] = new
            index = [remap[q] for q in leader]
            if forward:
                edges = [(index[s], index[d], lab) for s, d, lab in edges if leader[s] == s]
            else:
                edges = [(index[s], index[d], lab) for s, d, lab in edges if leader[d] == d]
            states = [states[q] for q in kept]
            n = len(states)
        forward = not forward
    if n == len(g.states):
        return g
    return LabeledGraph(states, edges, g.alphabet)


def reference_shrunk_image(rule) -> LabeledGraph:
    """``localmaps._shrunk_image`` the long way: the table trimmed a cell
    per pass, read at the width left (at least the domain's memory+1) and
    amalgamated a graph at a time."""
    table, width = reference_trimmed_table(rule)
    length = max(width, rule.domain.memory + 1)
    return reference_amalgamate(reference_read_blocks(rule.domain, length, 0, table))
