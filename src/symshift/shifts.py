"""Constructions and decision procedures on shift spaces over Z.

Every procedure runs on the essential higher-block presentation: its states
are allowed words, its edges single-letter extensions, and its bi-infinite
paths correspond exactly to the configurations of the shift.  Membership and
emptiness therefore see the true language (factors of configurations), which
is strictly smaller than the set of words merely avoiding forbidden factors.
"""

from __future__ import annotations

from math import gcd

from .core import (
    PeriodicCensus,
    PeriodicConfig,
    SftSpec,
    Word,
    enumerate_locally_allowed,
    normalize_periodic,
    periodization_allowed,
)
from .errors import (
    AlphabetMismatchError,
    BadLengthError,
    EmptyShiftError,
    OrderTooSmallError,
    OverlapTooShortError,
    TooLargeError,
    UnlabeledError,
)
from .graphs import (
    Dfa,
    LabeledGraph,
    _path_reader,
    determinize_factor_acceptor,
    dfa_language_equal,
    essential_form,
    scc_decomposition,
)


# Binary specs with one forbidden word of length L have 2**(L-1) blocks of
# length L-1: L = 18 takes about 0.9 s and a 97 MB process peak on CPython
# 3.11 (2-vCPU Xeon), and each further two symbols about four times that, so
# L = 18 is the largest one built.
MAX_BLOCKS = 2**17


def build_higher_block(spec: SftSpec, order: int) -> LabeledGraph:
    """Edge-shift recoding of an SFT at a given block order.

    The states are the locally allowed words of length ``order`` themselves,
    as tuples of symbol indices in lexicographic order; there is an edge
    u -> v when u and v overlap in order-1 symbols and the merged word is
    locally allowed, labeled by the first letter of u.  The labels realize
    the recoding conjugacy, so the graph is a presentation of the original
    shift.  Edges come in the lexicographic order of their merged words.
    The states are grouped once by their prefix of length order-1, so the
    successors of u are the group of u[1:], already in letter order; a
    forbidden word of length order+1 is the only thing that can remove one
    of those edges, and those are looked up once per state, by prefix.
    The graph is derived from a valid spec, so it is not re-validated.
    More than ``MAX_BLOCKS`` states is refused before any is listed: when
    there can be that many words of length ``order``, the blocks are first
    counted by ``allowed_word_count``, and refused as well when the
    shorter blocks it counts them over are too many.
    """
    if order < spec.memory:
        raise OrderTooSmallError(
            f"block order {order} is below the memory {spec.memory}"
        )
    _refuse_past_max_blocks(spec, order)
    words = list(enumerate_locally_allowed(spec, order))
    # the successors of u are the states v with v[:-1] == u[1:], and the
    # states sharing one prefix are listed in the order of their last letter
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for j, v in enumerate(words):
        by_prefix.setdefault(v[:-1], []).append(j)
    # order >= memory, so a forbidden factor of u+a shorter than u+a lies in
    # u or in v = (u+a)[1:]: only a forbidden word of length order+1, u+a
    # itself, removes the edge, and those are keyed by u
    banned: dict[tuple[int, ...], set[int]] = {}
    for f in spec.forbidden:
        if len(f) == order + 1:
            banned.setdefault(f.indices[:-1], set()).add(f.indices[-1])
    edges = []
    for i, u in enumerate(words):
        succ = by_prefix.get(u[1:], ())
        a = u[0]
        out = banned.get(u)
        if out:
            edges += [(i, j, a) for j in succ if words[j][-1] not in out]
        else:
            edges += [(i, j, a) for j in succ]
    return LabeledGraph._built(words, edges, spec.alphabet)


def _refuse_past_max_blocks(spec: SftSpec, order: int) -> None:
    """Raise ``TooLargeError`` when the spec has more than ``MAX_BLOCKS``
    locally allowed blocks of length ``order``, or when they are too many
    to count, without listing any."""
    if spec.alphabet.size**order > MAX_BLOCKS:
        try:
            count = allowed_word_count(spec, order)
        except TooLargeError as e:
            raise TooLargeError(f"blocks of length {order} not counted: {e}") from None
        if count > MAX_BLOCKS:
            raise TooLargeError(f"more than {MAX_BLOCKS} allowed blocks of length {order}")


def allowed_word_count(spec: SftSpec, length: int) -> int:
    """Number of locally allowed words of one length, counted, not listed:
    callers ask this to refuse what is too large to enumerate.  A forbidden
    word longer than ``length`` cannot occur in such a word, so they are
    the words of the spec without those forbidden words, whose memory is
    below the length once the length is 2 or more.  They are then the paths
    of length - memory edges in its untrimmed higher-block graph of order
    memory."""
    short = SftSpec(spec.alphabet, frozenset(f for f in spec.forbidden if len(f) <= length))
    memory = short.memory
    if length <= memory:  # length 0 or 1: at most one word per letter
        return sum(1 for _ in enumerate_locally_allowed(short, length))
    graph = build_higher_block(short, memory)
    paths = [1] * len(graph.states)  # paths of the current length ending in each state
    for _ in range(length - memory):
        longer = [0] * len(paths)
        for src, dst, _ in graph.edges:
            longer[dst] += paths[src]
        paths = longer
    return sum(paths)


def presentation(spec: SftSpec, order: int | None = None) -> LabeledGraph:
    """Essential labeled presentation of the shift at the given order."""
    if order is None:
        order = spec.memory
    return essential_form(build_higher_block(spec, order))


def is_empty(spec: SftSpec) -> bool:
    """Tiling problem over Z: the shift is empty iff its graph has no cycle."""
    return len(presentation(spec).states) == 0


def language_member(spec: SftSpec, word: Word) -> bool:
    """Extension problem over Z: does the word occur in some configuration?

    A member iff some path of the essential presentation reads it: its
    mask of states is stepped one symbol at a time, and no ``Dfa`` is
    built.  The empty word is a member iff the shift is non-empty.
    """
    if word.alphabet != spec.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    return _path_reader(presentation(spec))(word.indices)


def _nonempty_presentation(spec: SftSpec) -> LabeledGraph:
    graph = presentation(spec)
    if not graph.states:
        raise EmptyShiftError("the shift is empty")
    return graph


def is_irreducible(spec: SftSpec) -> bool:
    """True iff the essential presentation is strongly connected."""
    return len(scc_decomposition(_nonempty_presentation(spec))) == 1


def is_mixing(spec: SftSpec) -> bool:
    """Strong connectivity plus cycle-length gcd 1.

    The gcd is computed from a breadth-first level function: every edge
    contributes |level(u) + 1 - level(v)|, and the gcd of the contributions
    equals the gcd of all cycle lengths.
    """
    graph = _nonempty_presentation(spec)
    if len(scc_decomposition(graph)) != 1:
        return False
    n = len(graph.states)
    adj = [[] for _ in range(n)]
    for src, dst, _ in graph.edges:
        adj[src].append(dst)
    level = [-1] * n
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for q in frontier:
            for r in adj[q]:
                if level[r] < 0:
                    level[r] = level[q] + 1
                    nxt.append(r)
        frontier = nxt
    g = 0
    for src, dst, _ in graph.edges:
        g = gcd(g, abs(level[src] + 1 - level[dst]))
    return g == 1


# Bits of one packed walk-count int: the start states of a block are taken
# this many bits' worth at a time.  Timed on a 79-state SFT at max_n 40 and
# an 8,192-state block at max_n 20 (CPython 3.11, 2-vCPU Xeon), 2**10 ran
# 1.5-1.7x slower than 2**12, each addition paying its fixed cost for fewer
# starts; 2**14 was up to a third faster, in noisy runs, but the two lists
# of packed ints it holds are four times as large.  The 30-42-state SFTs
# of the shift bench fit in one chunk at any of these sizes.
_PACKED_BITS = 2**12


def _closed_walks(succ: list[list[int]], pred: list[list[int]], k: int) -> list[int]:
    """p_1..p_k of one strongly connected block, given as successor and
    predecessor lists.

    The counts of walks from a chunk of start states travel together: start
    s owns field s - lo, of ``width`` bits, in one Python int per state, so
    one big-int addition per edge per step pushes the walks of every start
    in the chunk.  No field can carry into the next: a field counts walks
    of length at most k between two states, at most d**k for the largest
    out-degree d.  The push runs along the edges out of the states reached
    so far, for k - 1 steps, and p_(n+1) reads field s - lo of state s; the
    k-th step sums state s's ints over the edges back into s alone."""
    m = len(succ)
    width = (max(map(len, succ)) ** k).bit_length() + 1
    mask = (1 << width) - 1
    chunk = max(1, _PACKED_BITS // width)
    counts = [0] * k
    for lo in range(0, m, chunk):
        # each start with the bit offset of its field
        starts = [(s, (s - lo) * width) for s in range(lo, min(lo + chunk, m))]
        walks = [0] * m
        for s, at in starts:
            walks[s] = 1 << at
        reached = [s for s, _ in starts]
        for n in range(k - 1):
            nxt = [0] * m
            ahead = []
            for u in reached:
                c = walks[u]
                for t in succ[u]:
                    if not nxt[t]:
                        ahead.append(t)
                    nxt[t] += c
            walks, reached = nxt, ahead
            counts[n] += sum([(walks[s] >> at) & mask for s, at in starts])
        last = [(sum([walks[u] for u in pred[s]]) >> at) & mask for s, at in starts]
        counts[k - 1] += sum(last)
    return counts


def _continue_power_sums(p: list[int], max_n: int) -> list[int]:
    """Extend the traces p_1..p_m of the n-th powers of an m x m integer
    matrix to p_1..p_max_n.  Newton's identities k c_k = -(p_k + c_1 p_(k-1)
    + ... + c_(k-1) p_1) give its characteristic polynomial t^m + c_1
    t^(m-1) + ... + c_m, and Cayley-Hamilton the recurrence p_n = -(c_1
    p_(n-1) + ... + c_m p_(n-m)) (Lind & Marcus, section 6.4)."""
    m = len(p)
    c = [1]
    for k in range(1, m + 1):
        ck, rem = divmod(-sum(c[i] * p[k - 1 - i] for i in range(k)), k)
        assert rem == 0, f"Newton's identity {k} does not divide exactly"
        c.append(ck)
    terms = [(i, -ci) for i, ci in enumerate(c) if i and ci]
    p = list(p)
    for n in range(m, max_n):
        p.append(sum(ci * p[n - i] for i, ci in terms))
    return p


def periodic_census(spec: SftSpec, max_n: int, order: int | None = None) -> PeriodicCensus:
    """Count periodic configurations: p[n] with period dividing n+1, q[n]
    with exact period n+1.

    p_n is the number of closed paths of length n in the essential
    presentation, the trace of the n-th adjacency power.  A closed path
    stays in one strongly connected component, so p_n is summed over the
    nontrivial components: in one of m states, p_1..p_min(m, max_n) are
    counted by pushing walk counts along the edges, the counts from many
    start states packed side by side in one integer per state (see
    ``_closed_walks``), and past m they follow from Newton's identities
    and the characteristic polynomial, all in exact integer arithmetic.
    q_n = p_n minus q_d over the proper divisors d of n, by a sieve over
    the multiples of each d.  Computing at a higher block ``order`` must
    give the same numbers: they are conjugacy invariants.
    """
    if max_n < 1:
        raise BadLengthError("census needs max_n >= 1")
    graph = presentation(spec, order)
    blocks = [comp.states for comp in scc_decomposition(graph) if not comp.trivial]
    block_of = [-1] * len(graph.states)
    local = [0] * len(graph.states)
    for b, states in enumerate(blocks):
        for i, s in enumerate(states):
            block_of[s] = b
            local[s] = i
    succ = [[[] for _ in states] for states in blocks]
    pred = [[[] for _ in states] for states in blocks]
    for src, dst, _ in graph.edges:
        b = block_of[src]
        if b >= 0 and block_of[dst] == b:
            succ[b][local[src]].append(local[dst])
            pred[b][local[dst]].append(local[src])
    p = [0] * max_n
    for b, states in enumerate(blocks):
        counts = _closed_walks(succ[b], pred[b], min(len(states), max_n))
        if len(counts) < max_n:
            counts = _continue_power_sums(counts, max_n)
        for n, count in enumerate(counts):
            p[n] += count
    q = list(p)
    for d in range(1, max_n + 1):
        for multiple in range(2 * d, max_n + 1, d):
            q[multiple - 1] -= q[d - 1]
    return PeriodicCensus(max_n, tuple(p), tuple(q))


def enumerate_periodic(spec: SftSpec, n: int) -> list[PeriodicConfig]:
    """All configurations with period dividing n, in canonical primitive form,
    ordered by their length-n repeating word."""
    if n < 1:
        raise BadLengthError("period bound must be >= 1")
    out = []
    for idx in enumerate_locally_allowed(spec, n):
        word = Word(spec.alphabet, idx)
        if periodization_allowed(spec, word):
            out.append(normalize_periodic(word))
    return out


def periodic_density(spec: SftSpec) -> bool:
    """Density of periodic configurations, decided on the essential
    presentation: no edge may connect two different strongly connected
    components."""
    graph = _nonempty_presentation(spec)
    component_of = {}
    for ci, comp in enumerate(scc_decomposition(graph)):
        for s in comp.states:
            component_of[s] = ci
    return all(component_of[src] == component_of[dst] for src, dst, _ in graph.edges)


def sofic_equal(a1: LabeledGraph, a2: LabeledGraph) -> tuple[bool, Word | None]:
    """Decide whether two presentations accept the same sofic shift.

    Both are trimmed to essential form and compared as factor-language
    acceptors; shift equality is exactly factor-language equality.  The
    search determinizes each only as far as it goes, and builds neither
    ``Dfa``.  On inequality the witness word lies in exactly one factor
    language.
    """
    if not a1.is_labeled or not a2.is_labeled:
        raise UnlabeledError("sofic equality needs labeled presentations")
    if a1.alphabet != a2.alphabet:
        raise AlphabetMismatchError("presentations over different alphabets")
    return dfa_language_equal(essential_form(a1), essential_form(a2))


def factor_acceptor(spec: SftSpec) -> Dfa:
    """Deterministic acceptor of the factor language of the shift.  No
    decision procedure builds it: it is the tests' oracle, and the
    benchmark's tracer binds it by name."""
    return determinize_factor_acceptor(presentation(spec))


def pasting_check(spec: SftSpec, u: Word, v: Word, w: Word) -> bool:
    """Membership of the pasted word uvw.

    When uv and vw are both in the language and the overlap v has length at
    least the memory, the result must be True; the check is exposed so the
    gluing property is directly testable.
    """
    for part in (u, v, w):
        if part.alphabet != spec.alphabet:
            raise AlphabetMismatchError("word over a different alphabet")
    if len(v) < spec.memory:
        raise OverlapTooShortError(
            f"overlap length {len(v)} is below the memory {spec.memory}"
        )
    return language_member(spec, u + v + w)

