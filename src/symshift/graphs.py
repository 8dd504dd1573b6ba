"""Finite directed multigraphs with optional edge labels.

Unlabeled graphs present edge shifts; labeled graphs (finite automata)
present sofic shifts.  Factor-language acceptors use "all states initial,
all states accepting" semantics: on an essential presentation the accepted
language is exactly the factor language of the presented shift, so language
equality of the determinized acceptors decides equality of the shifts.

``_path_reader`` steps one word's mask of states, for the selfmap
check of ``localmaps``.  ``dfa_language_subset`` and
``dfa_language_equal`` take a labeled graph on each side and run one
search for the shortest word on which the two differ, over bit masks of
the states of both sides, which determinizes both graphs on demand: only
the subsets the search visits are built.  The search goes level by level,
forward from the start while its levels are narrow and then from both
ends, pairing forward and backward levels, so a shortest witness of
length L costs levels of depth about L/2 on each side rather than every
level short of L; it is refused with ``TooLargeError`` once its meetings
have paired more than ``_MAX_MASK_PAIRS`` forward and backward masks.
All subset steps go through byte-indexed tables of packed successor
masks, the search's a level at a time.  The full subset construction
(``determinize_factor_acceptor``, giving a ``Dfa``) and the pair
automaton remain for the tests' oracles and the benchmark's tracer;
no decision procedure builds them.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import reduce
from itertools import compress
from operator import getitem, itemgetter, or_
from pathlib import Path
from typing import Callable, Iterable

from .core import Alphabet, Word, _Frozen, _set, read_input
from .errors import AlphabetMismatchError, FormatError, TooLargeError, UnlabeledError

Edge = tuple[int, int, int | None]  # (source state, target state, label index)

_DEAD = -1


class LabeledGraph(_Frozen):
    """Directed multigraph over named states.

    Either every edge is labeled (with an index into ``alphabet``) or none
    is.  A state's name is a string in a graph read from a ``.pres`` file,
    its pair code in a pair automaton (see ``product_automaton``), and its
    word, a tuple of symbol indices, in a higher-block graph (see
    ``shifts.build_higher_block``) and the graphs derived from one.

    ``LabeledGraph(...)`` checks the graph it builds: one built by a
    caller, read from a ``.pres`` file or built by ``product_automaton``.
    The graphs the library derives from valid ones (higher-block graphs,
    essential forms and relabelled image skeletons) come from ``_built``,
    which skips the checks.
    """

    __slots__ = _fields = ("states", "edges", "alphabet")

    def __init__(self, states: Iterable, edges: Iterable[Edge], alphabet: Alphabet | None = None):
        _set(self, "states", states)
        _set(self, "edges", edges)
        _set(self, "alphabet", alphabet)
        self.__post_init__()  # looked up on the class: bench/tracer.py wraps it there

    @classmethod
    def _built(cls, states: list | tuple, edges: list | tuple, alphabet: Alphabet | None):
        """A graph derived from a valid one, set without the checks of
        ``__post_init__``.  ``edges`` must hold edge tuples; both arguments
        are lists or tuples, so that ``tuple()`` copies them at their size
        (see ``__post_init__``)."""
        g = object.__new__(cls)
        _set(g, "states", tuple(states))
        _set(g, "edges", tuple(edges))
        _set(g, "alphabet", alphabet)
        return g

    def __post_init__(self):
        _set(self, "states", tuple(self.states))
        # tuple() of a list, not of an iterator: a tuple built from an
        # iterator of unknown length is allocated and then resized, and when
        # it dies CPython keeps it on its free list for small tuples, which
        # only a full collection empties, so per-rule graphs would add one
        # block each until that list is full
        _set(self, "edges", tuple([tuple(e) for e in self.edges]))
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if not self.edges:
            return
        n = len(self.states)
        try:
            srcs, dsts, labels = zip(*self.edges, strict=True)
        except ValueError:
            raise ValueError("edges are (source, target, label) triples") from None
        if min(srcs) < 0 or min(dsts) < 0 or max(srcs) >= n or max(dsts) >= n:
            raise ValueError("edge endpoint out of range")
        unlabeled = labels.count(None)
        if unlabeled == len(labels):
            return
        if unlabeled:
            raise ValueError("either all edges are labeled or none")
        if self.alphabet is None:
            raise ValueError("labeled edges require an alphabet")
        if min(labels) < 0 or max(labels) >= self.alphabet.size:
            raise ValueError("edge label out of alphabet range")

    @property
    def is_labeled(self) -> bool:
        # edges are all labeled or all unlabeled, so the first one decides
        return self.alphabet is not None and (not self.edges or self.edges[0][2] is not None)


SccComponent = namedtuple("SccComponent", "states trivial")


class Dfa(_Frozen):
    """Deterministic factor-language acceptor: every state accepts.

    ``transitions[q][a]`` is the successor state or -1 when undefined; a word
    is accepted iff its run from ``initial`` stays defined.  ``initial`` is
    None only for the acceptor of an empty presentation, which accepts just
    the empty word.
    """

    __slots__ = _fields = ("alphabet", "transitions", "initial")

    def __init__(
        self, alphabet: Alphabet, transitions: tuple[tuple[int, ...], ...], initial: int | None
    ):
        _set(self, "alphabet", alphabet)
        _set(self, "transitions", transitions)
        _set(self, "initial", initial)

    @property
    def n_states(self) -> int:
        return len(self.transitions)


def essential_form(g: LabeledGraph) -> LabeledGraph:
    """Maximal subgraph in which every state has an incoming and an outgoing
    edge.  Removing stranded states leaves the bi-infinite paths unchanged;
    the result is empty iff the graph has no cycle.

    Kept states stay in their order and edges in theirs; a graph with no
    stranded state is returned as it is, found so on its edge tuples.
    Otherwise ``_essential`` trims the graph's edges as three lists.
    """
    n = len(g.states)
    if len(set(map(itemgetter(0), g.edges))) == n == len(set(map(itemgetter(1), g.edges))):
        return g
    columns = [list(map(itemgetter(i), g.edges)) for i in range(3)]
    states, src, dst, lab = _essential(g.states, *columns)
    return LabeledGraph._built(states, list(zip(src, dst, lab)), g.alphabet)


def _essential(states: list | tuple, src: list, dst: list, lab: list) -> tuple:
    """The essential form of the graph on ``states`` whose i-th edge runs
    from ``src[i]`` to ``dst[i]`` with label ``lab[i]``, as the same four
    sequences, returned as they are when no state is stranded.  A worklist
    over in- and out-degree counters: each removed state decrements the
    counters of its live neighbours once per edge."""
    n = len(states)
    if len(set(src)) == n == len(set(dst)):
        return states, src, dst, lab
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for s, d in zip(src, dst):
        succ[s].append(d)
        pred[d].append(s)
    out_deg = list(map(len, succ))
    in_deg = list(map(len, pred))
    stranded = [q for q in range(n) if not out_deg[q] or not in_deg[q]]
    alive = [True] * n
    for q in stranded:
        alive[q] = False
    while stranded:
        q = stranded.pop()
        for r in succ[q]:
            if alive[r]:
                in_deg[r] -= 1
                if not in_deg[r]:
                    alive[r] = False
                    stranded.append(r)
        for r in pred[q]:
            if alive[r]:
                out_deg[r] -= 1
                if not out_deg[r]:
                    alive[r] = False
                    stranded.append(r)
    kept = [q for q in range(n) if alive[q]]
    remap = [-1] * n
    for new, old in enumerate(kept):
        remap[old] = new
    live = [alive[s] and alive[d] for s, d in zip(src, dst)]
    return (
        [states[q] for q in kept],
        [remap[s] for s in compress(src, live)],
        [remap[d] for d in compress(dst, live)],
        list(compress(lab, live)),
    )


def _amalgamate(states: list | tuple, src: list, dst: list, lab: list, k: int):
    """A smaller presentation of the same labeled edge shift, on the graph
    given as ``_essential`` takes it, with labels below ``k``; returned the
    same way, as the same four sequences when nothing merges.

    States whose labeled out-edges are the same multiset (same targets,
    same labels, same multiplicity) merge into one that keeps the in-edges
    of all of them and the out-edges of one; then, the other way round,
    states whose labeled in-edges are the same multiset.  Passes alternate
    until neither merges anything.  Each merge is a state amalgamation
    (Lind & Marcus, section 2.4): a 1-block conjugacy of the edge shifts
    through which the labels factor, so the label language, and which
    bi-infinite label sequences have one path or several, stay the same.
    A merge can turn two paths through different states into parallel
    edges with one label; no edge is deduplicated, so they stay two.

    A kept state keeps the name of its first member, and edges keep their
    order.  Until the first merge a state's key is taken in the order its
    edges are listed, unsorted, so the edges must list the out-edges of
    any two states with the same labeled out-edges in one order, and the
    in-edges alike: edges sorted by (source, target, label) do, and so do
    the words ``localmaps._read_words`` reads.
    """
    n = len(states)
    forward = True  # out-edges, keyed at their source
    quiet = 0  # passes in a row that merged nothing
    merged = False
    while quiet < 2:
        ends, others = (src, dst) if forward else (dst, src)
        # a state's key: its edges' other ends and labels, coded end*k + label
        keys: list[list[int]] = [[] for _ in range(n)]
        for e, o, x in zip(ends, others, lab):
            keys[e].append(o * k + x)
        if merged:
            for key in keys:
                key.sort()
        first: dict[tuple[int, ...], int] = {}
        leader = [first.setdefault(key, q) for q, key in enumerate(map(tuple, keys))]
        if len(first) == n:
            quiet += 1
        else:
            quiet = 0
            merged = True
            kept = list(first.values())  # the leaders, in state order
            remap = [-1] * n
            for new, old in enumerate(kept):
                remap[old] = new
            index = [remap[q] for q in leader]
            kept_src: list[int] = []
            kept_dst: list[int] = []
            kept_lab: list = []
            for e, s, d, x in zip(ends, src, dst, lab):
                if leader[e] == e:  # an edge of a kept state
                    kept_src.append(index[s])
                    kept_dst.append(index[d])
                    kept_lab.append(x)
            src, dst, lab = kept_src, kept_dst, kept_lab
            states = [states[q] for q in kept]
            n = len(states)
        forward = not forward
    return states, src, dst, lab


def scc_decomposition(g: LabeledGraph) -> tuple[SccComponent, ...]:
    """Strongly connected components, by Tarjan's algorithm (Tarjan 1972).

    The depth-first path is a list of (vertex, iterator over its successors)
    frames, so each frame resumes where it left off and nothing recurses.
    Once a vertex's component is listed, its index is set to n, above every
    low-link, so only vertices still on the stack can lower one.

    Components come in Tarjan's completion order: every edge between two
    components runs from a later-listed one to an earlier-listed one.
    Members are sorted, and a singleton without a self-loop is trivial.
    """
    n = len(g.states)
    adj = [[] for _ in range(n)]
    for src, dst, _ in g.edges:
        adj[src].append(dst)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    components: list[SccComponent] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        path = [(root, iter(adj[root]))]
        while path:
            v, successors = path[-1]
            if index[v] < 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            for u in successors:
                if index[u] < 0:
                    path.append((u, iter(adj[u])))
                    break
                if index[u] < low[v]:
                    low[v] = index[u]
            else:
                path.pop()
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    for u in members:
                        index[u] = n
                    trivial = len(members) == 1 and v not in adj[v]
                    components.append(SccComponent(tuple(sorted(members)), trivial))
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[v])
    return tuple(components)


def has_biinfinite_path(g: LabeledGraph) -> bool:
    """True iff the graph contains a directed cycle."""
    return len(essential_form(g).states) > 0


def _require_labeled(g: LabeledGraph) -> None:
    if not g.is_labeled:
        raise UnlabeledError("operation requires a labeled presentation")


def _packed_rows(n: int, sides: Iterable[tuple[int, Iterable[Edge]]], reverse: bool) -> list[int]:
    """Per state of a union of labeled graphs, given as (offset, edges)
    pairs over n states in all, the states that its x-labeled edges reach,
    for every x at once: packed into one int, those on symbol x from bit
    x*n.  Against the edges when ``reverse``."""
    rows = [0] * n
    for offset, edges in sides:
        if reverse:
            for src, dst, lab in edges:
                rows[dst + offset] |= 1 << (lab * n + src + offset)
        else:
            for src, dst, lab in edges:
                rows[src + offset] |= 1 << (lab * n + dst + offset)
    return rows


class _ByteRows(dict):
    """Packed successors of the sets of up to eight states that the bits of
    one byte of a subset mask pick, filled in on first lookup."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[int]):
        self.rows = rows  # packed successors of the byte's states, low bit first
        self[0] = 0

    def __missing__(self, bits: int) -> int:
        out = 0
        rest = bits
        rows = self.rows
        while rest:
            low = rest & -rest
            out |= rows[low.bit_length() - 1]
            rest ^= low
        self[bits] = out
        return out


def _subset_rows(packed: list[int]) -> Callable[[list[int]], list[int]]:
    """``rows(masks)``: the packed successors, as ``_packed_rows`` packs a
    state's, of each subset bit mask of ``masks``; a mask's successors on
    symbol x are ``row >> x*n & (1 << n) - 1``, 0 being dead.

    A subset's packed successors are the OR of one table lookup per byte of
    its mask.  The tables fill in as the masks met pick new sets of states,
    which the masks of one search share widely, so a step costs a few
    lookups, not one per member.  Many masks at once are cut into byte
    columns and looked up a column at a time.
    """
    n = len(packed)
    width = (n + 7) // 8
    tables = [_ByteRows(packed[base : base + 8]) for base in range(0, n, 8)]
    if width == 1:
        only = tables[0].__getitem__
        return lambda masks: list(map(only, masks))
    if width == 2:
        low, high = tables
        return lambda masks: [low[m & 255] | high[m >> 8] for m in masks]
    lookups = [table.__getitem__ for table in tables]

    def rows(masks: list[int]) -> list[int]:
        if len(masks) < width:  # too few masks to pay for cutting columns
            return [reduce(or_, map(getitem, tables, m.to_bytes(width, "little"))) for m in masks]
        columns = b"".join([m.to_bytes(width, "little") for m in masks])
        out = list(map(lookups[0], columns[0::width]))
        for c in range(1, width):
            out = list(map(or_, out, map(lookups[c], columns[c::width])))
        return out

    return rows


def _path_reader(g: LabeledGraph) -> Callable[[Iterable[int]], bool]:
    """``reads(word)``: whether some path of ``g`` reads the word, given as
    symbol indices.  The word's mask of states starts from every state and
    steps a symbol at a time through ``_subset_rows``, whose tables serve
    every word read; on an essential presentation this decides membership
    in the factor language, the empty word being read iff ``g`` has a
    state."""
    n = len(g.states)
    step = _subset_rows(_packed_rows(n, [(0, g.edges)], False))
    full = (1 << n) - 1

    def reads(word: Iterable[int]) -> bool:
        mask = full
        for x in word:
            if not mask:
                return False
            mask = step([mask])[0] >> x * n & full
        return mask != 0

    return reads


def determinize_factor_acceptor(a: LabeledGraph) -> Dfa:
    """Subset construction with every state initial.

    The accepted language is the set of label words of finite paths in ``a``;
    on an essential presentation this is the factor language of the presented
    shift.  Only reachable subsets are materialized and the empty subset is
    discarded (it becomes the implicit dead state).  A subset is a bit mask
    over the states of ``a``; subsets are numbered in breadth-first order,
    the successors of each in symbol order.

    No decision procedure builds every reachable subset: the selfmap check
    (``_path_reader``) and the containment and equality checks step only
    the masks that their words or their search meet.  The tests keep
    this construction as their oracle, and the benchmark's tracer
    (``bench/tracer.py``) binds it by name.
    """
    _require_labeled(a)
    n = len(a.states)
    if not n:
        return Dfa(a.alphabet, (), None)
    k = a.alphabet.size
    step = _subset_rows(_packed_rows(n, [(0, a.edges)], False))
    shifts = range(0, k * n, n)
    full = (1 << n) - 1
    initial = full
    ids = {initial: 0}
    frontier = [initial]
    rows: list[tuple[int, ...]] = []
    while frontier:
        found = []
        nxt = []
        for target in [row >> shift & full for row in step(frontier) for shift in shifts]:
            if not target:
                found.append(_DEAD)
                continue
            q = ids.get(target)
            if q is None:
                q = ids[target] = len(ids)
                nxt.append(target)
            found.append(q)
        rows += [tuple(found[i : i + k]) for i in range(0, len(found), k)]
        frontier = nxt
    return Dfa(a.alphabet, tuple(rows), 0)


class _Levels:
    """One direction of the divergence search: breadth-first levels of
    masks over the ``n`` states of both sides, side 1 in the low ``n1``
    bits and side 2 above them, each mask listed once, at the first level
    that meets it.

    Forward (``wants`` None), level d holds the masks that words of length
    d reach from the root, each with the length-lex least such word, in
    the order of those words; a mask with a dead side is not kept.
    Backward, level d holds the masks of the states from which words of
    length d can be read, each with the lexicographically least such word,
    in that order; a mask is kept while side 1, or side 2 if ``wants`` is
    true, can still read on.  ``succ[d]`` lists the successors of level d
    as they were generated, so each kept mask's word is rebuilt from the
    first successor equal to it.
    """

    def __init__(
        self,
        root: int,
        step: Callable[[list[int]], list[int]],
        k: int,
        n: int,
        n1: int,
        wants: bool | None,
    ):
        self.nodes: list[list[int]] = [[root]]
        self.succ: list[list[int]] = []
        # the backward root is not marked seen: it pairs with the forward
        # root only through nonempty words, so it may be listed once more
        self.seen = {root} if wants is None else set()
        self.step = step
        self.k = k
        self.shifts = range(0, k * n, n)
        self.full = (1 << n) - 1
        self.low = (1 << n1) - 1  # side 1; a mask above it has side 2 alive
        self.wants = wants

    def extend(self) -> list[int]:
        """Add and return the next level, empty when no mask is new."""
        rows = self.step(self.nodes[-1])
        full, low, seen = self.full, self.low, self.seen
        if self.wants is None:  # words grow at the back, so the node leads
            succ = [row >> shift & full for row in rows for shift in self.shifts]
            level = [m for m in dict.fromkeys(succ) if m & low and m > low and m not in seen]
        else:  # words grow at the front, so the symbol leads
            succ = [row >> shift & full for shift in self.shifts for row in rows]
            want2 = self.wants
            level = [
                m for m in dict.fromkeys(succ) if (m & low or want2 and m > low) and m not in seen
            ]
        seen.update(level)
        self.succ.append(succ)
        self.nodes.append(level)
        return level

    def word(self, depth: int, index: int) -> list[int]:
        """The word listed with mask ``index`` of level ``depth``."""
        out = []
        while depth:
            lane = self.succ[depth - 1].index(self.nodes[depth][index])
            if self.wants is None:
                index, symbol = divmod(lane, self.k)
            else:
                symbol, index = divmod(lane, len(self.nodes[depth - 1]))
            out.append(symbol)
            depth -= 1
        return out[::-1] if self.wants is None else out


def _first_meeting(
    ahead: list[int], behind: list[int], n1: int, want_side2: bool
) -> tuple[int, int] | None:
    """The first (i, j), in that order, such that exactly one side stays
    alive when mask ``ahead[i]`` of the forward search reads a word from
    mask ``behind[j]`` of the backward search, that side being side 1 or,
    if ``want_side2``, side 2: a side stays alive iff its parts of the two
    masks meet, side 1 in the low ``n1`` bits."""
    low = (1 << n1) - 1
    for i, x in enumerate(ahead):
        for j, y in enumerate(behind):
            both = x & y
            if both > low:  # side 2 alive
                if want_side2 and not both & low:
                    return i, j
            elif both:
                return i, j
    return None


# The search runs forward alone while its levels hold at most this many
# masks, checking each new level's successors directly; past that it also
# searches backward, where levels that small cost more in per-round work
# than the rounds they save.
_ONE_ENDED_WIDTH = 16

# Forward and backward masks the divergence search pairs, over all its
# meetings, before it refuses.  Timed on binary rules (CPython 3.11, 2
# vCPUs): the radius-4 rules of `bench/worker.py blowup` at seeds 1-30 and
# 4099 pair at most 12.7M in one search (seed 23) and answer in at most
# 1.1 s; random radius-5 rules at seeds 1 and 2 reach this budget in 6-8 s
# at a 31 MB process peak.
_MAX_MASK_PAIRS = 2**26


def _shortest_divergence(a1: LabeledGraph, a2: LabeledGraph, want_side2: bool) -> Word | None:
    """Shortest word read by ``a1`` only or, if ``want_side2``, by ``a2``
    only.  Of the shortest, the lexicographically least.

    A breadth-first search over masks of the states of both sides.
    Forward levels hold the masks that words reach from the mask of every
    state of both graphs (the subsets of their factor acceptors), and
    while they stay narrow each new level's successors are checked for a
    divergence directly, one length per level.  Once a level is wider than
    ``_ONE_ENDED_WIDTH`` the search also runs backward, over the masks of
    the states from which words can be read (``_Levels``): a word u*v
    diverges iff the forward mask of u and the backward mask of v meet on
    exactly one side.  Each round then adds a level to the direction whose
    last level is smaller, and tries the next length by pairing the newest
    levels of both directions.  A shortest divergent word splits there
    into a forward word and a backward word, both listed with their masks
    (a mask met at a shorter depth would give a shorter divergent word),
    so the first meeting found gives the length-lex least witness.  The
    search ends without one when a new level is empty: every longer
    divergent word would need a mask there.  Before each meeting the
    search adds up the mask pairs it is about to try, and past
    ``_MAX_MASK_PAIRS`` it refuses with ``TooLargeError``.
    """
    _require_labeled(a1)
    _require_labeled(a2)
    if a1.alphabet != a2.alphabet:
        raise AlphabetMismatchError("acceptors over different alphabets")
    n1 = len(a1.states)
    n = n1 + len(a2.states)
    if not n:
        return None
    k = a1.alphabet.size
    sides = [(0, a1.edges), (n1, a2.edges)]
    rows = _subset_rows(_packed_rows(n, sides, False))
    ahead = _Levels((1 << n) - 1, rows, k, n, n1, None)
    full, low, shifts, seen = ahead.full, ahead.low, ahead.shifts, ahead.seen
    level = ahead.nodes[-1]
    while len(level) <= _ONE_ENDED_WIDTH:  # forward alone, a mask at a time
        succ: list[int] = []
        nxt = []
        for packed in rows(level):
            for shift in shifts:
                m = packed >> shift & full
                succ.append(m)
                if m & low and m > low:
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
                elif m & low or want_side2 and m > low:
                    parent, symbol = divmod(len(succ) - 1, k)
                    u = ahead.word(len(ahead.nodes) - 1, parent)
                    return Word(a1.alphabet, tuple(u + [symbol]))
        ahead.succ.append(succ)
        ahead.nodes.append(nxt)
        if not nxt:
            return None
        level = nxt
    backward = _subset_rows(_packed_rows(n, sides, True))
    behind = _Levels((1 << n) - 1, backward, k, n, n1, want_side2)
    paired = 0
    while True:
        if len(behind.nodes) == 1 or len(behind.nodes[-1]) < len(ahead.nodes[-1]):
            grown = behind.extend()
        else:
            grown = ahead.extend()
        if not grown:
            return None
        paired += len(ahead.nodes[-1]) * len(behind.nodes[-1])
        if paired > _MAX_MASK_PAIRS:
            raise TooLargeError(
                f"the divergence search over {n1} and {n - n1} states paired "
                f"more than {_MAX_MASK_PAIRS} masks without an answer"
            )
        hit = _first_meeting(ahead.nodes[-1], behind.nodes[-1], n1, want_side2)
        if hit is not None:
            u = ahead.word(len(ahead.nodes) - 1, hit[0])
            v = behind.word(len(behind.nodes) - 1, hit[1])
            return Word(a1.alphabet, tuple(u + v))


def dfa_language_equal(d1: LabeledGraph, d2: LabeledGraph) -> tuple[bool, Word | None]:
    """Decide factor-language equality of two labeled graphs, each read as
    its factor acceptor and determinized on demand.  Returns (True, None)
    or (False, w) with w the length-lex least word in the symmetric
    difference of the two languages.
    """
    witness = _shortest_divergence(d1, d2, True)
    return (witness is None, witness)


def dfa_language_subset(d1: LabeledGraph, d2: LabeledGraph) -> tuple[bool, Word | None]:
    """Decide factor-language containment L(d1) <= L(d2) of two labeled
    graphs determinized on demand; the witness, if any, is the length-lex
    least word read by d1 but not d2."""
    witness = _shortest_divergence(d1, d2, False)
    return (witness is None, witness)


def product_automaton(a: LabeledGraph) -> LabeledGraph:
    """Pair automaton synchronizing equal labels.

    The pair (p,q) of states of ``a`` is the state ``p*n + q`` (n states in
    ``a``), and that code is also its name, so it survives trimming; the
    diagonal is p == q.  There is an edge (p,q) -> (r,s) labeled x whenever
    ``a`` has edges p -> r and q -> s both labeled x.  A bi-infinite path
    through a surviving non-diagonal state is a pair of distinct
    equally-labeled bi-infinite paths of ``a``.

    No decision procedure builds this N^2 graph: injectivity and
    pre-injectivity (``localmaps``) walk unordered pairs on the fly.  It
    stays public as the explicit construction, which the benchmark's tracer
    (``bench/tracer.py``) also binds by name.
    """
    _require_labeled(a)
    n = len(a.states)
    by_label: dict[int, list[tuple[int, int]]] = {}
    for src, dst, lab in a.edges:
        by_label.setdefault(lab, []).append((src, dst))
    edges = [
        (p * n + q, r * n + s, lab)
        for lab, moves in by_label.items()
        for p, r in moves
        for q, s in moves
    ]
    return LabeledGraph(tuple(range(n * n)), edges, a.alphabet)


def parse_presentation(text: str) -> LabeledGraph:
    """Parse the .pres interchange format: a JSON document with fields
    ``states`` (state names), ``edges`` (records {from, to, label?}) and
    ``alphabet`` (symbol tokens, required when any edge is labeled)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(e.msg, e.lineno) from None
    except RecursionError:
        raise FormatError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise FormatError("presentation document must be an object")
    if "states" not in data:
        raise FormatError("missing field: states")
    if not _is_string_list(data["states"]):
        raise FormatError("states must be a list of state names (strings)")
    states = tuple(data["states"])
    alphabet = None
    if data.get("alphabet") is not None:
        if not _is_string_list(data["alphabet"]):
            raise FormatError("alphabet must be a list of symbols (strings)")
        try:
            alphabet = Alphabet(tuple(data["alphabet"]))
        except ValueError as e:
            raise FormatError(str(e)) from None
    records = data.get("edges", [])
    if not isinstance(records, list):
        raise FormatError("edges must be a list of edge records")
    index = {s: i for i, s in enumerate(states)}
    edges = []
    for rec in records:
        if not isinstance(rec, dict) or "from" not in rec or "to" not in rec:
            raise FormatError(f"bad edge record {rec!r}")
        for endpoint in (rec["from"], rec["to"]):
            if not isinstance(endpoint, str) or endpoint not in index:
                raise FormatError(f"edge endpoint {endpoint!r} is not a state")
        label = None
        if rec.get("label") is not None:
            if alphabet is None:
                raise FormatError("labeled edge requires an alphabet field")
            if not isinstance(rec["label"], str):
                raise FormatError(f"edge label {rec['label']!r} is not a symbol")
            label = alphabet.index(rec["label"])
        edges.append((index[rec["from"]], index[rec["to"]], label))
    try:
        return LabeledGraph(states, tuple(edges), alphabet)
    except ValueError as e:
        raise FormatError(str(e)) from None


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def format_presentation(g: LabeledGraph) -> str:
    """The .pres text of a graph.  Every state name is written as a string:
    a word, a tuple of symbol indices, as the word's text when the graph
    has an alphabet, and any other name as ``str`` writes it.  Two states
    whose names come out as one string are refused with ``ValueError``,
    since the file could not be read back."""
    names = [
        Word(g.alphabet, s).text() if isinstance(s, tuple) and g.alphabet is not None else str(s)
        for s in g.states
    ]
    if len(set(names)) < len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"two states would both be written as {twice!r}")
    doc: dict = {"states": names}
    if g.alphabet is not None:
        doc["alphabet"] = list(g.alphabet.symbols)
    recs = []
    for src, dst, lab in g.edges:
        rec = {"from": names[src], "to": names[dst]}
        if lab is not None:
            rec["label"] = g.alphabet.symbols[lab]
        recs.append(rec)
    doc["edges"] = recs
    return json.dumps(doc, indent=2) + "\n"


def load_presentation(path: str | Path) -> LabeledGraph:
    try:
        return parse_presentation(read_input(path))
    except FormatError as e:
        raise FormatError(e.message, e.line, str(path)) from None


def save_presentation(g: LabeledGraph, path: str | Path) -> None:
    Path(path).write_text(format_presentation(g))
