"""Finite directed multigraphs with optional edge labels.

Unlabeled graphs present edge shifts; labeled graphs (finite automata)
present sofic shifts.  Factor-language acceptors use "all states initial,
all states accepting" semantics: on an essential presentation the accepted
language is exactly the factor language of the presented shift, so language
equality of the determinized acceptors decides equality of the shifts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .core import Alphabet, Word, read_input
from .errors import AlphabetMismatchError, FormatError, UnlabeledError

Edge = tuple[int, int, int | None]  # (source state, target state, label index)

_DEAD = -1


@dataclass(frozen=True)
class LabeledGraph:
    """Directed multigraph over named states.

    Either every edge is labeled (with an index into ``alphabet``) or none
    is.  A state's name is a string in a graph read from a ``.pres`` file,
    its pair code in a pair automaton (see ``product_automaton``), and its
    word, a tuple of symbol indices, in a higher-block graph (see
    ``shifts.build_higher_block``) and the graphs derived from one.
    """

    states: tuple[str | int | tuple[int, ...], ...]
    edges: tuple[Edge, ...]
    alphabet: Alphabet | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        # tuple() of a list, not of an iterator: a tuple built from an
        # iterator of unknown length is allocated and then resized, and when
        # it dies CPython keeps it on its free list for small tuples, which
        # only a full collection empties, so per-rule graphs would add one
        # block each until that list is full
        object.__setattr__(self, "edges", tuple([tuple(e) for e in self.edges]))
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


@dataclass(frozen=True)
class SccComponent:
    states: tuple[int, ...]
    trivial: bool


@dataclass(frozen=True)
class Dfa:
    """Deterministic factor-language acceptor: every state accepts.

    ``transitions[q][a]`` is the successor state or -1 when undefined; a word
    is accepted iff its run from ``initial`` stays defined.  ``initial`` is
    None only for the acceptor of an empty presentation, which accepts just
    the empty word.
    """

    alphabet: Alphabet
    transitions: tuple[tuple[int, ...], ...]
    initial: int | None

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def run(self, indices: Iterable[int]) -> int | None:
        q = self.initial
        for a in indices:
            if q is None:
                return None
            nxt = self.transitions[q][a]
            q = nxt if nxt != _DEAD else None
        return q

    def accepts(self, word: Word) -> bool:
        if word.alphabet != self.alphabet:
            raise AlphabetMismatchError("word over a different alphabet")
        if len(word) == 0:
            return True
        return self.run(word.indices) is not None


def essential_form(g: LabeledGraph) -> LabeledGraph:
    """Maximal subgraph in which every state has an incoming and an outgoing
    edge.  Removing stranded states leaves the bi-infinite paths unchanged;
    the result is empty iff the graph has no cycle.

    A worklist over in- and out-degree counters: each removed state
    decrements the counters of its live neighbours once per edge.  Kept
    states stay in their order and edges in theirs; a graph with no
    stranded state is returned as it is.
    """
    n = len(g.states)
    srcs, dsts, _ = zip(*g.edges) if g.edges else ((), (), ())
    if len(set(srcs)) == n == len(set(dsts)):
        return g
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for src, dst, _ in g.edges:
        succ[src].append(dst)
        pred[dst].append(src)
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
    edges = [(remap[s], remap[d], lab) for s, d, lab in g.edges if alive[s] and alive[d]]
    return LabeledGraph(tuple([g.states[q] for q in kept]), edges, g.alphabet)


def scc_decomposition(g: LabeledGraph) -> tuple[SccComponent, ...]:
    """Strongly connected components (Tarjan, single pass, iterative).

    Singleton components without a self-loop are marked trivial.
    """
    n = len(g.states)
    adj = [[] for _ in range(n)]
    self_loop = [False] * n
    for src, dst, _ in g.edges:
        adj[src].append(dst)
        if src == dst:
            self_loop[src] = True

    index: list[int | None] = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[SccComponent] = []
    counter = 0

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, child_pos = work.pop()
            if child_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(child_pos, len(adj[v])):
                u = adj[v][i]
                if index[u] is None:
                    work.append((v, i + 1))
                    work.append((u, 0))
                    descended = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if descended:
                continue
            if low[v] == index[v]:
                members = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    members.append(u)
                    if u == v:
                        break
                members.sort()
                trivial = len(members) == 1 and not self_loop[members[0]]
                components.append(SccComponent(tuple(members), trivial))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return tuple(components)


def has_biinfinite_path(g: LabeledGraph) -> bool:
    """True iff the graph contains a directed cycle."""
    return len(essential_form(g).states) > 0


def _require_labeled(g: LabeledGraph) -> None:
    if not g.is_labeled:
        raise UnlabeledError("operation requires a labeled presentation")


def determinize_factor_acceptor(a: LabeledGraph) -> Dfa:
    """Subset construction with every state initial.

    The accepted language is the set of label words of finite paths in ``a``;
    on an essential presentation this is the factor language of the presented
    shift.  Only reachable subsets are materialized and the empty subset is
    discarded (it becomes the implicit dead state).  A subset is a bit mask
    over the states of ``a``; subsets are numbered in breadth-first order,
    the successors of each in symbol order.
    """
    _require_labeled(a)
    n = len(a.states)
    if not n:
        return Dfa(a.alphabet, (), None)
    # moves[sym][q]: the mask of the states q reaches on sym
    moves = [[0] * n for _ in range(a.alphabet.size)]
    for src, dst, lab in a.edges:
        moves[lab][src] |= 1 << dst
    initial = (1 << n) - 1
    ids = {initial: 0}
    queue = deque([initial])
    rows: list[tuple[int, ...]] = []
    while queue:
        subset = queue.popleft()
        members = []
        while subset:
            low = subset & -subset
            members.append(low.bit_length() - 1)
            subset ^= low
        row = []
        for by_state in moves:
            target = 0
            for q in members:
                target |= by_state[q]
            if not target:
                row.append(_DEAD)
                continue
            if target not in ids:
                ids[target] = len(ids)
                queue.append(target)
            row.append(ids[target])
        rows.append(tuple(row))
    return Dfa(a.alphabet, tuple(rows), 0)


def _shortest_divergence(
    d1: Dfa, d2: Dfa, want_side1: bool, want_side2: bool
) -> Word | None:
    """BFS over the pair automaton with dead-state completion.

    Returns the shortest word on which exactly one automaton stays alive,
    restricted to the requested side(s): side 1 means accepted by ``d1``
    only.  Branches that diverge on an unrequested side are pruned (a dead
    side never revives).
    """
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("acceptors over different alphabets")
    k = d1.alphabet.size
    start = (
        d1.initial if d1.initial is not None else _DEAD,
        d2.initial if d2.initial is not None else _DEAD,
    )
    if start == (_DEAD, _DEAD):
        return None
    parents: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    queue = deque([start])

    def rebuild(node: tuple[int, int], last: int) -> Word:
        out = [last]
        while parents[node] is not None:
            node, sym = parents[node]
            out.append(sym)
        return Word(d1.alphabet, tuple(reversed(out)))

    while queue:
        node = queue.popleft()
        q1, q2 = node
        for sym in range(k):
            r1 = d1.transitions[q1][sym] if q1 != _DEAD else _DEAD
            r2 = d2.transitions[q2][sym] if q2 != _DEAD else _DEAD
            if r1 == _DEAD and r2 == _DEAD:
                continue
            if r1 == _DEAD or r2 == _DEAD:
                side1 = r2 == _DEAD
                if (side1 and want_side1) or (not side1 and want_side2):
                    return rebuild(node, sym)
                continue
            child = (r1, r2)
            if child not in parents:
                parents[child] = (node, sym)
                queue.append(child)
    return None


def dfa_language_equal(d1: Dfa, d2: Dfa) -> tuple[bool, Word | None]:
    """Decide factor-language equality.

    Returns (True, None) or (False, w) with w a shortest word in the
    symmetric difference of the two languages.
    """
    witness = _shortest_divergence(d1, d2, True, True)
    return (witness is None, witness)


def dfa_language_subset(d1: Dfa, d2: Dfa) -> tuple[bool, Word | None]:
    """Decide language containment L(d1) <= L(d2); the witness, if any, is a
    shortest word accepted by d1 but not d2."""
    witness = _shortest_divergence(d1, d2, True, False)
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
    """The .pres text of a graph; a state named by a word is written as the
    word's text."""
    names = [Word(g.alphabet, s).text() if isinstance(s, tuple) else s for s in g.states]
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
