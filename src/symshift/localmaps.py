"""Local rules (sliding block codes) and their decision procedures.

A rule is an extensional table from allowed windows of length 2*radius+1 to
output symbols.  All decisions run on one labeled graph: the essential
higher-block presentation of the domain at order 2*M', M' = max(radius,
ceil(memory/2)), whose states are the domain's blocks of that length as
index tuples, relabeled so that each edge carries the output of the rule on
the window sliced from the merged blocks at its two ends.
``build_image_presentation`` builds it, and ``is_surjective``,
``is_injective`` and ``is_preinjective`` each start from it.  Bi-infinite
paths of that graph are the domain configurations and their label
sequences are the images, so the graph presents the image shift:

  - surjectivity onto a target reduces to factor-language containment both
    ways between the image presentation and the target's factor acceptor
    (the one full ``Dfa`` built here): image inside target by reachability
    over pairs (image state, target state), with no subsets, and target
    inside image by the divergence search of ``graphs``, which builds only
    the image subsets it visits and meets a shortest orphan from both of
    its ends;
  - pre-injectivity fails iff some off-diagonal pair lies on a finite
    excursion that starts and ends on the diagonal of the pair graph of the
    image presentation (pairs of states, edges on equal labels);
  - injectivity fails iff there is such an excursion or a cycle through
    off-diagonal pairs alone.

Both pair questions are forward searches on unordered pairs of states
generated on the fly from the image's forward adjacency by label, never on
a materialized N^2 pair automaton: the swap of the two components is a
symmetry of the pair graph that fixes the diagonal.  The excursion search
stops at its first return to the diagonal; the cycle search is a
depth-first search over every off-diagonal pair.

Essential trimming looks only at the graph's structure, never at its
labels, so every rule of one radius on one domain relabels the same trimmed
graph, the domain skeleton.  ``surjunctivity_audit`` builds that skeleton
once per (order, radius) and, per rule, looks up one output per edge,
runs both containments and then the pair questions, the excursion search
first: an excursion settles both, and without one only the cycle search
is left.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .core import (
    PeriodicConfig,
    SftSpec,
    Word,
    _Frozen,
    _set,
    enumerate_locally_allowed,
    normalize_periodic,
    periodization_allowed,
    read_input,
)
from .errors import (
    AlphabetMismatchError,
    DensityUnknownError,
    EmptyShiftError,
    FormatError,
    NotASelfmapError,
    NotInDomainError,
    RuleConflictError,
    RuleIncompleteError,
)
from .graphs import Dfa, LabeledGraph, dfa_language_subset
from .shifts import (
    allowed_word_count,
    factor_acceptor,
    is_irreducible,
    periodic_density,
    presentation,
)


class LocalRule(_Frozen):
    """A radius-M local map table over the allowed windows of its domain.

    The table must cover every locally allowed window of length 2M+1;
    entries on windows containing forbidden factors are dropped silently,
    so one rule file can serve several domain specs.  A rule equals only
    itself.
    """

    __slots__ = _fields = ("domain", "radius", "table", "name")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, domain: SftSpec, radius: int, table: dict[tuple[int, ...], int], name: str = ""
    ):
        _set(self, "domain", domain)
        _set(self, "radius", radius)
        _set(self, "table", table)
        _set(self, "name", name)
        self.__post_init__()  # looked up on the class: bench/tracer.py wraps it there

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        width = 2 * self.radius + 1
        size = self.domain.alphabet.size
        kept = {}
        for window, out in self.table.items():
            window = tuple(window)
            if len(window) != width:
                raise ValueError(f"window {window} does not have length {width}")
            if not (0 <= out < size) or any(not (0 <= a < size) for a in window):
                raise ValueError("symbol index out of alphabet range")
            kept[window] = out
        allowed = _allowed_windows(self.domain, width)
        for window in allowed:
            if window not in kept:
                raise _incomplete(Word(self.domain.alphabet, window))
        _set(self, "table", {w: kept[w] for w in allowed})

    @property
    def window_length(self) -> int:
        return 2 * self.radius + 1


def _incomplete(window: Word) -> RuleIncompleteError:
    return RuleIncompleteError(f"rule has no entry for allowed window {window.text()!r}")


@lru_cache(maxsize=16)
def _allowed_windows(domain: SftSpec, width: int) -> tuple[tuple[int, ...], ...]:
    """The locally allowed windows of one width, lexicographically."""
    return tuple(enumerate_locally_allowed(domain, width))


ImagePresentation = namedtuple("ImagePresentation", "half_order graph")
ImagePresentation.__doc__ = """The essential higher-block graph of the domain at order 2*M'
(``half_order`` is M'), its edges labeled with the rule outputs: it
presents the image shift.  Its states are the domain's blocks, as
tuples of symbol indices."""


def common_half_order(rule: LocalRule) -> int:
    """The normalization parameter M' absorbing both the domain memory and
    the rule radius into one block length 2*M'."""
    return max(rule.radius, (rule.domain.memory + 1) // 2)


def build_image_presentation(rule: LocalRule) -> ImagePresentation:
    half = common_half_order(rule)
    return ImagePresentation(half, _skeleton(rule.domain, half, rule.radius).relabel(rule))


class _Skeleton(namedtuple("_Skeleton", "graph windows")):
    """The essential higher-block graph of a domain at order 2*M' and, per
    edge, the window of length 2r+1 that a radius-r rule reads there.
    Relabeling it with a rule's outputs gives that rule's image
    presentation."""

    __slots__ = ()

    def relabel(self, rule: LocalRule) -> LabeledGraph:
        table = rule.table
        edges = [(s, d, table[w]) for (s, d, _), w in zip(self.graph.edges, self.windows)]
        return LabeledGraph(self.graph.states, edges, self.graph.alphabet)


def _skeleton(domain: SftSpec, half: int, radius: int) -> _Skeleton:
    """The skeleton for radius-r rules.  Its states are blocks of length
    2*M', so the window an edge reads is sliced from the merged word of its
    two ends; edges keep the order of their merged words."""
    graph = presentation(domain, 2 * half)
    if not graph.states:
        raise EmptyShiftError("the domain shift is empty")
    words = graph.states
    lo = half - radius
    hi = half + radius + 1
    windows = tuple([(words[s] + words[d][-1:])[lo:hi] for s, d, _ in graph.edges])
    return _Skeleton(graph, windows)


def apply_to_periodic(rule: LocalRule, config: PeriodicConfig) -> PeriodicConfig:
    """Image of a periodic configuration, computed cyclically over one period
    and renormalized; the image's least period divides the input's."""
    if config.alphabet != rule.domain.alphabet:
        raise AlphabetMismatchError("configuration over a different alphabet")
    if not periodization_allowed(rule.domain, config.primitive):
        raise NotInDomainError("configuration is not in the domain shift")
    r = rule.radius
    n = config.least_period
    image = tuple(
        rule.table[tuple(config.value_at(z + d) for d in range(-r, r + 1))]
        for z in range(n)
    )
    return normalize_periodic(Word(config.alphabet, image))


def _compare_with_target(image: LabeledGraph, goal: Dfa) -> tuple[bool, Word | None]:
    """Containment both ways between an essential image presentation and the
    target's factor acceptor: (into, orphan).

    ``into`` says whether every image word is a target word.  That is plain
    reachability over pairs (image state, target state), from every image
    state paired with the target's initial state, and it fails iff some
    reachable pair steps to the dead state on an image edge: no subsets of
    image states are built.  When ``into`` is False the orphan is None; the
    caller that needs a stray word asks ``dfa_language_subset(image,
    goal)``.  Otherwise the orphan is the length-lex least of the shortest
    target words outside the image, or None when the map is onto, from
    ``dfa_language_subset(goal, image)``, which determinizes the image only
    as far as its search goes.
    """
    if goal.initial is None:
        return not image.edges, None
    fwd = _label_moves(image)
    table = goal.transitions
    m = len(table)
    seen = bytearray(len(image.states) * m)
    stack = list(range(goal.initial, len(seen), m))  # the pairs (p, initial)
    for code in stack:
        seen[code] = 1
    while stack:
        p, q = divmod(stack.pop(), m)
        row = table[q]
        for sym, moves in enumerate(fwd):
            rs = moves[p]
            if rs:
                t = row[sym]
                if t < 0:
                    return False, None
                for r in rs:
                    code = r * m + t
                    if not seen[code]:
                        seen[code] = 1
                        stack.append(code)
    return True, dfa_language_subset(goal, image)[1]


def is_surjective(rule: LocalRule, target: SftSpec | None = None) -> tuple[bool, Word | None]:
    """Decide whether the rule maps its domain onto the target shift
    (default: the domain itself).

    Returns (True, None) or (False, w) with w a shortest target word without
    preimage, i.e. a Garden-of-Eden witness.  Raises when the image is not
    inside the target.
    """
    if target is None:
        target = rule.domain
    if target.alphabet != rule.domain.alphabet:
        raise AlphabetMismatchError("target over a different alphabet")
    image = build_image_presentation(rule).graph
    goal = factor_acceptor(target)
    into, orphan = _compare_with_target(image, goal)
    if not into:
        stray = dfa_language_subset(image, goal)[1]
        raise NotASelfmapError(
            f"image word {stray.text()!r} lies outside the target language"
        )
    return (orphan is None, orphan)


def find_goe_pattern(rule: LocalRule, target: SftSpec | None = None) -> Word | None:
    """Shortest orphan pattern of the target, or None when the rule is
    surjective (no pattern lacks a preimage)."""
    return is_surjective(rule, target)[1]


def _label_moves(image: LabeledGraph) -> list[list[list[int]]]:
    """``moves[x][p]``: the targets of the x-labeled edges leaving state p of
    ``image``."""
    moves: list[list[list[int]]] = [[[] for _ in image.states] for _ in image.alphabet.symbols]
    for src, dst, lab in image.edges:
        moves[lab][src].append(dst)
    return moves


# The pair graph of an image presentation with n states has an edge
# (p,q) -> (r,s) labeled x when p -> r and q -> s are both labeled x.  The
# swap (p,q) <-> (q,p) is an automorphism of it that fixes the diagonal, so
# it maps excursions off the diagonal and cycles off it to walks of the same
# kind; the functions below therefore work on unordered pairs {p,q}, coded
# p*n + q with p < q (p == q is the diagonal), and generate the successors
# of a pair on the fly from the forward label moves.  A cycle of unordered
# pairs lifts to a cycle of ordered pairs at most twice as long.


def _has_excursion(fwd: list[list[list[int]]], n: int) -> bool:
    """True iff two distinct equally labeled paths of the image leave a
    common state and meet again: a forward search from the off-diagonal
    successors of the diagonal that stops at its first return to it."""
    seen = bytearray(n * n)
    stack = []
    for moves in fwd:
        for targets in moves:
            for i, r in enumerate(targets):
                for s in targets[i + 1 :]:
                    if r != s:
                        code = r * n + s if r < s else s * n + r
                        if not seen[code]:
                            seen[code] = 1
                            stack.append(code)
    while stack:
        p, q = divmod(stack.pop(), n)
        for moves in fwd:
            rs = moves[p]
            if rs:
                ss = moves[q]
                for r in rs:
                    for s in ss:
                        if r < s:
                            code = r * n + s
                        elif r > s:
                            code = s * n + r
                        else:
                            return True
                        if not seen[code]:
                            seen[code] = 1
                            stack.append(code)
    return False


def _has_off_diagonal_cycle(fwd: list[list[list[int]]], n: int) -> bool:
    """True iff the off-diagonal pairs carry a cycle (a self-loop counts):
    a depth-first search rooted at every off-diagonal pair, not only at
    those the diagonal reaches, since on a reducible domain a cycle may lie
    out of its reach.  ``colour`` is 0 for a pair not yet entered, 1 for
    one on the search path and 2 for a finished one; the stack holds pairs
    to enter and, as ``~code``, pairs to finish."""
    colour = bytearray(n * n)
    for p in range(n):
        end = (p + 1) * n
        root = colour.find(0, p * n + p + 1, end)
        while root >= 0:
            stack = [root]
            while stack:
                code = stack.pop()
                if code < 0:
                    colour[~code] = 2
                    continue
                if colour[code]:  # finished by another route since it was pushed
                    continue
                colour[code] = 1
                stack.append(~code)
                a, b = divmod(code, n)
                for moves in fwd:
                    rs = moves[a]
                    if rs:
                        ss = moves[b]
                        for r in rs:
                            for s in ss:
                                if r < s:
                                    nxt = r * n + s
                                elif r > s:
                                    nxt = s * n + r
                                else:
                                    continue
                                seen = colour[nxt]
                                if seen == 1:
                                    return True
                                if not seen:
                                    stack.append(nxt)
            root = colour.find(0, root + 1, end)
    return False


def _pair_verdicts(image: LabeledGraph) -> tuple[bool, bool]:
    """(injective, pre-injective) of the map whose essential image
    presentation is ``image``.

    An excursion means the map is neither pre-injective nor, since
    injective implies pre-injective, injective.  Without one, the map is
    pre-injective, and injective iff no cycle runs through off-diagonal
    pairs alone.
    """
    n = len(image.states)
    fwd = _label_moves(image)
    if _has_excursion(fwd, n):
        return False, False
    return not _has_off_diagonal_cycle(fwd, n), True


def is_injective(rule: LocalRule) -> bool:
    """Two distinct configurations share an image iff the pair graph of the
    essential image presentation has a bi-infinite path through an
    off-diagonal pair.  Every diagonal pair lies on a bi-infinite diagonal
    path, so such a path either leaves the diagonal and returns (an
    excursion) or stays off it in one time direction, where the finite
    graph forces a cycle of off-diagonal pairs; either shape extends to two
    distinct configurations with one image.  The rule is injective iff
    there is neither."""
    return _pair_verdicts(build_image_presentation(rule).graph)[0]


def is_preinjective(rule: LocalRule) -> bool:
    """Injectivity on pairs of configurations differing in finitely many
    positions.

    Fails iff, in the pair graph of the essential image presentation, a path
    leaves the diagonal and returns to it: every diagonal state of an
    essential presentation lies on a bi-infinite diagonal path, so such an
    excursion extends to two distinct equally labeled configurations equal
    outside a finite window.  Decided by the forward search alone.
    """
    image = build_image_presentation(rule).graph
    return not _has_excursion(_label_moves(image), len(image.states))


class AuditEntry(
    namedtuple(
        "AuditEntry",
        "name selfmap injective surjective preinjective goe_applies",
        defaults=(None, False),
    )
):
    # goe_applies: the Garden-of-Eden theorem applies, the domain is
    # irreducible and pre-injectivity was checked, so onto must equal
    # pre-injective
    __slots__ = ()

    @property
    def violation(self) -> bool:
        """A selfmap that is injective but not onto, or, where the
        Garden-of-Eden theorem applies, onto but not pre-injective or the
        reverse.  Either would witness a bug in the decision procedures."""
        if not self.selfmap:
            return False
        if self.injective and not self.surjective:
            return True
        return self.goe_applies and self.surjective != self.preinjective


class AuditReport(namedtuple("AuditReport", "entries")):
    __slots__ = ()

    @property
    def violations(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.violation)


def surjunctivity_audit(
    rules: Iterable[LocalRule], domain: SftSpec, check_preinjective: bool = False
) -> AuditReport:
    """Run the injective-implies-surjective audit over a rule family.

    Rules whose image leaves the domain shift are recorded as non-selfmaps
    and get no verdicts.  A violation entry would witness a bug in the
    decision procedures, not a mathematical possibility.  Pre-injectivity
    comes with every injectivity verdict; ``check_preinjective`` reports it
    and, on an irreducible domain, also checks every row against the
    Garden-of-Eden theorem (onto iff pre-injective); on a reducible domain
    the two may differ, so there it is not checked.  The domain skeleton is
    built once per (order, radius) and relabeled per rule.
    """
    if not periodic_density(domain):
        raise DensityUnknownError(
            "the audit requires a domain with dense periodic configurations"
        )
    goal = factor_acceptor(domain)
    goe_applies = check_preinjective and is_irreducible(domain)
    skeletons: dict[tuple[int, int], _Skeleton] = {}
    entries = []
    for i, rule in enumerate(rules):
        if rule.domain != domain:
            raise ValueError("audit rules must share the audited domain")
        name = rule.name or f"rule{i}"
        key = (common_half_order(rule), rule.radius)
        if key not in skeletons:
            skeletons[key] = _skeleton(domain, *key)
        image = skeletons[key].relabel(rule)
        into, orphan = _compare_with_target(image, goal)
        if not into:
            entries.append(AuditEntry(name, False, None, None))
            continue
        injective, preinjective = _pair_verdicts(image)
        entries.append(
            AuditEntry(
                name, True, injective, orphan is None,
                preinjective if check_preinjective else None, goe_applies,
            )
        )
    return AuditReport(tuple(entries))


def rule_from_function(
    domain: SftSpec, radius: int, fn: Callable[[tuple[int, ...]], int], name: str = ""
) -> LocalRule:
    table = {w: fn(w) for w in _allowed_windows(domain, 2 * radius + 1)}
    return LocalRule(domain, radius, table, name)


def identity_rule(domain: SftSpec, radius: int = 1) -> LocalRule:
    return rule_from_function(domain, radius, lambda win: win[radius], "identity")


def shift_rule(domain: SftSpec, radius: int = 1) -> LocalRule:
    return rule_from_function(domain, radius, lambda win: win[-1], "shift")


def constant_rule(domain: SftSpec, symbol: int, radius: int = 1) -> LocalRule:
    name = f"constant-{domain.alphabet.symbols[symbol]}"
    return rule_from_function(domain, radius, lambda win: symbol, name)


def xor_rule(domain: SftSpec, radius: int = 1) -> LocalRule:
    if domain.alphabet.size != 2:
        raise ValueError("xor rule needs a binary alphabet")
    return rule_from_function(domain, radius, lambda win: (win[0] + win[-1]) % 2, "xor")


def and_rule(domain: SftSpec, radius: int = 1) -> LocalRule:
    if domain.alphabet.size != 2:
        raise ValueError("and rule needs a binary alphabet")
    return rule_from_function(domain, radius, lambda win: int(all(win)), "and")


def window_count(domain: SftSpec, radius: int) -> int:
    """Number of locally allowed windows of length 2*radius+1, counted, not
    listed: callers ask this to refuse families too large to enumerate."""
    return allowed_word_count(domain, 2 * radius + 1)


def rule_count(domain: SftSpec, radius: int) -> int:
    """Number of total rules of the given radius: one output per window."""
    return domain.alphabet.size ** window_count(domain, radius)


def enumerate_rules(domain: SftSpec, radius: int) -> Iterator[LocalRule]:
    """All total rules of the given radius, in lexicographic table order."""
    windows = _allowed_windows(domain, 2 * radius + 1)
    size = domain.alphabet.size
    for i, outputs in enumerate(product(range(size), repeat=len(windows))):
        yield LocalRule(domain, radius, dict(zip(windows, outputs)), f"rule{i}")


def compose_rules(outer: LocalRule, inner: LocalRule) -> LocalRule:
    """Table of outer applied after inner, at radius r_outer + r_inner.

    When inner maps a window that occurs in a configuration (a language word
    of the domain) to a word outside outer's table, inner leaves the domain
    and the composition is undefined: NotASelfmapError.  A window outside
    the language never occurs in a configuration; if it feeds outer a word
    outside its table, that entry defaults to symbol 0, which no
    configuration can observe.
    """
    if outer.domain != inner.domain:
        raise AlphabetMismatchError("composition needs a shared domain")
    domain = inner.domain
    radius = outer.radius + inner.radius
    mid_width = 2 * inner.radius + 1
    language: Dfa | None = None
    table = {}
    for idx in _allowed_windows(domain, 2 * radius + 1):
        mid = tuple(
            inner.table[idx[i : i + mid_width]] for i in range(2 * outer.radius + 1)
        )
        if mid not in outer.table:
            if language is None:
                language = factor_acceptor(domain)
            if language.run(idx) is not None:
                raise NotASelfmapError(
                    f"inner maps the language word {Word(domain.alphabet, idx).text()!r} "
                    f"to {Word(domain.alphabet, mid).text()!r}, outside the domain"
                )
        table[idx] = outer.table.get(mid, 0)
    name = f"{outer.name or 'outer'}-after-{inner.name or 'inner'}"
    return LocalRule(domain, radius, table, name)


def parse_rule(text: str, domain: SftSpec) -> LocalRule:
    """Parse the .rule format against a domain spec.

    Line-oriented; '#' starts a comment.  One ``radius:`` line, then one
    ``map: <tok> ... <tok> -> <tok>`` line per window.  Totality over the
    allowed windows is validated, and a file with fewer entries than allowed
    windows is refused without listing them; duplicate windows with
    conflicting outputs are rejected.
    """
    radius: int | None = None
    entries: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("radius:"):
            if radius is not None:
                raise FormatError("duplicate radius declaration", lineno)
            value = line[len("radius:"):].strip()
            # isdigit alone admits digits such as '²' that int() rejects
            if not (value.isascii() and value.isdigit()):
                raise FormatError(f"radius must be a natural number, got {value!r}", lineno)
            radius = int(value)
        elif line.startswith("map:"):
            if radius is None:
                raise FormatError("map line before radius declaration", lineno)
            body = line[len("map:"):]
            if "->" not in body:
                raise FormatError("map line needs '->'", lineno)
            left, _, right = body.partition("->")
            window_tokens = left.split()
            out_tokens = right.split()
            if len(window_tokens) != 2 * radius + 1:
                raise FormatError(
                    f"window needs {2 * radius + 1} tokens, got {len(window_tokens)}",
                    lineno,
                )
            if len(out_tokens) != 1:
                raise FormatError("map line needs exactly one output token", lineno)
            try:
                window = tuple(domain.alphabet.index(t) for t in window_tokens)
                out = domain.alphabet.index(out_tokens[0])
            except FormatError as e:
                raise FormatError(str(e), lineno) from None
            if window in entries and entries[window] != out:
                raise RuleConflictError(
                    f"line {lineno}: conflicting outputs for window "
                    f"{' '.join(window_tokens)}"
                )
            entries[window] = out
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno)
    if radius is None:
        raise FormatError("missing radius declaration")
    if window_count(domain, radius) > len(entries):
        # refuse at the first missing window, before LocalRule lists them
        # all: their number grows fourfold per radius step on a binary domain
        for window in enumerate_locally_allowed(domain, 2 * radius + 1):
            if window not in entries:
                raise _incomplete(Word(domain.alphabet, window))
    return LocalRule(domain, radius, entries)


def load_rule(path: str | Path, domain: SftSpec) -> LocalRule:
    try:
        return parse_rule(read_input(path), domain)
    except FormatError as e:
        raise FormatError(e.message, e.line, str(path)) from None
    except (RuleConflictError, RuleIncompleteError) as e:
        raise type(e)(f"{path}: {e}") from None
