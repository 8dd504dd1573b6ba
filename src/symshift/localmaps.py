"""Local rules (sliding block codes) and their decision procedures.

A rule is an extensional table from allowed windows of length 2*radius+1 to
output symbols.  The decisions run on a labeled graph that presents the
image: the essential higher-block presentation of the domain at order 2*M',
M' = max(radius, ceil(memory/2)), whose states are the domain's blocks of
that length as index tuples, each edge labeled with the output of the rule
on the window in the middle of its merged word.  That graph is read off
the rule's windows, without building the domain's higher-block graph:
when M' = radius its edges are the table's windows, in the table's order,
each from its prefix to its suffix, and otherwise they are the domain's
words of length 2*M'+1.  Bi-infinite paths of that graph are the domain
configurations and their label sequences are the images, so the graph
presents the image shift:

  - surjectivity onto a target reduces to factor-language containment both
    ways between the image presentation and the target's presentation:
    image inside target iff no image path reads a forbidden word of the
    target, and target inside image by the divergence search of
    ``graphs``, which builds only the subsets it visits and meets a
    shortest orphan from both of its ends;
  - pre-injectivity fails iff some off-diagonal pair lies on a finite
    excursion that starts and ends on the diagonal of the pair graph of the
    image presentation (pairs of states, edges on equal labels);
  - injectivity fails iff there is such an excursion or a cycle through
    off-diagonal pairs alone.

One depth-first search, ``_pair_verdicts``, answers both pair questions
on unordered pairs of states generated on the fly from the image's
forward adjacency by label, never on a materialized N^2 pair automaton:
the swap of the two components is a symmetry of the pair graph that fixes
the diagonal.  It runs from the diagonal first, stops at its first
return to it and notes any cycle it meets; if it met neither, it goes on
from every off-diagonal pair it has not entered, looking for a cycle.
It holds only the pairs it enters, and refuses with ``TooLargeError``
past ``_MAX_PAIRS_ENTERED`` of them.

``is_surjective``, ``is_injective`` and ``is_preinjective`` run on a
smaller presentation, ``_shrunk_image``.  The rule's window first loses the
end cells its output never depends on, in one pass over the table per end
unless a conflict steps the cut down, and the graph is read as above at
the shorter width: its paths are still the domain configurations, and
their labels are the images shifted by a fixed number of cells, which
changes neither the image language nor which configurations collide.  Then
``graphs._amalgamate`` merges states with the same labeled out-edges or the
same labeled in-edges.  Each merge is a conjugacy of the edge shift through
which the labels factor, so the image language, every orphan and both pair
verdicts stay the same, and the pair searches run on far fewer states:
where the pair search of the radius-6 identity rule entered 8.4M pairs
unreduced, its shrunk image has one state.  A merge can turn two paths
through different states into two parallel edges with one label, which no
pair of states shows, so the pair search counts such a pair of edges as an
excursion.  The read, its trim to essential form and the merges pass the
graph on as three integer lists, the source, target and label of each
edge, and only the result is built as a ``LabeledGraph``.

Essential trimming looks only at the graph's structure, never at its
labels, so every rule of one radius on one domain relabels the same trimmed
graph, the domain skeleton: the same reader reads it off the table that
maps each window to itself, and keeps each edge's window in place of its
label.  The unreduced image is that skeleton relabeled by the rule's
outputs; ``build_image_presentation``, and with it ``map image``, builds it
so, with the domain's blocks of length 2*M' as states.
``surjunctivity_audit`` builds the skeleton once per (order, radius) and,
per rule, looks up one output per edge, which costs less than reading each
rule's table anew, runs both containments and then the pair search, which
answers both pair questions at once.  It does not shrink its graphs: they
hold tens of states, and shrinking cost more than it saved.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress, product
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
from .graphs import LabeledGraph, _amalgamate, _essential, _path_reader, dfa_language_subset
from .shifts import (
    _refuse_past_max_blocks,
    allowed_word_count,
    is_irreducible,
    language_member,
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

    @classmethod
    def _built(cls, domain: SftSpec, radius: int, table: dict[tuple[int, ...], int]):
        """A rule whose table holds one output in range for each allowed
        window and nothing else, in lexicographic window order, set without
        the checks and the window walk of ``__post_init__``."""
        rule = object.__new__(cls)
        _set(rule, "domain", domain)
        _set(rule, "radius", radius)
        _set(rule, "table", table)
        _set(rule, "name", "")
        return rule

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


# a missing window longer than twice this is shown by this many symbols at
# each end and its length, so a wide rule's message stays short
_SHOWN = 32


def _incomplete(window: Word) -> RuleIncompleteError:
    if len(window) <= 2 * _SHOWN:
        shown = repr(window.text())
    else:
        ends = f"{window[:_SHOWN].text()}...{window[-_SHOWN:].text()}"
        shown = f"{ends!r} ({len(window)} symbols)"
    return RuleIncompleteError(f"rule has no entry for allowed window {shown}")


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
    """The essential image presentation of the rule and its M': the rule's
    skeleton relabeled by its table; its states are the domain's blocks of
    length 2*M'."""
    return ImagePresentation(common_half_order(rule), _relabeled(_skeleton(rule), rule))


def _shrunk_image(rule: LocalRule) -> LabeledGraph:
    """A smaller presentation of the rule's image, on which every map
    question has the same answer.

    After the refusal at order 2*M', which the unreduced image meets,
    ``_trimmed_table`` drops the end cells the output never depends on and
    ``_read_words`` reads the image at the width left, or at memory+1 if
    that is more, with the window at the start of each word.  Its
    bi-infinite paths are still the domain's configurations, one each, and
    each reads its configuration's image shifted by a fixed number of
    cells: the image is the same, and so are the configurations that
    collide.  ``graphs._amalgamate`` then merges states.  The read and the
    merges pass the graph on as a list of states and three integer lists,
    and the one ``LabeledGraph`` built is the result.
    """
    domain = rule.domain
    _refuse_past_max_blocks(domain, 2 * common_half_order(rule))
    table, width = _trimmed_table(rule)
    states, src, dst, lab = _read_words(domain, max(width, domain.memory + 1), 0, table)
    states, src, dst, lab = _amalgamate(states, src, dst, lab, domain.alphabet.size)
    return LabeledGraph._built(states, list(zip(src, dst, lab)), domain.alphabet)


def _trimmed_table(rule: LocalRule) -> tuple[dict[tuple[int, ...], int], int]:
    """The rule's table without the end cells of its window that the output
    never depends on, and the width left: as many first cells as leave
    windows that differ only there with one output, then as many last
    cells alike, down to width 0 for a constant rule.  Dropping last cells
    only merges windows, so a first cell that matters still matters after
    it.  The keys are in the order of their first windows; one pass over
    the table per end builds them (``_cut_end``).
    """
    table, width = rule.table, rule.window_length
    letters = range(rule.domain.alphabet.size)
    for first in (True, False):
        if width and table:  # an empty table is an empty domain
            table, width = _cut_end(table, width, first, letters)
    return table, width


def _cut_end(table: dict, width: int, first: bool, letters: range) -> tuple[dict, int]:
    """``table`` keyed by its windows without as many first (or last) cells
    as the output never depends on, and the width left.

    ``_unread_cells`` bounds the cut.  One pass builds the table at that
    cut and checks that windows with one key have one output.  Two windows
    with one key and two outputs differ only in cut cells, so no cut that
    drops the one of those nearest the kept cells can pass: the cut steps
    down to keep it, and the pass runs again.  So a cut that passes is the
    largest.
    """
    cells = range(width) if first else range(width - 1, -1, -1)  # from this end
    cut = _unread_cells(table, cells, letters)
    while cut:
        kept = slice(cut, None) if first else slice(width - cut)
        shorter: dict[tuple[int, ...], int] = {}
        for window, out in table.items():
            if shorter.setdefault(window[kept], out) != out:
                break
        else:
            return shorter, width - cut
        key = window[kept]
        other = next(w for w in table if w[kept] == key)  # the key's first window
        differ = [c for c in cells[:cut] if window[c] != other[c]]
        cut = cells.index(differ[-1])
    return table, width


def _unread_cells(table: dict, cells: range, letters: range) -> int:
    """How many of ``cells``, taken in order, change no output when they are
    changed one at a time in the first and the last window of ``table``.
    A cell the output reads mostly shows there, so this bounds the cells
    at that end that the output never depends on."""
    get = table.get
    ends = [(list(w), table[w]) for w in (next(iter(table)), next(reversed(table)))]
    for cut, i in enumerate(cells):
        for window, out in ends:
            letter = window[i]
            for a in letters:
                if a != letter:
                    window[i] = a
                    if get(tuple(window), out) != out:
                        return cut
            window[i] = letter
    return len(cells)


def _read_words(domain: SftSpec, length: int, offset: int, table: dict) -> tuple:
    """The essential higher-block graph of the domain at order length-1, at
    least the domain's memory, each edge labeled by ``table`` at the window
    that starts ``offset`` cells into its word: its states, as block tuples,
    and the source, target and label of each edge, as three lists.

    Its edges are the locally allowed words of ``length``, each from its
    prefix w[:-1] to its suffix w[1:], and its bi-infinite paths are the
    domain's configurations.  States are numbered in the order their
    blocks first start a word.  Words as long as the windows are read off
    ``table``, in its order; longer ones are listed, lexicographically, and
    each looks its window up.  A word whose window has no entry lies in no
    configuration, since a rule's table, trimmed or not, holds every window
    that does, so it is left out, as are edges into a block that is no
    prefix; ``graphs._essential`` trims the rest.  With a rule's own table
    at length 2*M'+1 and offset M'-r the graph equals
    ``presentation(domain, 2*M')`` relabeled, and like it is refused past
    ``shifts.MAX_BLOCKS`` blocks before any is listed.

    Either way two blocks p and p' with p[1:] == p'[1:] list their words
    p+a in one order of the letters a, and two blocks q and q' with
    q[:-1] == q'[:-1] their words c+q in one order of the letters c, as
    ``graphs._amalgamate`` needs.  A table whose first cells were cut lists
    each key where its first window, the least with that key, comes; no
    forbidden word, at most memory+1 <= ``length`` long, reaches from the
    cut cells to the key's last cell, so the cut cells of that window do
    not depend on it.
    """
    _refuse_past_max_blocks(domain, length - 1)
    width = len(next(iter(table), ()))
    if length == width:
        words, lab = list(table), list(table.values())
    else:
        window = slice(offset, offset + width)
        words = [w for w in enumerate_locally_allowed(domain, length) if w[window] in table]
        lab = [table[w[window]] for w in words]
    index: dict[tuple[int, ...], int] = {}
    src = [index.setdefault(w[:-1], len(index)) for w in words]
    get = index.get
    dst = [get(w[1:]) for w in words]
    if None in dst:
        live = [d is not None for d in dst]
        src, dst, lab = (list(compress(seq, live)) for seq in (src, dst, lab))
    states, src, dst, lab = _essential(list(index), src, dst, lab)
    if not states:
        raise EmptyShiftError("the domain shift is empty")
    return states, src, dst, lab


def _skeleton(rule: LocalRule) -> tuple:
    """The essential higher-block graph of the rule's domain at order 2*M',
    as the states and the source, target and window lists that
    ``_read_words`` reads off the table mapping each of the rule's windows
    to itself: each edge carries the window of length 2r+1 the rule reads
    there.  Every rule of one radius on one domain has the same windows, in
    ``_allowed_windows`` order, so it has the same skeleton, and
    ``_relabeled`` gives each its image presentation."""
    half = common_half_order(rule)
    return _read_words(rule.domain, 2 * half + 1, half - rule.radius, {w: w for w in rule.table})


def _relabeled(skeleton: tuple, rule: LocalRule) -> LabeledGraph:
    """The skeleton with each edge labeled by the rule's output on its
    window: the rule's unreduced image presentation."""
    states, src, dst, windows = skeleton
    labels = map(rule.table.__getitem__, windows)
    return LabeledGraph._built(states, list(zip(src, dst, labels)), rule.domain.alphabet)


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


def _compare_with_target(
    image: LabeledGraph, target: SftSpec, goal: LabeledGraph
) -> tuple[bool, Word | None]:
    """Containment both ways between an essential image presentation and
    the target shift, whose essential presentation is ``goal``: (into,
    orphan).

    ``into`` says whether every image word is a target word: every image
    path lies on a bi-infinite one, so it holds iff no image path reads a
    forbidden word of the target, which one ``_path_reader`` of the image
    checks.  When ``into`` is False the orphan is None; the caller that
    needs a stray word asks ``dfa_language_subset(image, goal)``.
    Otherwise the orphan is the length-lex least of the shortest target
    words outside the image, or None when the map is onto, from
    ``dfa_language_subset(goal, image)``, which determinizes both graphs
    only as far as its search goes.
    """
    if target.forbidden:
        reads = _path_reader(image)
        if any(reads(f.indices) for f in target.forbidden):
            return False, None
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
    image = _shrunk_image(rule)
    goal = presentation(target)
    into, orphan = _compare_with_target(image, target, goal)
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


# Pairs of image states ``_pair_verdicts`` enters before it refuses.  An
# injective map enters all n(n-1)/2 pairs of its image, so this answers it
# up to 2,896 states.  Timed on unreduced identity images of the binary full
# shift (CPython 3.11, 2 vCPUs): at radius 5 all 523,776 pairs are entered
# in 1.1 s at a 57 MB process peak; at radius 6 (8.4M pairs) the search
# refuses in 6.8 s at 345 MB, and at 2**21 in 3.3 s at 182 MB.  Xor of the
# end cells at radius 8 enters 32 of the pairs of its 65,536 states.
_MAX_PAIRS_ENTERED = 2**22


def _pair_verdicts(image: LabeledGraph) -> tuple[bool, bool]:
    """(injective, pre-injective) of the map whose essential image
    presentation is ``image``.

    One three-colour depth-first search over the pair graph, which has an
    edge (p,q) -> (r,s) labeled x when p -> r and q -> s are both labeled
    x.  The swap (p,q) <-> (q,p) is an automorphism of it that fixes the
    diagonal, so the search runs on unordered pairs {p,q}, coded p*n + q
    with p < q, generated on the fly from the forward edges by label; a
    cycle of unordered pairs lifts to a cycle of ordered pairs at most
    twice as long.  The diagonal is one node, D.

    The search runs from D first.  Meeting D again is an excursion: the
    map is neither pre-injective nor, since injective implies
    pre-injective, injective.  Two parallel edges with one label meet D at
    once; a shrunk image can have them.  A back edge closes a cycle of
    off-diagonal pairs, so the map is not injective, but the search goes
    on, since an excursion may still be ahead.  Met neither, the map is
    pre-injective, and the search goes on from every pair it has not
    entered, ignoring D, since on a reducible domain a cycle may lie out
    of D's reach: the map is injective iff no back edge is met.

    ``colour`` holds the pairs entered only, 1 for one on the search path
    and 2 for a finished one; the stack holds pairs to enter and, as
    ``~code``, pairs to finish.  Past ``_MAX_PAIRS_ENTERED`` pairs entered
    the search is refused with ``TooLargeError``.  The roots after D come
    from a scan of the pairs in code order: each pair it passes was
    entered before or is entered as a root, so the same budget bounds it.
    """
    n = len(image.states)
    fwd = [[[] for _ in image.states] for _ in image.alphabet.symbols]
    for src, dst, lab in image.edges:
        fwd[lab][src].append(dst)
    stack = []
    for moves in fwd:
        for targets in moves:
            if len(targets) < 2:
                continue
            for i, r in enumerate(targets):
                for s in targets[i + 1 :]:
                    if r == s:  # parallel edges with one label
                        return False, False
                    stack.append(r * n + s if r < s else s * n + r)
    colour: dict[int, int] = {}
    roots = (c for p in range(n) for c in range(p * n + p + 1, (p + 1) * n) if c not in colour)
    from_diagonal = True
    injective = True
    while True:
        while stack:
            code = stack.pop()
            if code < 0:
                colour[~code] = 2
                continue
            if code in colour:  # entered by another route since it was pushed
                continue
            if len(colour) == _MAX_PAIRS_ENTERED:
                raise TooLargeError(
                    f"the pair search over {n} image states entered "
                    f"{_MAX_PAIRS_ENTERED} pairs without an answer"
                )
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
                            elif from_diagonal:
                                return False, False
                            else:
                                continue
                            seen = colour.get(nxt)
                            if seen == 1:
                                if not from_diagonal:
                                    return False, True
                                injective = False
                            elif not seen:
                                stack.append(nxt)
        if not injective:
            return False, True
        from_diagonal = False
        root = next(roots, None)
        if root is None:
            return True, True
        stack.append(root)


def is_injective(rule: LocalRule) -> bool:
    """Two distinct configurations share an image iff the pair graph of the
    essential image presentation has a bi-infinite path through an
    off-diagonal pair.  Every diagonal pair lies on a bi-infinite diagonal
    path, so such a path either leaves the diagonal and returns (an
    excursion) or stays off it in one time direction, where the finite
    graph forces a cycle of off-diagonal pairs; either shape extends to two
    distinct configurations with one image.  The rule is injective iff
    there is neither; ``_pair_verdicts`` looks for both in one search."""
    return _pair_verdicts(_shrunk_image(rule))[0]


def is_preinjective(rule: LocalRule) -> bool:
    """Injectivity on pairs of configurations differing in finitely many
    positions.

    Fails iff, in the pair graph of the essential image presentation, a path
    leaves the diagonal and returns to it: every diagonal state of an
    essential presentation lies on a bi-infinite diagonal path, so such an
    excursion extends to two distinct equally labeled configurations equal
    outside a finite window.  Read off the same search as ``is_injective``,
    which, when it meets no excursion and no cycle in the diagonal's reach,
    also searches the pairs out of that reach for a cycle.
    """
    return _pair_verdicts(_shrunk_image(rule))[1]


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
    built once per (order, radius) and relabeled per rule, and one pair
    search per rule gives both pair verdicts.
    """
    if not periodic_density(domain):
        raise DensityUnknownError(
            "the audit requires a domain with dense periodic configurations"
        )
    goal = presentation(domain)
    goe_applies = check_preinjective and is_irreducible(domain)
    skeletons: dict[tuple[int, int], tuple] = {}
    entries = []
    for i, rule in enumerate(rules):
        if rule.domain != domain:
            raise ValueError("audit rules must share the audited domain")
        name = rule.name or f"rule{i}"
        key = (common_half_order(rule), rule.radius)
        skeleton = skeletons.get(key)
        if skeleton is None:
            skeleton = skeletons[key] = _skeleton(rule)
        # not shrunk: in two pairs of 6 s `audit` bench runs, shrinking
        # these small graphs took item_ms_p50 from 0.036 to 0.059 ms and
        # from 0.043 to 0.051 ms, and in two more from 0.039 to 0.050 ms
        # and from 0.048 to 0.050 ms
        image = _relabeled(skeleton, rule)
        into, orphan = _compare_with_target(image, domain, goal)
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
    table = {w: fn(w) for w in _allowed_windows(domain, _window_width(radius))}
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


def _window_width(radius: int) -> int:
    """The window length 2*radius+1, refusing a negative radius by name."""
    if radius < 0:
        raise BadLengthError(f"radius must be non-negative, got {radius}")
    return 2 * radius + 1


def window_count(domain: SftSpec, radius: int, bound: int | None = None) -> int:
    """Number of locally allowed windows of length 2*radius+1, or ``bound``
    if that is less, counted, not listed (``shifts.allowed_word_count``):
    callers ask this to refuse families too large to enumerate."""
    return allowed_word_count(domain, _window_width(radius), bound)


def enumerate_rules(domain: SftSpec, radius: int) -> Iterator[LocalRule]:
    """All total rules of the given radius, in lexicographic table order."""
    windows = _allowed_windows(domain, _window_width(radius))
    size = domain.alphabet.size
    for i, outputs in enumerate(product(range(size), repeat=len(windows))):
        yield LocalRule(domain, radius, dict(zip(windows, outputs)), f"rule{i}")


def compose_rules(outer: LocalRule, inner: LocalRule) -> LocalRule:
    """Table of outer applied after inner, at radius r_outer + r_inner.

    When inner maps a window that occurs in a configuration (a language word
    of the domain, as ``shifts.language_member`` decides it) to a word
    outside outer's table, inner leaves the domain and the composition is
    undefined: NotASelfmapError.  A window outside the language never
    occurs in a configuration; if it feeds outer a word outside its table,
    that entry defaults to symbol 0, which no configuration can observe.
    """
    if outer.domain != inner.domain:
        raise AlphabetMismatchError("composition needs a shared domain")
    domain = inner.domain
    radius = outer.radius + inner.radius
    mid_width = 2 * inner.radius + 1
    table = {}
    for idx in _allowed_windows(domain, 2 * radius + 1):
        mid = tuple(
            inner.table[idx[i : i + mid_width]] for i in range(2 * outer.radius + 1)
        )
        if mid not in outer.table:
            window = Word(domain.alphabet, idx)
            if language_member(domain, window):
                raise NotASelfmapError(
                    f"inner maps the language word {window.text()!r} "
                    f"to {Word(domain.alphabet, mid).text()!r}, outside the domain"
                )
        table[idx] = outer.table.get(mid, 0)
    name = f"{outer.name or 'outer'}-after-{inner.name or 'inner'}"
    return LocalRule(domain, radius, table, name)


def parse_rule(text: str, domain: SftSpec) -> LocalRule:
    """Parse the .rule format against a domain spec.

    Line-oriented; '#' starts a comment.  One ``radius:`` line, then one
    ``map: <tok> ... <tok> -> <tok>`` line per window.  Totality over the
    allowed windows is validated: an incomplete file is refused at its first
    missing window, so at most one window more than it has entries is
    listed; duplicate windows with conflicting outputs are rejected.
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
    # one walk over the windows builds the table in their order and refuses
    # at the first missing one, without listing them all: their number
    # grows fourfold per radius step on a binary domain.  The first
    # len(entries)+1 windows cannot all have entries, so an incomplete file
    # is refused after at most that many, and none is counted
    table = {}
    for window in enumerate_locally_allowed(domain, 2 * radius + 1):
        out = entries.get(window)
        if out is None:
            raise _incomplete(Word(domain.alphabet, window))
        table[window] = out
    return LocalRule._built(domain, radius, table)


def load_rule(path: str | Path, domain: SftSpec) -> LocalRule:
    try:
        return parse_rule(read_input(path), domain)
    except FormatError as e:
        raise FormatError(e.message, e.line, str(path)) from None
    except (RuleConflictError, RuleIncompleteError) as e:
        raise type(e)(f"{path}: {e}") from None
