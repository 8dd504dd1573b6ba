"""Local rules (sliding block codes) and their decision procedures.

A rule is an extensional table from allowed windows of length 2*radius+1 to
output symbols.  All decisions run on one labeled graph: the higher-block
presentation of the domain at order 2*M', M' = max(radius, ceil(memory/2)),
relabeled so that each edge carries the output of the rule on its merged
window.  Bi-infinite paths of that graph are the domain configurations and
their label sequences are the images, so the graph presents the image shift:

  - surjectivity onto a target reduces to factor-language containment both
    ways between the image presentation and the target presentation;
  - injectivity fails iff the essential pair automaton of the image
    presentation keeps a non-diagonal state;
  - pre-injectivity fails iff some non-diagonal pair state lies on a finite
    excursion that starts and ends on the diagonal.

Essential trimming looks only at the graph's structure, never at its
labels, so every rule of one radius on one domain relabels the same trimmed
graph, the domain skeleton.  ``surjunctivity_audit`` builds that skeleton
once per (order, radius) and, per rule, looks up one output per edge,
determinizes, runs both containments and builds a single pair automaton
that answers injectivity and pre-injectivity together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .core import (
    PeriodicConfig,
    SftSpec,
    Word,
    enumerate_locally_allowed,
    normalize_periodic,
    periodization_allowed,
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
from .graphs import (
    Dfa,
    LabeledGraph,
    determinize_factor_acceptor,
    dfa_language_subset,
    essential_form,
    product_automaton,
)
from .shifts import build_higher_block, factor_acceptor, periodic_density


@dataclass(frozen=True, eq=False)
class LocalRule:
    """A radius-M local map table over the allowed windows of its domain.

    The table must cover every locally allowed window of length 2M+1;
    entries on windows containing forbidden factors are dropped silently,
    so one rule file can serve several domain specs.
    """

    domain: SftSpec
    radius: int
    table: dict[tuple[int, ...], int]
    name: str = ""

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
                text = Word(self.domain.alphabet, window).text()
                raise RuleIncompleteError(f"rule has no entry for allowed window {text!r}")
        object.__setattr__(self, "table", {w: kept[w] for w in allowed})

    @property
    def window_length(self) -> int:
        return 2 * self.radius + 1


@lru_cache(maxsize=16)
def _allowed_windows(domain: SftSpec, width: int) -> tuple[tuple[int, ...], ...]:
    """The locally allowed windows of one width, lexicographically."""
    return tuple(w.indices for w in enumerate_locally_allowed(domain, width))


@dataclass(frozen=True)
class ImagePresentation:
    """Labeled higher-block graph of the domain whose edge labels are the
    rule outputs; after essential trimming it presents the image shift."""

    half_order: int
    graph: LabeledGraph


def common_half_order(rule: LocalRule) -> int:
    """The normalization parameter M' absorbing both the domain memory and
    the rule radius into one block length 2*M'."""
    return max(rule.radius, (rule.domain.memory + 1) // 2)


def build_image_presentation(rule: LocalRule) -> ImagePresentation:
    half = common_half_order(rule)
    skeleton = _skeleton(rule.domain, half, rule.radius, essential=False)
    return ImagePresentation(half, skeleton.relabel(rule))


@dataclass(frozen=True)
class _Skeleton:
    """The higher-block graph of a domain at order 2*M' and, per edge, the
    window of length 2r+1 that a radius-r rule reads there.  Relabeling it
    with a rule's outputs gives that rule's image presentation."""

    graph: LabeledGraph
    windows: tuple[tuple[int, ...], ...]

    def relabel(self, rule: LocalRule) -> LabeledGraph:
        table = rule.table
        edges = [(s, d, table[w]) for (s, d, _), w in zip(self.graph.edges, self.windows)]
        return LabeledGraph(self.graph.states, edges, self.graph.alphabet)


def _skeleton(domain: SftSpec, half: int, radius: int, essential: bool = True) -> _Skeleton:
    """The skeleton for radius-r rules, trimmed to its essential form unless
    ``essential`` is false; edges keep the order of their merged words."""
    block = build_higher_block(domain, 2 * half)
    trimmed = essential_form(block.graph)
    if not trimmed.states:
        raise EmptyShiftError("the domain shift is empty")
    graph = trimmed if essential else block.graph
    word_of = dict(zip(block.graph.states, block.words))
    words = [word_of[name] for name in graph.states]
    lo = half - radius
    hi = half + radius + 1
    windows = tuple([(words[s] + words[d][-1:])[lo:hi] for s, d, _ in graph.edges])
    return _Skeleton(graph, windows)


def _image_graph(rule: LocalRule) -> LabeledGraph:
    """Essential image presentation of one rule."""
    return _skeleton(rule.domain, common_half_order(rule), rule.radius).relabel(rule)


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


def _compare_with_target(image: LabeledGraph, goal: Dfa) -> tuple[Word | None, Word | None]:
    """Containment both ways between an essential image presentation and the
    target's factor acceptor.  Returns (stray, None) with a shortest image
    word outside the target when the map does not go into the target, else
    (None, orphan) with a shortest target word outside the image, or None
    when the map is onto."""
    acceptor = determinize_factor_acceptor(image)
    contained, stray = dfa_language_subset(acceptor, goal)
    if not contained:
        return stray, None
    _, orphan = dfa_language_subset(goal, acceptor)
    return None, orphan


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
    stray, orphan = _compare_with_target(_image_graph(rule), factor_acceptor(target))
    if stray is not None:
        raise NotASelfmapError(
            f"image word {stray.text()!r} lies outside the target language"
        )
    return (orphan is None, orphan)


def find_goe_pattern(rule: LocalRule, target: SftSpec | None = None) -> Word | None:
    """Shortest orphan pattern of the target, or None when the rule is
    surjective (no pattern lacks a preimage)."""
    return is_surjective(rule, target)[1]


def _pair_verdicts(image: LabeledGraph, want_preinjective: bool) -> tuple[bool, bool | None]:
    """(injective, pre-injective) of the map whose essential image
    presentation is ``image``, from one essential pair automaton.

    Pre-injectivity is None when not wanted and the map is not injective.
    It fails iff some non-diagonal pair state is reachable from the diagonal
    and co-reachable back to it, that is, iff an edge leaves the diagonal
    for a state from which the diagonal can be reached again.  Every
    diagonal state (p,p) of an essential presentation lies on a bi-infinite
    diagonal path, so such an excursion stays inside the essential pair
    automaton.
    """
    n = len(image.states)
    pairs = essential_form(product_automaton(image))
    # (p,p) has the code p*n + p
    diagonal = [code % (n + 1) == 0 for code in pairs.states]
    if all(diagonal):
        return True, True
    if not want_preinjective:
        return False, None
    successors: list[list[int]] = [[] for _ in diagonal]
    for src, dst, _ in pairs.edges:
        successors[src].append(dst)
    seen = [False] * len(diagonal)
    frontier = []
    for q, on_diagonal in enumerate(diagonal):
        if on_diagonal:
            for r in successors[q]:
                if not diagonal[r] and not seen[r]:
                    seen[r] = True
                    frontier.append(r)
    while frontier:
        q = frontier.pop()
        for r in successors[q]:
            if diagonal[r]:
                return False, False
            if not seen[r]:
                seen[r] = True
                frontier.append(r)
    return False, True


def is_injective(rule: LocalRule) -> bool:
    """Two distinct configurations share an image iff the essential pair
    automaton keeps a non-diagonal state."""
    return _pair_verdicts(_image_graph(rule), False)[0]


def is_preinjective(rule: LocalRule) -> bool:
    """Injectivity on pairs of configurations differing in finitely many
    positions.

    Fails iff, in the pair automaton of the essential image presentation,
    some non-diagonal state is reachable from the diagonal and co-reachable
    back to it: such an excursion extends along the diagonal to a pair of
    distinct equally-labeled configurations equal outside a finite window.
    """
    return _pair_verdicts(_image_graph(rule), True)[1]


@dataclass(frozen=True)
class AuditEntry:
    name: str
    selfmap: bool
    injective: bool | None
    surjective: bool | None
    preinjective: bool | None = None

    @property
    def violation(self) -> bool:
        return bool(self.selfmap and self.injective and not self.surjective)


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]

    @property
    def violations(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.violation)


def surjunctivity_audit(
    rules: Iterable[LocalRule], domain: SftSpec, check_preinjective: bool = False
) -> AuditReport:
    """Run the injective-implies-surjective audit over a rule family.

    Rules whose image leaves the domain shift are recorded as non-selfmaps
    and get no verdicts.  A violation entry would witness a bug in the
    decision procedures, not a mathematical possibility.  The domain
    skeleton is built once per (order, radius) and relabeled per rule.
    """
    if not periodic_density(domain):
        raise DensityUnknownError(
            "the audit requires a domain with dense periodic configurations"
        )
    goal = factor_acceptor(domain)
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
        stray, orphan = _compare_with_target(image, goal)
        if stray is not None:
            entries.append(AuditEntry(name, False, None, None))
            continue
        injective, preinjective = _pair_verdicts(image, check_preinjective)
        entries.append(
            AuditEntry(
                name, True, injective, orphan is None,
                preinjective if check_preinjective else None,
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
    """Number of locally allowed windows of length 2*radius+1.  A window
    wider than the memory is a path of width - memory edges in the untrimmed
    higher-block graph of order memory, so such windows are counted, not
    listed: callers ask this to refuse families too large to enumerate."""
    width = 2 * radius + 1
    memory = domain.memory
    if width <= memory:
        return sum(1 for _ in enumerate_locally_allowed(domain, width))
    graph = build_higher_block(domain, memory).graph
    paths = [1] * len(graph.states)  # paths of the current length ending in each state
    for _ in range(width - memory):
        longer = [0] * len(paths)
        for src, dst, _ in graph.edges:
            longer[dst] += paths[src]
        paths = longer
    return sum(paths)


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
    allowed windows is validated; duplicate windows with conflicting outputs
    are rejected.
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
            if not value.isdigit():
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
    return LocalRule(domain, radius, entries)


def load_rule(path: str | Path, domain: SftSpec) -> LocalRule:
    try:
        return parse_rule(Path(path).read_text(), domain)
    except FormatError as e:
        raise FormatError(e.message, e.line, str(path)) from None
    except (RuleConflictError, RuleIncompleteError) as e:
        raise type(e)(f"{path}: {e}") from None
