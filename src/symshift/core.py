"""Alphabets, words, forbidden-block specifications and periodic configurations.

Symbols are stored as integer indices into an alphabet table; all text
formats use the symbolic names.  Every type here is immutable and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    AlphabetMismatchError,
    BadLengthError,
    EmptyWordError,
    FormatError,
)


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of at least two distinct symbol names."""

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) < 2:
            raise ValueError("alphabet needs at least two symbols")
        for s in symbols:
            if not s or any(c.isspace() for c in s):
                raise ValueError(f"bad symbol {s!r}: symbols are non-empty and whitespace-free")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbols in alphabet")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise FormatError(f"unknown symbol {token!r}") from None

    def word(self, tokens: Iterable[str]) -> Word:
        return Word(self, tuple(self.index(t) for t in tokens))

    def parse_word(self, text: str) -> Word:
        """Parse a word written as comma-separated tokens.

        A bare token string is also accepted when every alphabet symbol is a
        single character; the empty string denotes the empty word.
        """
        text = text.strip()
        if not text:
            return Word(self, ())
        if "," in text:
            return self.word(t.strip() for t in text.split(","))
        if all(len(s) == 1 for s in self.symbols):
            return self.word(text)
        return self.word([text])


@dataclass(frozen=True)
class Word:
    """A finite sequence of symbols, stored as indices into its alphabet."""

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(self.indices)
        object.__setattr__(self, "indices", indices)
        n = self.alphabet.size
        if any(not (0 <= i < n) for i in indices):
            raise ValueError("word contains an index outside its alphabet")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Word(self.alphabet, self.indices[key])
        return self.indices[key]

    def __add__(self, other: Word) -> Word:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.indices + other.indices)

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet.symbols[i] for i in self.indices)

    def text(self) -> str:
        """Render with CLI conventions: bare when all symbols are single chars."""
        if all(len(s) == 1 for s in self.alphabet.symbols):
            return "".join(self.tokens())
        return ",".join(self.tokens())

    def __repr__(self):
        return f"Word({self.text()!r})"


@dataclass(frozen=True)
class SftSpec:
    """A shift of finite type over Z: alphabet plus a finite forbidden word set."""

    alphabet: Alphabet
    forbidden: frozenset[Word]

    def __post_init__(self):
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        for w in self.forbidden:
            if len(w) == 0:
                raise EmptyWordError("forbidden words must be non-empty")
            if w.alphabet != self.alphabet:
                raise AlphabetMismatchError("forbidden word over a different alphabet")

    @property
    def memory(self) -> int:
        """Largest forbidden length minus one, floored at 1 (full shift has memory 1)."""
        if not self.forbidden:
            return 1
        return max(1, max(len(w) for w in self.forbidden) - 1)

    def word(self, tokens: Iterable[str]) -> Word:
        return self.alphabet.word(tokens)


@dataclass(frozen=True)
class PeriodicConfig:
    """A periodic bi-infinite configuration, stored as its primitive repeating
    word anchored at the origin: the value at position z is primitive[z mod n].
    """

    primitive: Word

    def __post_init__(self):
        if len(self.primitive) == 0:
            raise EmptyWordError("periodic configuration needs a non-empty word")
        if _primitive_root_length(self.primitive.indices) != len(self.primitive):
            raise ValueError("word is a proper power; use normalize_periodic")

    @property
    def least_period(self) -> int:
        return len(self.primitive)

    @property
    def alphabet(self) -> Alphabet:
        return self.primitive.alphabet

    def value_at(self, z: int) -> int:
        return self.primitive.indices[z % len(self.primitive)]

    def __repr__(self):
        return f"PeriodicConfig(({self.primitive.text()})*)"


@dataclass(frozen=True)
class PeriodicCensus:
    """Counts of periodic configurations: p[n-1] has period dividing n,
    q[n-1] has period exactly n, for 1 <= n <= max_n."""

    max_n: int
    p: tuple[int, ...]
    q: tuple[int, ...]


def _primitive_root_length(indices: tuple[int, ...]) -> int:
    """Length of the shortest word whose repetition gives ``indices``."""
    n = len(indices)
    for d in range(1, n + 1):
        if n % d == 0 and all(indices[i] == indices[i % d] for i in range(d, n)):
            return d
    return n


def normalize_periodic(word: Word) -> PeriodicConfig:
    """Canonical representative of the periodization of ``word``.

    Reduces a proper power to its primitive root; the represented
    configuration (anchored at the origin) is unchanged.
    """
    if len(word) == 0:
        raise EmptyWordError("cannot periodize the empty word")
    d = _primitive_root_length(word.indices)
    return PeriodicConfig(word[:d])


def config_distance(c1: PeriodicConfig, c2: PeriodicConfig) -> Fraction:
    """Configuration metric: 1/(n+1) where n is the least radius at which the
    two configurations disagree on [-n, n]; 0 when they are equal."""
    if c1.alphabet != c2.alphabet:
        raise AlphabetMismatchError("configurations over different alphabets")
    span = lcm(c1.least_period, c2.least_period)
    if all(c1.value_at(z) == c2.value_at(z) for z in range(span)):
        return Fraction(0)
    for n in range(span + 1):
        if c1.value_at(n) != c2.value_at(n) or c1.value_at(-n) != c2.value_at(-n):
            return Fraction(1, n + 1)
    raise AssertionError("unequal configurations must disagree within one joint period")


def cyclic_factors(config: PeriodicConfig, k: int) -> frozenset[Word]:
    """All length-k windows of the bi-infinite configuration."""
    if k < 1:
        raise BadLengthError("window length must be at least 1")
    n = config.least_period
    return frozenset(
        Word(config.alphabet, tuple(config.value_at(i + j) for j in range(k)))
        for i in range(n)
    )


def is_locally_allowed(spec: SftSpec, word: Word) -> bool:
    """True iff no forbidden word of ``spec`` occurs as a factor of ``word``.

    Weaker than language membership: a locally allowed word need not extend
    to a configuration of the shift.
    """
    if word.alphabet != spec.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    return not _has_forbidden_factor(spec, word.indices)


def _has_forbidden_factor(spec: SftSpec, indices: tuple[int, ...]) -> bool:
    for f in spec.forbidden:
        fi = f.indices
        m = len(fi)
        if m <= len(indices):
            if any(indices[i : i + m] == fi for i in range(len(indices) - m + 1)):
                return True
    return False


def periodization_allowed(spec: SftSpec, word: Word) -> bool:
    """True iff the periodization of ``word`` avoids every forbidden word.

    For periodic configurations this is exactly membership in the shift:
    a factor of length m occurs in the periodization iff it occurs in word
    repeated to length len(word) + m - 1.
    """
    if word.alphabet != spec.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    if len(word) == 0:
        raise EmptyWordError("cannot periodize the empty word")
    n = len(word)
    length = n + max((len(f) for f in spec.forbidden), default=1) - 1
    unrolled = (word.indices * -(-length // n))[:length]
    return not _has_forbidden_factor(spec, unrolled)


def enumerate_locally_allowed(spec: SftSpec, length: int) -> Iterator[Word]:
    """Yield all locally allowed words of the given length, lexicographically.

    Walks prefixes depth first on an explicit stack, pruning as soon as a
    forbidden word appears as a suffix; extensions are pushed in reverse
    letter order so that they come off the stack lexicographically.
    """
    if length < 0:
        raise BadLengthError("length must be non-negative")
    suffix_checks = [f.indices for f in spec.forbidden]
    letters = range(spec.alphabet.size - 1, -1, -1)
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == length:
            yield Word(spec.alphabet, prefix)
            continue
        for a in letters:
            cand = prefix + (a,)
            if not any(len(f) <= len(cand) and cand[-len(f):] == f for f in suffix_checks):
                stack.append(cand)


def parse_sft(text: str) -> SftSpec:
    """Parse the .sft shift specification format.

    Line-oriented; '#' starts a comment.  One ``alphabet:`` line, then any
    number of ``forbidden:`` lines, each holding one word as space-separated
    symbol tokens.  Errors carry 1-based line numbers.
    """
    alphabet: Alphabet | None = None
    forbidden: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise FormatError("duplicate alphabet declaration", lineno)
            tokens = line[len("alphabet:"):].split()
            try:
                alphabet = Alphabet(tuple(tokens))
            except ValueError as e:
                raise FormatError(str(e), lineno) from None
        elif line.startswith("forbidden:"):
            if alphabet is None:
                raise FormatError("forbidden word before alphabet declaration", lineno)
            tokens = line[len("forbidden:"):].split()
            if not tokens:
                raise FormatError("empty forbidden word", lineno)
            try:
                forbidden.append(alphabet.word(tokens))
            except FormatError as e:
                raise FormatError(str(e), lineno) from None
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno)
    if alphabet is None:
        raise FormatError("missing alphabet declaration")
    return SftSpec(alphabet, frozenset(forbidden))


def read_input(path: str | Path) -> str:
    """The text of an input file, decoded as UTF-8; bytes that do not
    decode are a FormatError, like any other malformed input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"not UTF-8 text: {e.reason} at byte {e.start}") from None


def load_sft(path: str | Path) -> SftSpec:
    try:
        return parse_sft(read_input(path))
    except FormatError as e:
        raise FormatError(e.message, e.line, str(path)) from None
