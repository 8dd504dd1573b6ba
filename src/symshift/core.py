"""Alphabets, words, forbidden-block specifications and periodic configurations.

Symbols are stored as integer indices into an alphabet table; all text
formats use the symbolic names.  Every type here is immutable and every
operation is a pure function.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    AlphabetMismatchError,
    BadLengthError,
    EmptyWordError,
    FormatError,
)

if TYPE_CHECKING:
    from fractions import Fraction

_set = object.__setattr__


class _Frozen:
    """Base of the immutable classes.  ``__init__`` sets each slot with
    ``_set``, and nothing can be set or deleted afterwards.  Equality, hash
    and repr go by the fields named in ``_fields``; objects of different
    classes are unequal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # an attrgetter does not bind as a method: self._key(obj) reads obj
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Frozen):
    """An ordered set of at least two distinct symbol names."""

    __slots__ = ("symbols", "_index")
    _fields = ("symbols",)

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        if len(symbols) < 2:
            raise ValueError("alphabet needs at least two symbols")
        for s in symbols:
            # a comma separates the tokens of a word's text
            if not s or "," in s or any(c.isspace() for c in s):
                raise ValueError(
                    f"bad symbol {s!r}: symbols are non-empty, without whitespace or commas"
                )
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbols in alphabet")
        _set(self, "symbols", symbols)
        _set(self, "_index", {s: i for i, s in enumerate(symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

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


class Word(_Frozen):
    """A finite sequence of symbols, stored as indices into its alphabet."""

    __slots__ = _fields = ("alphabet", "indices")

    def __init__(self, alphabet: Alphabet, indices: Iterable[int]):
        indices = tuple(indices)
        n = alphabet.size
        if any(not (0 <= i < n) for i in indices):
            raise ValueError("word contains an index outside its alphabet")
        _set(self, "alphabet", alphabet)
        _set(self, "indices", indices)

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


class SftSpec(_Frozen):
    """A shift of finite type over Z: alphabet plus a finite forbidden word set."""

    __slots__ = _fields = ("alphabet", "forbidden")

    def __init__(self, alphabet: Alphabet, forbidden: Iterable[Word]):
        forbidden = frozenset(forbidden)
        for w in forbidden:
            if len(w) == 0:
                raise EmptyWordError("forbidden words must be non-empty")
            if w.alphabet != alphabet:
                raise AlphabetMismatchError("forbidden word over a different alphabet")
        _set(self, "alphabet", alphabet)
        _set(self, "forbidden", forbidden)

    @property
    def memory(self) -> int:
        """Largest forbidden length minus one, floored at 1 (full shift has memory 1)."""
        if not self.forbidden:
            return 1
        return max(1, max(len(w) for w in self.forbidden) - 1)


class PeriodicConfig(_Frozen):
    """A periodic bi-infinite configuration, stored as its primitive repeating
    word anchored at the origin: the value at position z is primitive[z mod n].
    """

    __slots__ = _fields = ("primitive",)

    def __init__(self, primitive: Word):
        if len(primitive) == 0:
            raise EmptyWordError("periodic configuration needs a non-empty word")
        if _primitive_root_length(primitive.indices) != len(primitive):
            raise ValueError("word is a proper power; use normalize_periodic")
        _set(self, "primitive", primitive)

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


PeriodicCensus = namedtuple("PeriodicCensus", "max_n p q")
PeriodicCensus.__doc__ = """Counts of periodic configurations: p[n-1] has period dividing n,
q[n-1] has period exactly n, for 1 <= n <= max_n."""


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
    from fractions import Fraction  # imported here: nothing else needs it

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


def enumerate_locally_allowed(spec: SftSpec, length: int) -> Iterator[tuple[int, ...]]:
    """Yield all locally allowed words of the given length, lexicographically,
    as tuples of symbol indices; callers that hand words out of the library
    wrap them in a ``Word``.

    Walks prefixes depth first on an explicit stack, pruning as soon as a
    forbidden word appears as a suffix, looked up in a set per forbidden
    length; extensions are pushed in reverse letter order so that they
    come off the stack lexicographically.
    """
    if length < 0:
        raise BadLengthError("length must be non-negative")
    by_length: dict[int, set[tuple[int, ...]]] = {}
    for f in spec.forbidden:
        by_length.setdefault(len(f), set()).add(f.indices)
    suffix_checks = sorted(by_length.items())
    letters = range(spec.alphabet.size - 1, -1, -1)
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == length:
            yield prefix
            continue
        for a in letters:
            cand = prefix + (a,)
            for m, words in suffix_checks:
                if m <= len(cand) and cand[-m:] in words:
                    break
            else:
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
