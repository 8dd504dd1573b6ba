"""Brute-force oracles for the benchmark, independent of symshift.

Everything here works on plain tuples of symbol indices and imports nothing
from the package under test, so a wrong verdict cannot be confirmed by the
same code that produced it.  Sizes are desk scale: every routine enumerates
words or walks graphs of a few hundred states.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import gcd


def by_length(forbidden) -> dict:
    """Forbidden words grouped by length, the form ``has_factor`` takes."""
    table: dict = {}
    for f in forbidden:
        table.setdefault(len(f), set()).add(tuple(f))
    return table


def has_factor(word: tuple, table: dict) -> bool:
    return any(
        word[i : i + length] in words
        for length, words in table.items()
        for i in range(len(word) - length + 1)
    )


def periodic_count(k: int, forbidden, n: int) -> int:
    """Number of points of period dividing n: words of length n whose
    periodization avoids every forbidden word."""
    table = by_length(forbidden)
    longest = max(table, default=1)
    reps = (n + longest - 1) // n + 1
    return sum(1 for w in product(range(k), repeat=n) if not has_factor(w * reps, table))


class ShiftOracle:
    """Essential de Bruijn graph of an SFT, built by enumeration.

    States are the allowed blocks of length m (m = longest forbidden word
    minus one, at least 1); a state survives when it lies on a bi-infinite
    path.  Answers membership, irreducibility, mixing and density of
    periodic points from that graph by plain breadth-first search.
    """

    def __init__(self, k: int, forbidden):
        self.k = k
        self.forbidden = by_length(forbidden)
        self.m = max(1, max(self.forbidden, default=1) - 1)
        blocks = {
            w for w in product(range(k), repeat=self.m) if not has_factor(w, self.forbidden)
        }
        succ = {
            u: {u[1:] + (a,) for a in range(k) if not has_factor(u + (a,), self.forbidden)} & blocks
            for u in blocks
        }
        while True:
            pred = {u: set() for u in blocks}
            for u in blocks:
                for v in succ[u]:
                    pred[v].add(u)
            dead = {u for u in blocks if not succ[u] or not pred[u]}
            if not dead:
                break
            blocks -= dead
            succ = {u: succ[u] - dead for u in blocks}
        self.states = blocks
        self.succ = succ

    def member(self, word: tuple) -> bool:
        m = self.m
        if len(word) < m:
            return any(
                s[i : i + len(word)] == word for s in self.states for i in range(m - len(word) + 1)
            )
        if has_factor(word, self.forbidden):
            return False
        return all(word[i : i + m] in self.states for i in range(len(word) - m + 1))

    def _reach(self, start) -> set:
        seen = {start}
        frontier = [start]
        while frontier:
            frontier = [v for u in frontier for v in self.succ[u] if v not in seen]
            seen.update(frontier)
        return seen

    def irreducible(self) -> bool:
        start = min(self.states)
        return self._reach(start) == self.states and all(
            start in self._reach(u) for u in self.states
        )

    def dense_periodic(self) -> bool:
        """Every edge u -> v closes a cycle (v reaches u)."""
        reach = {u: self._reach(u) for u in self.states}
        return all(u in reach[v] for u in self.states for v in self.succ[u])

    def period(self) -> int:
        """gcd of the lengths of closed walks through one state, up to 3N;
        on an irreducible graph this is the gcd of all cycle lengths."""
        start = min(self.states)
        layer = {start}
        g = 0
        for n in range(1, 3 * len(self.states) + 1):
            layer = {v for u in layer for v in self.succ[u]}
            if start in layer:
                g = gcd(g, n)
        return g

    def mixing(self) -> bool:
        return self.irreducible() and self.period() == 1


def apply_rule(table: dict, radius: int, word: tuple) -> tuple:
    w = 2 * radius + 1
    return tuple(table[word[i : i + w]] for i in range(len(word) - w + 1))


def apply_periodic(table: dict, radius: int, word: tuple) -> tuple:
    """Image of the periodization of ``word``, reduced to its primitive root."""
    n = len(word)
    ext = tuple(word[(i - radius) % n] for i in range(n + 2 * radius))
    image = apply_rule(table, radius, ext)
    for d in range(1, n + 1):
        if n % d == 0 and image == image[:d] * (n // d):
            return image[:d]
    return image


def has_preimage(table: dict, radius: int, k: int, target: tuple) -> bool:
    """Exhaustive preimage search: carries every length-2r suffix of every
    partial preimage of the target prefix read so far."""
    span = 2 * radius
    current = set(product(range(k), repeat=span))
    for b in target:
        current = {
            (s + (a,))[1:]
            for s in current
            for a in range(k)
            if table.get(s + (a,)) == b
        }
        if not current:
            return False
    return True


def balanced(table: dict, radius: int, k: int, n: int) -> bool:
    """Hedlund's balance on the full shift: every word of length n has
    exactly k^(2r) preimages of length n + 2r."""
    counts = Counter(
        apply_rule(table, radius, w) for w in product(range(k), repeat=n + 2 * radius)
    )
    return len(counts) == k**n and set(counts.values()) == {k ** (2 * radius)}


def is_selfmap(table: dict, radius: int, k: int, forbidden) -> bool:
    """The image of every allowed word long enough to contain a forbidden
    factor in its image avoids the forbidden words.  Exact for domains whose
    allowed words all extend (full shifts, the golden mean shift)."""
    if not forbidden:
        return True
    words = by_length(forbidden)
    length = 2 * radius + max(words)
    return not any(
        has_factor(apply_rule(table, radius, w), words)
        for w in product(range(k), repeat=length)
        if not has_factor(w, words)
    )
