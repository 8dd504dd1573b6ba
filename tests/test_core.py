import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from helpers import ABC, BIN, SEEDED_SPECS, brute_locally_allowed, cfg, spec, w
from symshift.core import (
    Alphabet,
    PeriodicConfig,
    SftSpec,
    Word,
    config_distance,
    cyclic_factors,
    enumerate_locally_allowed,
    is_locally_allowed,
    normalize_periodic,
    parse_sft,
    periodization_allowed,
)
from symshift.errors import (
    AlphabetMismatchError,
    BadLengthError,
    EmptyWordError,
    FormatError,
)


def all_binary_words(n):
    return [Word(BIN, bits) for bits in product(range(2), repeat=n)]


class TestAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet(("0",))
        with pytest.raises(ValueError):
            Alphabet(("0", "0"))
        with pytest.raises(ValueError):
            Alphabet(("0", "a b"))
        with pytest.raises(ValueError):
            Alphabet(("0", ""))

    def test_comma_in_symbol_rejected(self):
        # word text separates tokens with commas: with b,c and a,b as
        # symbols, "a,b,c" would name both a.(b,c) and (a,b).c
        with pytest.raises(ValueError, match="comma"):
            Alphabet(("a", "b,c", "a,b", "c"))
        with pytest.raises(FormatError) as e:
            parse_sft("alphabet: a b,c a,b c")
        assert e.value.line == 1

    def test_parse_word_forms(self):
        assert w(BIN, "0101").indices == (0, 1, 0, 1)
        assert w(BIN, "0,1,0").indices == (0, 1, 0)
        assert w(BIN, "").indices == ()
        multi = Alphabet(("lo", "hi"))
        assert multi.parse_word("lo,hi").indices == (0, 1)
        assert multi.parse_word("hi").indices == (1,)
        with pytest.raises(FormatError):
            multi.parse_word("lohi")

    def test_word_text_roundtrip(self):
        assert w(BIN, "0110").text() == "0110"
        multi = Alphabet(("lo", "hi"))
        assert multi.parse_word("hi,lo").text() == "hi,lo"

    def test_concatenation_across_alphabets(self):
        with pytest.raises(AlphabetMismatchError):
            w(BIN, "01") + ABC.parse_word("a")


class TestSftSpec:
    def test_memory(self):
        assert spec("01").memory == 1
        assert spec("01", "11").memory == 1
        assert spec("01", "0", "1").memory == 1
        assert spec("01", "000", "11").memory == 2

    def test_forbidden_validation(self):
        with pytest.raises(EmptyWordError):
            SftSpec(BIN, frozenset([Word(BIN, ())]))
        with pytest.raises(AlphabetMismatchError):
            SftSpec(BIN, frozenset([ABC.parse_word("a")]))


class TestNormalizePeriodic:
    def test_examples(self):
        c = normalize_periodic(w(BIN, "0101"))
        assert c.primitive.text() == "01" and c.least_period == 2
        c = normalize_periodic(w(BIN, "011"))
        assert c.primitive.text() == "011" and c.least_period == 3
        # all proper divisors 1 and 2 of 4 fail by direct comparison
        assert "0110"[0] * 4 != "0110" and "01" * 2 != "0110"
        c = normalize_periodic(w(BIN, "0110"))
        assert c.primitive.text() == "0110" and c.least_period == 4

    def test_empty_word_rejected(self):
        with pytest.raises(EmptyWordError):
            normalize_periodic(Word(BIN, ()))

    def test_idempotent_and_power_invariant(self):
        for n in range(1, 9):
            for word in all_binary_words(n):
                c = normalize_periodic(word)
                again = normalize_periodic(c.primitive)
                assert again == c
                for d in range(1, n):
                    if n % d == 0 and word.indices == word.indices[:d] * (n // d):
                        assert normalize_periodic(word[:d]) == c

    def test_proper_power_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            PeriodicConfig(w(BIN, "0101"))

    def test_empty_word_rejected_by_constructor(self):
        with pytest.raises(EmptyWordError):
            PeriodicConfig(Word(BIN, ()))


def distance_oracle(c1, c2, span):
    """Scan positions -span..span outward for the first disagreement."""
    for n in range(span + 1):
        if c1.value_at(n) != c2.value_at(n) or c1.value_at(-n) != c2.value_at(-n):
            return Fraction(1, n + 1)
    return Fraction(0)


class TestConfigDistance:
    def test_equal_configurations(self):
        assert config_distance(cfg(BIN, "0"), cfg(BIN, "0")) == 0
        assert config_distance(cfg(BIN, "01"), normalize_periodic(w(BIN, "0101"))) == 0

    def test_disagree_at_origin(self):
        assert config_distance(cfg(BIN, "0"), cfg(BIN, "1")) == 1

    def test_period_2_vs_period_4(self):
        # unroll both primitives over [-4, 4]: (01)* is 0 at even positions,
        # (0011)* anchored 00 has value 0 at position 1, so they already
        # disagree at radius 1
        c1, c2 = cfg(BIN, "01"), cfg(BIN, "0011")
        assert distance_oracle(c1, c2, 4) == Fraction(1, 2)
        assert config_distance(c1, c2) == Fraction(1, 2)

    def test_anchoring_distinguishes_rotations(self):
        assert config_distance(cfg(BIN, "01"), cfg(BIN, "10")) == 1

    def test_metric_properties_by_enumeration(self):
        prims = []
        for n in range(1, 4):
            for word in all_binary_words(n):
                c = normalize_periodic(word)
                if c.least_period == n:
                    prims.append(c)
        for c1 in prims:
            for c2 in prims:
                d = config_distance(c1, c2)
                assert d == config_distance(c2, c1)
                assert (d == 0) == (c1 == c2)
                assert d == distance_oracle(c1, c2, 12)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            config_distance(cfg(BIN, "0"), cfg(ABC, "a"))


class TestCyclicFactors:
    def test_examples(self):
        assert {f.text() for f in cyclic_factors(cfg(BIN, "01"), 2)} == {"01", "10"}
        assert {f.text() for f in cyclic_factors(cfg(BIN, "0"), 3)} == {"000"}
        # windows of "011011": 01, 11, 10
        assert {f.text() for f in cyclic_factors(cfg(BIN, "011"), 2)} == {"01", "11", "10"}

    def test_bad_length(self):
        with pytest.raises(BadLengthError):
            cyclic_factors(cfg(BIN, "01"), 0)

    def test_prefix_projection(self):
        for word in all_binary_words(5):
            c = normalize_periodic(word)
            for k in range(1, 4):
                prefixes = {f[:k] for f in cyclic_factors(c, k + 1)}
                assert prefixes == cyclic_factors(c, k)


class TestLocallyAllowed:
    def test_examples(self):
        golden = spec("01", "11")
        assert is_locally_allowed(golden, w(BIN, "0101"))
        assert not is_locally_allowed(golden, w(BIN, "0110"))
        # no length-2 factor exists in a 1-letter word
        ab = spec("ab", "aa", "ab", "ba")
        assert is_locally_allowed(ab, ab.alphabet.parse_word("a"))

    def test_word_over_another_alphabet(self):
        with pytest.raises(AlphabetMismatchError):
            is_locally_allowed(spec("01", "11"), ABC.parse_word("a"))
        with pytest.raises(AlphabetMismatchError):
            periodization_allowed(spec("01", "11"), ABC.parse_word("a"))

    def test_empty_word_not_periodized(self):
        with pytest.raises(EmptyWordError):
            periodization_allowed(spec("01", "11"), Word(BIN, ()))

    def test_negative_length_not_enumerated(self):
        with pytest.raises(BadLengthError):
            list(enumerate_locally_allowed(spec("01", "11"), -1))

    def test_enumerate_locally_allowed(self):
        golden = spec("01", "11")
        words = list(enumerate_locally_allowed(golden, 3))
        assert words == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
        brute = [
            x.indices for x in all_binary_words(3) if is_locally_allowed(golden, x)
        ]
        assert words == brute

    def test_enumeration_holds_one_prefix(self):
        # a stack of prefixes would hold about 8,000 of them, hundreds of
        # megabytes, before the first word of length 8001
        tracemalloc.start()
        try:
            first = next(enumerate_locally_allowed(spec("01"), 8001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == (0,) * 8001
        assert peak < 5_000_000

    def test_enumeration_with_a_long_forbidden_word_holds_one_prefix(self):
        # one suffix code per depth, each below 2^20
        tracemalloc.start()
        try:
            first = next(enumerate_locally_allowed(spec("01", "1" * 20), 8001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == (0,) * 8001
        assert peak < 5_000_000

    def test_short_prefixes_are_not_taken_for_forbidden_words(self):
        # the suffix codes of 0 and 00 equal those of the forbidden words 00
        # and 000, but a prefix shorter than a forbidden word cannot end in it
        s = spec("01", "00", "000", "1000")
        assert list(enumerate_locally_allowed(s, 1)) == [(0,), (1,)]
        for n in range(2, 6):
            assert list(enumerate_locally_allowed(s, n)) == brute_locally_allowed(s, n)

    def test_periodization_allowed(self):
        golden = spec("01", "11")
        assert periodization_allowed(golden, w(BIN, "01"))
        # wraparound factor: 10|10 contains no 11, but 1|1 does at the seam
        assert periodization_allowed(golden, w(BIN, "10"))
        assert not periodization_allowed(golden, w(BIN, "1"))
        assert not periodization_allowed(golden, w(BIN, "011"))

    @pytest.mark.parametrize("s", SEEDED_SPECS)
    def test_enumeration_and_periodization_against_brute_force(self, s):
        longest = max(len(f) for f in s.forbidden)
        for n in range(6):
            words = list(enumerate_locally_allowed(s, n))
            assert words == brute_locally_allowed(s, n)
            if n == 0:
                continue
            for idx in product(range(s.alphabet.size), repeat=n):
                # every factor of the periodization of length <= longest
                # occurs in longest + 1 copies of the word
                unrolled = Word(s.alphabet, idx * (longest + 1))
                expected = is_locally_allowed(s, unrolled)
                assert periodization_allowed(s, Word(s.alphabet, idx)) == expected, idx


class TestSftFormat:
    GOLDEN = """
    # golden mean shift
    alphabet: 0 1
    forbidden: 1 1
    """

    def test_parse(self):
        s = parse_sft(self.GOLDEN)
        assert s.alphabet.symbols == ("0", "1")
        assert {f.text() for f in s.forbidden} == {"11"}
        assert s.memory == 1

    @pytest.mark.parametrize(
        "text",
        [
            "alphabet:0 1\nforbidden:1 1",  # no space after the colon
            "alphabet: 0 1  # binary\nforbidden: 1 1 # no two 1s\n",
            "alphabet: 0 1\r\nforbidden: 1 1\r\n",
        ],
    )
    def test_line_spellings(self, text):
        s = parse_sft(text)
        assert s.alphabet.symbols == ("0", "1")
        assert {f.text() for f in s.forbidden} == {"11"}

    def test_symbol_holding_a_colon(self):
        # only the line's start is a keyword; the tokens after it are symbols
        s = parse_sft("alphabet: a:b c\nforbidden: a:b a:b")
        assert s.alphabet.symbols == ("a:b", "c")
        assert [f.indices for f in s.forbidden] == [(0, 0)]

    def test_full_shift_without_forbidden(self):
        s = parse_sft("alphabet: a b c")
        assert s.forbidden == frozenset() and s.memory == 1

    def test_errors_carry_line_numbers(self):
        with pytest.raises(FormatError) as e:
            parse_sft("alphabet: 0 1\nforbidden: 1 2")
        assert e.value.line == 2
        with pytest.raises(FormatError) as e:
            parse_sft("alphabet: 0 1\nalphabet: 0 1")
        assert e.value.line == 2
        with pytest.raises(FormatError) as e:
            parse_sft("forbidden: 1")
        assert e.value.line == 1
        with pytest.raises(FormatError) as e:
            parse_sft("alphabet: 0 1\nnonsense")
        assert e.value.line == 2
        for keyword in ("Alphabet:", "alphabet :"):
            with pytest.raises(FormatError, match="unrecognized line") as e:
                parse_sft(f"{keyword} 0 1")
            assert e.value.line == 1
        with pytest.raises(FormatError):
            parse_sft("# nothing here")
        with pytest.raises(FormatError) as e:
            parse_sft("alphabet: 0 1\nforbidden:")
        assert e.value.line == 2
