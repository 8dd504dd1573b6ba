"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime bound.  Expected values come from independent
brute-force oracles implemented in this module.  Run with -s to see the
per-criterion lines."""

import json
import random
import time
from contextlib import contextmanager
from itertools import product

from helpers import spec, words_of_language
from symshift.cli import run
from symshift.core import Word, cyclic_factors
from symshift.graphs import save_presentation
from symshift.localmaps import (
    common_half_order,
    enumerate_rules,
    find_goe_pattern,
    is_preinjective,
    is_surjective,
    surjunctivity_audit,
)
from symshift.shifts import (
    build_higher_block,
    enumerate_periodic,
    language_member,
    pasting_check,
    periodic_census,
    presentation,
)

GOLDEN = spec("01", "11")
ANTI = spec("01", "01")
FULL2 = spec("01")

GOLDEN_SFT = "alphabet: 0 1\nforbidden: 1 1\n"
ANTI_SFT = "alphabet: 0 1\nforbidden: 0 1\n"
FULL2_SFT = "alphabet: 0 1\n"
XOR_RULE = "radius: 1\n" + "".join(
    f"map: {a} {b} {c} -> {(a + c) % 2}\n"
    for a in (0, 1)
    for b in (0, 1)
    for c in (0, 1)
)


@contextmanager
def criterion(number, label, bound_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < bound_seconds, f"runtime {elapsed:.2f}s exceeds {bound_seconds}s"


def brute_census(s, max_n):
    """Independent census oracle: scan the unrolled repetitions of every
    cyclic word for forbidden factors."""
    forbidden = [f.indices for f in s.forbidden]
    out = []
    for n in range(1, max_n + 1):
        count = 0
        for bits in product(range(s.alphabet.size), repeat=n):
            unrolled = bits * ((2 * n - 1) // n + 2)
            if all(
                unrolled[i : i + len(f)] != f
                for f in forbidden
                for i in range(n)
            ):
                count += 1
        out.append(count)
    return out


def sliding_apply(rule, indices):
    width = rule.window_length
    return tuple(
        rule.table[indices[i : i + width]] for i in range(len(indices) - width + 1)
    )


def preimage_exists(rule, word):
    """Exhaustive preimage search over candidates of length |w| + 2*M'."""
    half = common_half_order(rule)
    offset = half - rule.radius
    size = rule.domain.alphabet.size
    for bits in product(range(size), repeat=len(word) + 2 * half):
        if rule.domain.forbidden and not language_member(
            rule.domain, Word(rule.domain.alphabet, bits)
        ):
            continue
        out = sliding_apply(rule, bits)
        if out[offset : offset + len(word)] == word.indices:
            return True
    return False


def test_criterion_01_xor_surjective_not_injective(tmp_path):
    with criterion(1, "xor surjective, not injective", 1.0):
        spec_path = tmp_path / "full2.sft"
        rule_path = tmp_path / "xor.rule"
        spec_path.write_text(FULL2_SFT)
        rule_path.write_text(XOR_RULE)
        assert run(["map", "surjective", str(spec_path), str(rule_path)]) == 0
        assert run(["map", "injective", str(spec_path), str(rule_path)]) == 1


def test_criterion_02_golden_census_against_oracle():
    with criterion(2, "golden-mean census n<=12", 5.0):
        census = periodic_census(GOLDEN, 12)
        assert list(census.p[:4]) == [1, 3, 4, 7]
        assert list(census.p) == brute_census(GOLDEN, 12)


def test_criterion_03_anti_golden_periodics(tmp_path, capsys):
    with criterion(3, "forbidden-01 shift has closed periodic set", 1.0):
        spec_path = tmp_path / "anti.sft"
        spec_path.write_text(ANTI_SFT)
        assert run(["shift", "dense-periodic", str(spec_path)]) == 1
        assert (
            run(["shift", "periodic", str(spec_path), "--max-n", "6", "--list", "--json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert len(doc["census"]) == 6
        for row in doc["census"]:
            assert row["p"] == 2
            assert row["configs"] == ["0", "1"]


def test_criterion_04_golden_density_with_witnesses(tmp_path):
    with criterion(4, "irreducible implies dense, with witnesses", 5.0):
        spec_path = tmp_path / "golden.sft"
        spec_path.write_text(GOLDEN_SFT)
        assert run(["shift", "irreducible", str(spec_path)]) == 0
        assert run(["shift", "dense-periodic", str(spec_path)]) == 0
        n_states = len(presentation(GOLDEN).states)
        for word in words_of_language(GOLDEN, 6):
            if len(word) == 0:
                continue
            assert any(
                word in cyclic_factors(config, len(word))
                for n in range(1, n_states + len(word) + 1)
                for config in enumerate_periodic(GOLDEN, n)
            ), f"no periodic configuration contains {word!r}"


def test_criterion_05_census_conjugacy_invariance():
    with criterion(5, "census invariant under higher-block recoding", 30.0):
        specs = [
            spec("01"),
            spec("01", "11"),
            spec("01", "01"),
            spec("01", "00", "11"),
            spec("01", "000"),
            spec("01", "010"),
            spec("01", "011"),
            spec("abc"),
            spec("abc", "ab"),
            spec("abc", "aa", "bc"),
        ]
        assert len(specs) == 10
        for s in specs:
            at_memory = periodic_census(s, 8, order=s.memory)
            at_higher = periodic_census(s, 8, order=s.memory + 2)
            assert at_memory.p == at_higher.p
            assert at_memory.q == at_higher.q


def test_criterion_06_surjunctivity_audit():
    with criterion(6, "no injective-yet-not-surjective radius-1 rule", 60.0):
        report = surjunctivity_audit(enumerate_rules(FULL2, 1), FULL2)
        assert len(report.entries) == 256
        assert all(e.selfmap for e in report.entries)
        assert report.violations == ()
        # regression guard: exactly 30 of the 256 rules are onto, each
        # negative verdict re-verified by the orphan search in criterion 9
        assert sum(1 for e in report.entries if e.surjective) == 30


def test_criterion_07_goe_equivalence():
    with criterion(7, "surjective iff pre-injective over 256 rules", 120.0):
        for rule in enumerate_rules(FULL2, 1):
            onto, _ = is_surjective(rule)
            assert onto == is_preinjective(rule), rule.name


def test_criterion_08_sofic_equality(tmp_path, capsys):
    with criterion(8, "sofic equality with re-verified counterexample", 1.0):
        g1 = tmp_path / "golden1.pres"
        g2 = tmp_path / "golden2.pres"
        f = tmp_path / "full.pres"
        golden_path = tmp_path / "golden.sft"
        save_presentation(build_higher_block(GOLDEN, 1), g1)
        save_presentation(build_higher_block(GOLDEN, 2), g2)
        save_presentation(presentation(FULL2), f)
        golden_path.write_text(GOLDEN_SFT)
        assert run(["sofic", "equal", str(g1), str(g2)]) == 0
        assert run(["sofic", "equal", str(g1), str(f), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["answer"] == "no" and doc["witness"] == "11"
        assert run(["shift", "member", str(golden_path), doc["witness"]]) == 1


def test_criterion_09_orphans_have_no_preimage():
    with criterion(9, "every audit orphan verified preimage-free", 120.0):
        checked = 0
        for rule in enumerate_rules(FULL2, 1):
            onto, orphan = is_surjective(rule)
            if onto:
                continue
            assert orphan is not None
            assert orphan == find_goe_pattern(rule)
            assert language_member(FULL2, orphan)
            assert not preimage_exists(rule, orphan)
            checked += 1
        assert checked > 0


def test_criterion_10_pasting_property():
    with criterion(10, "pasting property on 1000 random triples", 10.0):
        specs = [
            FULL2,
            GOLDEN,
            ANTI,
            spec("01", "00", "11"),
            spec("01", "000", "11"),
        ]
        rng = random.Random(2024)
        premises = 0
        for s in specs:
            m = s.memory
            for _ in range(200):
                u = Word(s.alphabet, tuple(rng.randrange(2) for _ in range(rng.randrange(0, 5))))
                v = Word(s.alphabet, tuple(rng.randrange(2) for _ in range(rng.randrange(m, m + 3))))
                x = Word(s.alphabet, tuple(rng.randrange(2) for _ in range(rng.randrange(0, 5))))
                if language_member(s, u + v) and language_member(s, v + x):
                    premises += 1
                    assert pasting_check(s, u, v, x)
        assert premises > 100
