"""Seeded mutation fuzzing of the .sft, .rule and .pres parsers through the
command line: whatever the bytes, a command answers (exit 0 or 1) or
refuses the input (exit 2); exit 3 would mean a bug."""

import json
import random

import pytest

from symshift.cli import run

SFT_TEXTS = (
    "# golden mean\nalphabet: 0 1\nforbidden: 1 1\n",
    "alphabet: 0 1\n",
    "alphabet: 0 1\nforbidden: 0 1 1\nforbidden: 1 1 1  # memory 2\n",
)
FULL2_SFT = SFT_TEXTS[1]

RULE_TEXTS = (
    "# xor of the outer cells\nradius: 1\n"
    + "".join(f"map: {a} {b} {c} -> {int(a) ^ int(c)}\n" for a in "01" for b in "01" for c in "01"),
    "radius: 0\nmap: 0 -> 1\nmap: 1 -> 0\n",
)

GOLDEN_PRES = json.dumps(
    {
        "states": ["a", "b"],
        "alphabet": ["0", "1"],
        "edges": [
            {"from": "a", "to": "a", "label": "0"},
            {"from": "a", "to": "b", "label": "1"},
            {"from": "b", "to": "a", "label": "0"},
        ],
    },
    indent=1,
)
PRES_TEXTS = (GOLDEN_PRES, json.dumps({"states": ["s"], "edges": [{"from": "s", "to": "s"}]}))

# characters that mean something to one of the parsers, plus digits that
# str.isdigit accepts and int() rejects, a byte-order mark and a NUL
NOISE = list("01abc:#->{}[]\",. \n\t") + ["radius:", "map:", "forbidden:", "alphabet:", "²", "٣", "﻿", "\x00", "é"]
BAD_BYTES = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")

CASES = 100  # per command; 3,000 cases per command with other seeds found no exit 3


def mutate(rng: random.Random, text: str) -> bytes:
    """One to three random edits of characters, tokens or lines, and
    now and then a byte that is not valid UTF-8."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        op = rng.randrange(7)
        i = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:i] + text[i + rng.randint(1, 3) :]
        elif op == 1:
            text = text[:i] + rng.choice(NOISE) + text[i:]
        elif op == 2:
            j = rng.randrange(len(lines))
            lines.insert(j, lines[j])
            text = "\n".join(lines)
        elif op == 3:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == 4:
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
            text = "\n".join(lines)
        elif op == 5:
            tokens = text.split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(tokens + NOISE)
            text = " ".join(tokens)
        else:
            text = text[:i]
    data = text.encode()
    if rng.random() < 0.1:
        i = rng.randrange(len(data) + 1)
        data = data[:i] + rng.choice(BAD_BYTES) + data[i:]
    return data


@pytest.fixture
def call(tmp_path, capsys):
    """Write the given files, run one command on them and return its exit
    code; output is discarded."""

    def _call(command, files):
        paths = []
        for name, data in files:
            path = tmp_path / name
            path.write_bytes(data if isinstance(data, bytes) else data.encode())
            paths.append(str(path))
        code = run([*command, *paths])
        capsys.readouterr()
        return code

    return _call


def test_mutated_sft_files(call):
    rng = random.Random(41)
    for _ in range(CASES):
        data = mutate(rng, rng.choice(SFT_TEXTS))
        assert call(["shift", "check"], [("s.sft", data)]) in (0, 1, 2), data


def test_mutated_rule_files(call):
    rng = random.Random(42)
    for _ in range(CASES):
        sft = rng.choice(SFT_TEXTS)
        rule = rng.choice(RULE_TEXTS)
        if rng.random() < 0.2:
            sft = mutate(rng, sft)
        else:
            rule = mutate(rng, rule)
        files = [("s.sft", sft), ("r.rule", rule)]
        assert call(["map", "surjective"], files) in (0, 1, 2), files


def test_mutated_pres_files(call):
    rng = random.Random(43)
    for _ in range(CASES):
        data = mutate(rng, rng.choice(PRES_TEXTS))
        files = [("a.pres", data), ("b.pres", GOLDEN_PRES)]
        assert call(["sofic", "equal"], files) in (0, 1, 2), data


@pytest.mark.parametrize(
    "command, files",
    [
        (["shift", "check"], [("s.sft", b"alphabet: 0 1\xff\n")]),
        (["map", "surjective"], [("s.sft", FULL2_SFT), ("r.rule", b"radius: 0\n\xc3")]),
        (["sofic", "equal"], [("a.pres", b"\xff" + GOLDEN_PRES.encode()), ("b.pres", GOLDEN_PRES)]),
        (["map", "surjective"], [("s.sft", FULL2_SFT), ("r.rule", "radius: ²\nmap: 0 -> 0\n")]),
        (["sofic", "equal"], [("a.pres", "[" * 100000 + "]" * 100000), ("b.pres", GOLDEN_PRES)]),
    ],
    ids=["sft-not-utf8", "rule-not-utf8", "pres-not-utf8", "superscript-radius", "deep-json"],
)
def test_malformed_encodings_digits_and_nesting(call, command, files):
    """Undecodable bytes, a digit that int() rejects and JSON nested past
    the recursion limit are format errors."""
    assert call(command, files) == 2
