import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import blowup_rule, seeded_de_bruijn

import symshift
from symshift import shifts
from symshift.cli import QUESTIONS, run
from symshift.core import load_sft
from symshift.graphs import LabeledGraph, load_presentation, save_presentation
from symshift.localmaps import load_rule
from symshift.shifts import build_higher_block, presentation

GOLDEN_SFT = "# golden mean\nalphabet: 0 1\nforbidden: 1 1\n"
ANTI_SFT = "alphabet: 0 1\nforbidden: 0 1\n"
FULL2_SFT = "alphabet: 0 1\n"
EMPTY_SFT = "alphabet: 0 1\nforbidden: 0\nforbidden: 1\n"

XOR_RULE = """radius: 1
map: 0 0 0 -> 0
map: 0 0 1 -> 1
map: 0 1 0 -> 0
map: 0 1 1 -> 1
map: 1 0 0 -> 1
map: 1 0 1 -> 0
map: 1 1 0 -> 1
map: 1 1 1 -> 0
"""

CONST0_RULE = "radius: 1\n" + "".join(
    f"map: {a} {b} {c} -> 0\n"
    for a in "01"
    for b in "01"
    for c in "01"
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestShiftCommands:
    def test_check(self, write, capsys):
        assert run(["shift", "check", write("g.sft", GOLDEN_SFT)]) == 0
        out = capsys.readouterr().out
        assert "alphabet: 0 1" in out
        assert "memory: 1" in out
        assert "empty: no" in out

    def test_check_json(self, write, capsys):
        assert run(["shift", "check", write("g.sft", GOLDEN_SFT), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "alphabet": ["0", "1"],
            "memory": 1,
            "forbidden": ["11"],
            "empty": False,
        }

    def test_empty(self, write, capsys):
        assert run(["shift", "empty", write("g.sft", GOLDEN_SFT)]) == 1
        assert capsys.readouterr().out.strip() == "no"
        assert run(["shift", "empty", write("e.sft", EMPTY_SFT)]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_member(self, write, capsys):
        path = write("g.sft", GOLDEN_SFT)
        assert run(["shift", "member", path, "1,1"]) == 1
        assert capsys.readouterr().out.strip() == "no"
        assert run(["shift", "member", path, "0101"]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_member_where_blocks_are_refused(self, write, capsys):
        # memory 23 over three letters: shift check refuses the blocks of
        # length 23, and membership answers without listing any
        path = write("long3.sft", "alphabet: 0 1 2\nforbidden:" + " 0" * 24
                     + "\nforbidden: 2 0\nforbidden: 2 1\nforbidden: 2 2\n")
        start = time.perf_counter()
        assert run(["shift", "member", path, "0101"]) == 0
        assert run(["shift", "member", path, "12"]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.split() == ["yes", "no"]
        assert run(["shift", "check", path]) == 2

    def test_irreducible_and_mixing(self, write):
        golden = write("g.sft", GOLDEN_SFT)
        anti = write("a.sft", ANTI_SFT)
        assert run(["shift", "irreducible", golden]) == 0
        assert run(["shift", "irreducible", anti]) == 1
        assert run(["shift", "mixing", golden]) == 0

    def test_reducible_is_not_mixing(self, write, capsys):
        assert run(["shift", "mixing", write("a.sft", ANTI_SFT)]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_dense_periodic(self, write, capsys):
        assert run(["shift", "dense-periodic", write("g.sft", GOLDEN_SFT)]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert run(["shift", "dense-periodic", write("a.sft", ANTI_SFT)]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_periodic_table(self, write, capsys):
        assert run(["shift", "periodic", write("g.sft", GOLDEN_SFT), "--max-n", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n p_n q_n"
        assert lines[1:] == ["1 1 1", "2 3 2", "3 4 3", "4 7 4"]

    def test_periodic_list_and_json_round_trip(self, write, capsys):
        path = write("g.sft", GOLDEN_SFT)
        assert run(["shift", "periodic", path, "--max-n", "2", "--list"]) == 0
        text = capsys.readouterr().out
        assert "configs: 0" in text and "0 01 10" in text
        assert run(["shift", "periodic", path, "--max-n", "2", "--list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["census"][1] == {"n": 2, "p": 3, "q": 2, "configs": ["0", "01", "10"]}

    def test_periodic_list_cap(self, write, capsys):
        # p_14 = 16384 for the full binary shift, beyond the listing cap
        assert run(["shift", "periodic", write("f.sft", FULL2_SFT), "--max-n", "14", "--list"]) == 2
        err = capsys.readouterr().err
        assert "cap" in err and "error[E_TOO_LARGE]" in err

    @pytest.mark.parametrize(
        "text, max_n", [(FULL2_SFT, 14), ("alphabet: 0 1 2\n", 9), (GOLDEN_SFT, 20)]
    )
    def test_periodic_list_cap_refuses_before_listing(self, write, capsys, monkeypatch, text, max_n):
        # every p_n is checked before any configuration is listed
        def refuse(spec, n):
            raise AssertionError("enumerate_periodic called")

        monkeypatch.setattr(shifts, "enumerate_periodic", refuse)
        assert run(["shift", "periodic", write("s.sft", text), "--max-n", str(max_n), "--list"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cap" in captured.err and "E_TOO_LARGE" in captured.err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_periodic_refuses_counts_past_the_digit_limit(self, write, capsys, flags):
        # p_4400 = 10^4400 on the full 10-letter shift has more digits than
        # Python prints; the census is refused before it is computed
        path = write("f10.sft", "alphabet: 0 1 2 3 4 5 6 7 8 9\n")
        assert run(["shift", "periodic", path, "--max-n", "4400", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "digits" in captured.err
        assert "error[E_TOO_LARGE]" in captured.err

    def test_multicharacter_symbols(self, write, capsys):
        path = write("tones.sft", "alphabet: lo hi\nforbidden: hi hi\n")
        assert run(["shift", "member", path, "lo,hi,lo"]) == 0
        capsys.readouterr()
        assert run(["shift", "member", path, "hi,hi"]) == 1
        capsys.readouterr()
        assert run(["shift", "periodic", path, "--max-n", "2", "--list"]) == 0
        assert "lo,hi" in capsys.readouterr().out


class TestSoficCommands:
    def test_equal_and_counterexample(self, write, tmp_path, capsys):
        golden = load_sft(write("g.sft", GOLDEN_SFT))
        full = load_sft(write("f.sft", FULL2_SFT))
        a1 = tmp_path / "a1.pres"
        a2 = tmp_path / "a2.pres"
        b = tmp_path / "b.pres"
        save_presentation(build_higher_block(golden, 1), a1)
        save_presentation(build_higher_block(golden, 2), a2)
        save_presentation(presentation(full), b)
        assert run(["sofic", "equal", str(a1), str(a2)]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert run(["sofic", "equal", str(a1), str(b)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "no"
        assert "counterexample: 11" in out

    def test_counterexample_reverifies_via_member(self, write, tmp_path, capsys):
        golden_path = write("g.sft", GOLDEN_SFT)
        golden = load_sft(golden_path)
        full = load_sft(write("f.sft", FULL2_SFT))
        a = tmp_path / "a.pres"
        b = tmp_path / "b.pres"
        save_presentation(presentation(golden), a)
        save_presentation(presentation(full), b)
        run(["sofic", "equal", str(a), str(b), "--json"])
        doc = json.loads(capsys.readouterr().out)
        witness = doc["witness"]
        assert run(["shift", "member", golden_path, witness]) == 1


class TestMapCommands:
    def test_apply(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        rule = write("xor.rule", XOR_RULE)
        assert run(["map", "apply", spec, rule, "--word", "1"]) == 0
        out = capsys.readouterr().out
        assert "image: 0" in out and "period: 1" in out
        assert run(["map", "apply", spec, rule, "--word", "011"]) == 0
        assert "image: 011" in capsys.readouterr().out

    def test_apply_json(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        rule = write("xor.rule", XOR_RULE)
        # over 0010: neighbors sum to 0 1 0 1 cyclically, which normalizes to 01
        assert run(["map", "apply", spec, rule, "--word", "0010", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"image": "01", "period": 2}

    def test_image_emits_loadable_presentation(self, write, tmp_path, capsys):
        spec = write("f.sft", FULL2_SFT)
        rule = write("xor.rule", XOR_RULE)
        out_path = tmp_path / "image.pres"
        assert run(["map", "image", spec, rule, "--out", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        full = load_sft(spec)
        full_pres = tmp_path / "full.pres"
        save_presentation(presentation(full), full_pres)
        assert run(["sofic", "equal", str(out_path), str(full_pres)]) == 0

    # `map image` on a golden-mean rule and on a radius-1 rule over a domain
    # of memory 3, which reads its windows inside blocks of length 4: the
    # files pinned here are the ones the image built from the domain's
    # higher-block graph wrote, edges given as "from to label"
    PINNED_IMAGES = [
        (
            GOLDEN_SFT,
            "radius: 1\nmap: 0 0 0 -> 0\nmap: 0 0 1 -> 1\nmap: 0 1 0 -> 1\n"
            "map: 1 0 0 -> 0\nmap: 1 0 1 -> 0\n",
            "00 01 10",
            ["00 00 0", "00 01 1", "01 10 1", "10 00 0", "10 01 0"],
        ),
        (
            "alphabet: 0 1\nforbidden: 0 1 1 0\n",
            XOR_RULE,
            "0000 0001 0010 0011 0100 0101 0111 1000 1001 1010 1011 1100 1101 1110 1111",
            [
                "0000 0000 0", "0000 0001 0", "0001 0010 1", "0001 0011 1",
                "0010 0100 0", "0010 0101 0", "0011 0111 1", "0100 1000 1",
                "0100 1001 1", "0101 1010 0", "0101 1011 0", "0111 1110 0",
                "0111 1111 0", "1000 0000 0", "1000 0001 0", "1001 0010 1",
                "1001 0011 1", "1010 0100 0", "1010 0101 0", "1011 0111 1",
                "1100 1000 1", "1100 1001 1", "1101 1010 0", "1101 1011 0",
                "1110 1100 1", "1110 1101 1", "1111 1110 0", "1111 1111 0",
            ],
        ),
    ]

    @pytest.mark.parametrize("sft, rule, states, edges", PINNED_IMAGES, ids=["golden", "memory3"])
    def test_image_bytes_pinned(self, write, tmp_path, capsys, sft, rule, states, edges):
        out_path = tmp_path / "image.pres"
        args = ["map", "image", write("d.sft", sft), write("m.rule", rule), "--out", str(out_path)]
        assert run(args) == 0
        doc = {
            "states": states.split(),
            "alphabet": ["0", "1"],
            "edges": [dict(zip(("from", "to", "label"), e.split())) for e in edges],
        }
        assert out_path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
        n = len(doc["states"])
        assert capsys.readouterr().out == f"wrote {out_path} ({n} states, {len(edges)} edges)\n"

    def test_image_json_fields(self, write, tmp_path, capsys):
        spec = write("f.sft", FULL2_SFT)
        rule = write("xor.rule", XOR_RULE)
        out_path = str(tmp_path / "image.pres")
        assert run(["map", "image", spec, rule, "--out", out_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        g = load_presentation(out_path)
        assert doc == {"out": out_path, "states": len(g.states), "edges": len(g.edges)}

    def test_surjective_injective_preinjective(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        rule = write("xor.rule", XOR_RULE)
        assert run(["map", "surjective", spec, rule]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert run(["map", "injective", spec, rule]) == 1
        assert capsys.readouterr().out.strip() == "no"
        assert run(["map", "preinjective", spec, rule]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_goe_witness_and_reverification(self, write, capsys):
        spec_path = write("f.sft", FULL2_SFT)
        rule_path = write("c0.rule", CONST0_RULE)
        assert run(["map", "goe", spec_path, rule_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["answer"] == "yes" and doc["witness"] == "1"
        # the witness is a target word but not an image word
        assert run(["shift", "member", spec_path, doc["witness"]]) == 0
        capsys.readouterr()
        spec = load_sft(spec_path)
        rule = load_rule(rule_path, spec)
        from helpers import dfa_accepts
        from symshift.graphs import determinize_factor_acceptor, essential_form
        from symshift.localmaps import build_image_presentation

        image_dfa = determinize_factor_acceptor(
            essential_form(build_image_presentation(rule).graph)
        )
        assert not dfa_accepts(image_dfa, spec.alphabet.parse_word(doc["witness"]))

    def test_goe_none_when_surjective(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        rule = write("xor.rule", XOR_RULE)
        assert run(["map", "goe", spec, rule]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_surjective_onto_smaller_target_is_error(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        golden = write("g.sft", GOLDEN_SFT)
        rule = write("xor.rule", XOR_RULE)
        assert run(["map", "surjective", spec, rule, "--onto", golden]) == 2
        assert "E_NOT_A_SELFMAP" in capsys.readouterr().err

    def test_surjective_onto_empty_target_is_error(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        empty = write("e.sft", EMPTY_SFT)
        rule = write("xor.rule", XOR_RULE)
        assert run(["map", "surjective", spec, rule, "--onto", empty]) == 2
        assert "E_NOT_A_SELFMAP" in capsys.readouterr().err

    def test_audit(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "audit", spec, "--radius", "0"]) == 0
        out = capsys.readouterr().out
        assert "rules: 4" in out and "violations: 0" in out

    @pytest.mark.parametrize("text", [FULL2_SFT, GOLDEN_SFT])
    def test_audit_checks_garden_of_eden(self, write, capsys, text):
        spec = write("d.sft", text)
        assert run(["map", "audit", spec, "--radius", "1", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        selfmaps = [e for e in entries if e["selfmap"]]
        assert selfmaps and all(e["preinjective"] == e["surjective"] for e in selfmaps)

    def test_audit_exits_3_on_garden_of_eden_violation(self, write, capsys, monkeypatch):
        # every rule now reads as not pre-injective, so the onto ones violate
        monkeypatch.setattr("symshift.localmaps._pair_verdicts", lambda image: (False, False))
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "audit", spec, "--radius", "1"]) == 3
        assert "violation: " in capsys.readouterr().out

    def test_audit_limit_refusal(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "audit", spec, "--radius", "1", "--limit", "100"]) == 2
        err = capsys.readouterr().err
        assert "limit" in err and "error[E_TOO_LARGE]" in err

    def test_audit_refusal_at_radius_7(self, write, capsys):
        # 2^(2^15) rules: the window count stops at the limit's bit length,
        # and the refusal names the limit, not the count
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "audit", spec, "--radius", "7"]) == 2
        err = capsys.readouterr().err
        assert "limit" in err and "more than the limit of 65536 rules of radius 7" in err
        assert "error[E_TOO_LARGE]" in err

    def test_audit_refusal_far_past_the_limit(self, write, capsys):
        # 2^(2^81) rules: the count has far too many bits to compute
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "audit", spec, "--radius", "40"]) == 2
        err = capsys.readouterr().err
        assert "limit" in err and "more than the limit of 65536 rules of radius 40" in err
        assert "error[E_TOO_LARGE]" in err

    def test_audit_refusal_reads_the_limit_exactly(self, write, capsys):
        # 2^8 = 256 rules of radius 1 on the full binary shift: the count of
        # 8 windows stops at 8 = bit length of 255, and 256 > 255 is refused
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "audit", spec, "--radius", "1", "--limit", "255"]) == 2
        err = capsys.readouterr().err
        assert "error[E_TOO_LARGE]: more than the limit of 255 rules of radius 1" in err
        assert run(["map", "audit", spec, "--radius", "1", "--limit", "256"]) == 0

    def test_audit_refuses_a_negative_radius_by_name(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "audit", spec, "--radius", "-1"]) == 2
        err = capsys.readouterr().err
        assert "error[E_BAD_LENGTH]: radius must be non-negative, got -1" in err
        assert "length" not in err

    @pytest.mark.parametrize("radius", [7000, 7200])
    def test_audit_refusal_with_a_long_exponent(self, write, capsys, radius):
        # 2^(2^(2R+1)) rules: from radius 7142 on even the exponent has more
        # than 4300 digits, and neither is computed or printed
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "audit", spec, "--radius", str(radius)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and len(err) < 120
        assert f"error[E_TOO_LARGE]: more than the limit of 65536 rules of radius {radius}" in err


# One yes and one no case of each yes/no command: (group, command) ->
# (question name in --json output, witness label, yes case, no case).  A case
# is (operands, witness or None); an operand named in QUESTION_FILES is that
# file, X.pres is the presentation of X.sft, and any other is a word.
PERIOD2_SFT = "alphabet: 0 1\nforbidden: 0 0\nforbidden: 1 1\n"
IDENTITY_RULE = "radius: 0\nmap: 0 -> 0\nmap: 1 -> 1\n"
QUESTION_FILES = {
    "golden.sft": GOLDEN_SFT, "anti.sft": ANTI_SFT, "full.sft": FULL2_SFT,
    "empty.sft": EMPTY_SFT, "period2.sft": PERIOD2_SFT,
    "xor.rule": XOR_RULE, "c0.rule": CONST0_RULE, "id.rule": IDENTITY_RULE,
}
QUESTION_CASES = {
    ("shift", "empty"): ("empty", None, (["empty.sft"], None), (["golden.sft"], None)),
    ("shift", "irreducible"): ("irreducible", None, (["golden.sft"], None), (["anti.sft"], None)),
    ("shift", "mixing"): ("mixing", None, (["golden.sft"], None), (["period2.sft"], None)),
    ("shift", "dense-periodic"): (
        "dense-periodic", None, (["golden.sft"], None), (["anti.sft"], None),
    ),
    ("shift", "member"): (
        "member", None, (["golden.sft", "0101"], None), (["golden.sft", "0110"], None),
    ),
    ("sofic", "equal"): (
        "sofic-equal", "counterexample",
        (["golden.pres", "golden.pres"], None), (["golden.pres", "full.pres"], "11"),
    ),
    ("map", "surjective"): (
        "surjective", "orphan", (["full.sft", "xor.rule"], None), (["full.sft", "c0.rule"], "1"),
    ),
    ("map", "injective"): (
        "injective", None, (["full.sft", "id.rule"], None), (["full.sft", "xor.rule"], None),
    ),
    ("map", "preinjective"): (
        "preinjective", None, (["full.sft", "xor.rule"], None), (["full.sft", "c0.rule"], None),
    ),
    ("map", "goe"): (
        "goe-pattern-exists", "orphan",
        (["full.sft", "c0.rule"], "1"), (["full.sft", "xor.rule"], None),
    ),
}

# every group and subcommand -> the names its --help lists
HELP_NAMES = {
    "symshift": ["shift", "sofic", "map"],
    "symshift shift": [
        "check", "empty", "irreducible", "mixing", "dense-periodic", "member", "periodic",
    ],
    "symshift sofic": ["equal"],
    "symshift map": [
        "apply", "image", "surjective", "injective", "preinjective", "goe", "audit",
    ],
    "symshift shift check": ["spec_file"],
    "symshift shift empty": ["spec_file"],
    "symshift shift irreducible": ["spec_file"],
    "symshift shift mixing": ["spec_file"],
    "symshift shift dense-periodic": ["spec_file"],
    "symshift shift member": ["spec_file", "word"],
    "symshift shift periodic": ["spec_file", "--max-n", "--list"],
    "symshift sofic equal": ["a", "b"],
    "symshift map apply": ["spec_file", "rule_file", "--word"],
    "symshift map image": ["spec_file", "rule_file", "--out"],
    "symshift map surjective": ["spec_file", "rule_file", "--onto"],
    "symshift map injective": ["spec_file", "rule_file"],
    "symshift map preinjective": ["spec_file", "rule_file"],
    "symshift map goe": ["spec_file", "rule_file", "--onto"],
    "symshift map audit": ["spec_file", "--radius", "--limit"],
}


class TestQuestionTable:
    @pytest.fixture
    def operand(self, write, tmp_path):
        def _operand(name):
            if name.endswith(".pres"):
                path = tmp_path / name
                spec = load_sft(write(name[:-5] + ".sft", QUESTION_FILES[name[:-5] + ".sft"]))
                save_presentation(presentation(spec), path)
                return str(path)
            return write(name, QUESTION_FILES[name]) if name in QUESTION_FILES else name

        return _operand

    def test_every_command_has_cases(self):
        assert set(QUESTION_CASES) == set(QUESTIONS)

    @pytest.mark.parametrize("key", list(QUESTION_CASES), ids=" ".join)
    @pytest.mark.parametrize("answer", ["yes", "no"])
    def test_answer_question_and_witness(self, operand, capsys, key, answer):
        question, label, yes, no = QUESTION_CASES[key]
        operands, witness = yes if answer == "yes" else no
        argv = [*key, *map(operand, operands)]
        assert run(argv + ["--json"]) == (0 if answer == "yes" else 1)
        doc = json.loads(capsys.readouterr().out)
        assert doc["question"] == question and doc["answer"] == answer
        assert doc["witness"] == witness and doc["elapsed_ms"] >= 0
        assert run(argv) == (0 if answer == "yes" else 1)
        lines = [answer] if witness is None else [answer, f"{label}: {witness}"]
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("command", list(HELP_NAMES))
    def test_help_names_the_operands(self, capsys, command):
        # each name heads a line of the help: an operand, an option or, for
        # a group, a subcommand
        assert run(command.split()[1:] + ["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: {command} ")
        for name in HELP_NAMES[command]:
            assert re.search(rf"^ +{name}( |$)", out, re.M), name


class TestErrorHandling:
    def test_malformed_presentation_is_input_error(self, write, capsys):
        path = write("x.pres", '{"states": ["a"], "edges": 7}')
        assert run(["sofic", "equal", path, path]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "x.pres" in err

    def test_missing_file(self, capsys):
        assert run(["shift", "check", "/nonexistent/x.sft"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_names_file_and_line(self, write, capsys):
        path = write("bad.sft", "alphabet: 0 1\nforbidden: 2\n")
        assert run(["shift", "check", path]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "bad.sft" in err

    def test_malformed_rule_names_file_and_line(self, write, capsys):
        spec = write("f.sft", FULL2_SFT)
        rule = write("bad.rule", "radius: 1\nmap: 0 0 -> 0\n")
        assert run(["map", "injective", spec, rule]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "bad.rule" in err

    def test_incomplete_rule_refused_before_listing_windows(self, write, capsys):
        # 2^81 allowed windows: listing them would never finish
        spec = write("f.sft", FULL2_SFT)
        rule = write("wide.rule", "radius: 40\n")
        assert run(["map", "injective", spec, rule]) == 2
        err = capsys.readouterr().err
        assert "E_RULE_INCOMPLETE" in err and "wide.rule" in err

    @pytest.mark.parametrize("command", [["shift", "check"], ["map", "audit", "--radius", "1"]])
    def test_too_many_blocks_refused_at_once(self, write, capsys, command):
        # one forbidden word of length 24 leaves 2^23 blocks of length 23
        path = write("long.sft", "alphabet: 0 1\nforbidden:" + " 0" * 24 + "\n")
        start = time.perf_counter()
        assert run([*command[:2], path, *command[2:]]) == 2
        assert time.perf_counter() - start < 1.0
        assert "E_TOO_LARGE" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_member_search_refused_past_the_block_cap(self, write, capsys, monkeypatch, flags):
        # the search from 0101 enters two contexts of length 1
        monkeypatch.setattr(shifts, "MAX_BLOCKS", 1)
        assert run(["shift", "member", write("g.sft", GOLDEN_SFT), "0101", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error[E_TOO_LARGE]" in captured.err

    @pytest.mark.parametrize("question", ["injective", "preinjective"])
    def test_pair_search_refused_past_its_budget(self, write, capsys, monkeypatch, question):
        # the radius-1 xor rule's image has 4 states, and its search enters
        # 3 pairs
        monkeypatch.setattr("symshift.localmaps._MAX_PAIRS_ENTERED", 2)
        spec, rule = write("f.sft", FULL2_SFT), write("x.rule", XOR_RULE)
        assert run(["map", question, spec, rule]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error[E_TOO_LARGE]" in captured.err
        assert "4 image states" in captured.err
        # the identity's image shrinks to one state, with no pair to enter
        monkeypatch.setattr("symshift.localmaps._MAX_PAIRS_ENTERED", 0)
        windows = [f"{a} {b} {c}" for a in "01" for b in "01" for c in "01"]
        identity = "radius: 1\n" + "".join(f"map: {w} -> {w[2]}\n" for w in windows)
        assert run(["map", question, spec, write("id.rule", identity)]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_divergence_search_refused_past_its_budget(self, write, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("symshift.graphs._MAX_MASK_PAIRS", 1000)
        table = blowup_rule(7).table
        text = "radius: 4\n" + "".join(
            f"map: {' '.join(map(str, win))} -> {out}\n" for win, out in table.items()
        )
        spec = write("f.sft", FULL2_SFT)
        assert run(["map", "surjective", spec, write("r4.rule", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error[E_TOO_LARGE]" in captured.err
        assert "more than 1000 masks" in captured.err
        de_bruijn, full = tmp_path / "d.pres", tmp_path / "f.pres"
        g = seeded_de_bruijn(random.Random(47).getrandbits(64))
        save_presentation(LabeledGraph(tuple(map(str, g.states)), g.edges, g.alphabet), de_bruijn)
        save_presentation(presentation(load_sft(spec)), full)
        # at budget 0 the first meeting of two nonempty levels is refused
        monkeypatch.setattr("symshift.graphs._MAX_MASK_PAIRS", 0)
        assert run(["sofic", "equal", str(full), str(de_bruijn)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error[E_TOO_LARGE]" in captured.err

    def test_unknown_subcommand(self, capsys):
        assert run(["shift", "frobnicate"]) == 2

    def test_bad_word_symbol(self, write, capsys):
        path = write("g.sft", GOLDEN_SFT)
        assert run(["shift", "member", path, "02"]) == 2

    def test_verdict_json_fields(self, write, capsys):
        path = write("g.sft", GOLDEN_SFT)
        run(["shift", "dense-periodic", path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["question"] == "dense-periodic"
        assert doc["answer"] == "yes"
        assert doc["witness"] is None
        assert doc["elapsed_ms"] >= 0

    def test_empty_shift_precondition_is_input_error(self, write, capsys):
        path = write("e.sft", EMPTY_SFT)
        assert run(["shift", "irreducible", path]) == 2
        assert "E_EMPTY_SHIFT" in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, write, capsys, monkeypatch):
        def broken(spec):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(shifts, "is_empty", broken)
        assert run(["shift", "empty", write("g.sft", GOLDEN_SFT)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:") and "invariant broken" in captured.err

    def test_comma_in_symbol_is_input_error(self, write, capsys):
        # with b,c and a,b as symbols the word text a,b,c names two words
        spec = write("c.sft", "alphabet: a b,c a,b c\n")
        assert run(["shift", "member", spec, "a,b,c"]) == 2
        err = capsys.readouterr().err
        assert "c.sft" in err and "line 1" in err and "comma" in err
        pres = write("c.pres", '{"states": ["q"], "alphabet": ["a", "b,c"]}')
        assert run(["sofic", "equal", pres, pres]) == 2
        err = capsys.readouterr().err
        assert "c.pres" in err and "comma" in err


class TestStartup:
    def test_import_loads_no_dataclasses_or_fractions(self):
        # every command pays for what importing the CLI loads; the bench
        # tracer looks the four library modules up in sys.modules
        code = (
            "import sys; before = set(sys.modules); import symshift.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(symshift.__file__).parents[1]))
        loaded = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(loaded)
        library = {"symshift.core", "symshift.graphs", "symshift.shifts", "symshift.localmaps"}
        assert library <= set(loaded)
        # stdlib only: every module loaded is the library's own or the
        # standard library's
        third_party = [
            m for m in loaded
            if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "symshift"
        ]
        assert not third_party
