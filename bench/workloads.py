"""The four seeded workloads: input generation, items and oracle checks.

A workload is a list of units that the timed loop runs in whole passes
until its time is up.  Running a unit returns one record per item:
(key, seconds of each stage, verdict); a unit is one item, except in
`audit`, where it is one rule family.  An item's stages are the library
calls timed one by one; `audit` and `cli` items are one stage each.
``oracle`` compares one verdict with the oracles in ``oracles.py``, which
share no code with symshift.  Inputs depend only
on the seed; symshift sees only the generated specs, tables and files.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from itertools import product, zip_longest
from math import isqrt
from pathlib import Path

from symshift import (
    LocalRule,
    is_injective,
    is_irreducible,
    is_mixing,
    is_preinjective,
    is_surjective,
    language_member,
    parse_sft,
    periodic_census,
    periodic_density,
    presentation,
    sofic_equal,
    surjunctivity_audit,
)

import oracles
from common import BENCH_DIR, ENTRY, ROOT
from oracles import ShiftOracle, balanced, by_length, has_factor, has_preimage

TRACE_ENTRY = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import tracer; tracer.child_main()"


SYMBOLS = "0123456789abcdefghij"  # one character each, so words print bare


def spec_text(k: int, forbidden) -> str:
    lines = ["alphabet: " + " ".join(SYMBOLS[:k])]
    lines += ["forbidden: " + " ".join(SYMBOLS[a] for a in f) for f in sorted(forbidden)]
    return "\n".join(lines) + "\n"


def word_text(w) -> str:
    return "".join(SYMBOLS[a] for a in w)


def text_word(text: str) -> tuple:
    return tuple(SYMBOLS.index(c) for c in text)


def bits_word(bits: int, n: int) -> tuple:
    return tuple((bits >> i) & 1 for i in range(n))


def windows(k: int, width: int, forbidden=()) -> list:
    table = by_length(forbidden)
    return [w for w in product(range(k), repeat=width) if not has_factor(w, table)]


def table_from_bits(wins, bits: int) -> dict:
    return {w: (bits >> i) & 1 for i, w in enumerate(wins)}


def walk(oracle: ShiftOracle, rng: random.Random, length: int) -> tuple:
    """A seeded word of the shift's language: a random path in its
    essential de Bruijn graph."""
    word = sorted(oracle.states)[rng.randrange(len(oracle.states))]
    while len(word) < length:
        nxt = sorted(oracle.succ[word[-oracle.m :]])
        word += nxt[rng.randrange(len(nxt))][-1:]
    return word


_REF_MATRIX = [[random.Random(f"ref-{i}").randrange(3) for _ in range(22)] for i in range(22)]
_REF_FORBIDDEN = ((0, 1), (2, 2), (3, 4, 1), (5, 0, 2), (1, 1, 3))


class Workload:
    name = ""
    # timed passes per second of run length; fixes how often each item is
    # timed independently of the program's speed (see NOTES.md)
    passes_per_s = 0.0
    # best time of reference() on the development VM at its fastest,
    # rounded; item times are reported as if the host ran it this fast
    reference_s = 0.002

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}-{seed}")
        self.units: list = []

    def run_unit(self, unit) -> list:
        raise NotImplementedError

    def reference(self) -> float:
        """Seconds taken by fixed pure-Python work that shares no code with
        symshift: two products of 22x22 integer matrices (the census's kind
        of arithmetic) and an enumerated de Bruijn graph of a 6-letter SFT
        (the kind of dict and set building the graph code does)."""
        m = _REF_MATRIX
        start = time.perf_counter()
        power = m
        for _ in range(2):
            power = [[sum(power[i][k] * m[k][j] for k in range(22)) for j in range(22)] for i in range(22)]
        ShiftOracle(6, _REF_FORBIDDEN)
        return time.perf_counter() - start

    def unit_keys(self, unit) -> list:
        return [unit]

    def oracle(self, key, verdict, verdicts) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _map_checks(table, radius, k, surjective, orphan, injective, preinjective, balance_n):
    """Garden of Eden, injective => surjective, orphan re-verification and
    Hedlund balance for a full-shift rule."""
    if surjective != preinjective:
        return f"Garden of Eden: surjective={surjective} preinjective={preinjective}"
    if injective and not surjective:
        return "injective but not surjective"
    if orphan is not None and has_preimage(table, radius, k, orphan):
        return f"orphan {word_text(orphan)} has a preimage"
    if surjective and not all(balanced(table, radius, k, n) for n in range(1, balance_n + 1)):
        return "reported surjective but unbalanced (Hedlund)"
    return None


class Audit(Workload):
    """Whole radius-1 families on the binary full shift (256 rules) and the
    golden mean shift (32), plus a seeded sample of ternary radius-1 rules.
    One item is one row of surjunctivity_audit(..., check_preinjective=True);
    rules are constructed inside the timed region, as `map audit` does."""

    name = "audit"
    passes_per_s = 2.5
    TERNARY_SAMPLE = 64
    DOMAINS = (
        ("full2", 2, ()),
        ("golden", 2, ((1, 1),)),
        ("full3", 3, ()),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.families = {}
        for fam, k, forbidden in self.DOMAINS:
            spec = parse_sft(spec_text(k, forbidden))
            wins = windows(k, 3, forbidden)
            if k == 2:
                outputs = list(product(range(2), repeat=len(wins)))
            else:
                outputs = [
                    tuple(self.rng.randrange(k) for _ in wins) for _ in range(self.TERNARY_SAMPLE)
                ]
            tables = [dict(zip(wins, out)) for out in outputs]
            self.families[fam] = (spec, k, forbidden, tables)
            self.units.append(fam)

    def unit_keys(self, fam) -> list:
        return [(fam, i) for i in range(len(self.families[fam][3]))]

    def run_unit(self, fam) -> list:
        spec, _, _, tables = self.families[fam]
        marks = []

        def rules():
            for i, table in enumerate(tables):
                marks.append(time.perf_counter())
                yield LocalRule(spec, 1, table, f"rule{i}")

        start = time.perf_counter()
        report = surjunctivity_audit(rules(), spec, check_preinjective=True)
        marks.append(time.perf_counter())
        marks[0] = start  # the first row also pays the audit's domain set-up
        return [
            ((fam, i), (marks[i + 1] - marks[i],), (e.selfmap, e.injective, e.surjective, e.preinjective))
            for i, e in enumerate(report.entries)
        ]

    def oracle(self, key, verdict, verdicts):
        fam, i = key
        _, k, forbidden, tables = self.families[fam]
        table = tables[i]
        selfmap, injective, surjective, preinjective = verdict
        if selfmap != oracles.is_selfmap(table, 1, k, forbidden):
            return f"selfmap={selfmap} disagrees with the image enumeration"
        if not selfmap:
            return None
        balance_n = 0 if forbidden else (4 if k == 2 else 3)
        return _map_checks(table, 1, k, surjective, None, injective, preinjective, balance_n)


class Pairs(Workload):
    """Larger graphs on the binary full shift: three structured rules
    embedded at radius 3 (64-state image, 4,096 pair states) interleaved
    with two random radius-3 rules from r3_pool.json, each reading six
    window cells (2,000-2,999 subset states built by the surjectivity
    check): one drawn by the seed and the pool's slowest, TAIL_RULE.  One
    item is one rule through is_surjective, is_injective and
    is_preinjective, each call a stage; rule tables are built during
    set-up."""

    name = "pairs"
    passes_per_s = 5.0
    RADIUS = 3
    # the slowest rule of the pool in every measurement, 5-20% above the
    # others; as a fixed item it is the tail item for every seed, where a
    # drawn one made the tail move 15% with the draw
    TAIL_RULE = "4b5ff9e5e6fc1c13"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        full = parse_sft(spec_text(2, ()))
        wins = windows(2, 2 * self.RADIUS + 1)
        mid = self.RADIUS

        def embedded(fn):
            return {w: fn(w) for w in wins}

        def index(bits):
            return int("".join(map(str, bits)), 2)

        d = rng.choice([-1, 1])  # larger offsets cost more, which would move the median by seed
        structured = [
            (f"shift{d:+d}", embedded(lambda w: w[mid + d]), (True, None, True, True)),
            ("identity", embedded(lambda w: w[mid]), (True, None, True, True)),
            # xor of the window's two end cells: surjective, not injective.
            # Identity and xor are fixed, so the median item, the slowest of
            # the three structured rules, is the same for every seed
            ("xor06", embedded(lambda w: w[0] ^ w[2 * self.RADIUS]), (True, None, False, True)),
        ]

        pool = json.loads((BENCH_DIR / "r3_pool.json").read_text())["rules"]
        drawn = rng.choice([rule for _, rule in pool if rule != self.TAIL_RULE])
        random3 = []
        for rule in (drawn, self.TAIL_RULE):
            bits = int(rule, 16)
            # bit i of the table is the output on windows whose first six
            # cells spell i in binary; the seventh cell is ignored
            random3.append((f"r3-{rule[:8]}", embedded(lambda w: (bits >> index(w[:6])) & 1), None))
        self.items = {}
        for pair in zip_longest(structured, random3):
            for key, table, expected in filter(None, pair):
                rule = LocalRule(full, self.RADIUS, table, key)
                self.items[key] = (rule, table, self.RADIUS, expected)
                self.units.append(key)

    def run_unit(self, key) -> list:
        rule = self.items[key][0]
        t0 = time.perf_counter()
        surjective, orphan = is_surjective(rule)
        t1 = time.perf_counter()
        injective = is_injective(rule)
        t2 = time.perf_counter()
        preinjective = is_preinjective(rule)
        t3 = time.perf_counter()
        orphan = None if orphan is None else tuple(orphan.indices)
        return [(key, (t1 - t0, t2 - t1, t3 - t2), (surjective, orphan, injective, preinjective))]

    def oracle(self, key, verdict, verdicts):
        _, table, radius, expected = self.items[key]
        if expected is not None and verdict != expected:
            return f"expected {expected}"
        surjective, orphan, injective, preinjective = verdict
        if surjective == (orphan is not None):
            return "orphan present exactly when surjective"
        return _map_checks(table, radius, 2, surjective, orphan, injective, preinjective, 3)


class Shift(Workload):
    """Seeded SFTs of memory 2 over alphabets of 6-7 letters whose
    essential presentations have 30, 36 and 42 states.  One item
    runs four stages: periodic_census to MAX_N; sofic_equal against the
    order+1 presentation; sofic_equal against the spec with one more
    forbidden word; four membership queries, irreducible, mixing and
    dense-periodic."""

    name = "shift"
    passes_per_s = 5.5
    MAX_N = 6
    ORACLE_N = 4
    SIZES = (30, 36, 42)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.items = {}
        for target in self.SIZES:
            k, forbidden = self._sft(target)
            oracle = ShiftOracle(k, forbidden)
            states = sorted(oracle.states)
            plus = forbidden | {states[rng.randrange(len(states))]}
            spec = parse_sft(spec_text(k, forbidden))
            spec_plus = parse_sft(spec_text(k, plus))
            words = [walk(oracle, rng, 12) for _ in range(2)]
            words += [tuple(rng.randrange(k) for _ in range(12)) for _ in range(2)]
            parsed = [spec.alphabet.parse_word(word_text(w)) for w in words]
            key = f"sft{target}"
            self.items[key] = (spec, spec_plus, parsed, k, forbidden, plus, oracle, words)
            self.units.append(key)

    def _sft(self, target: int):
        """Alphabet of k = ceil(sqrt(target)) letters, three random forbidden
        3-words (memory 2) and k*k - target random forbidden 2-words, which
        leaves about ``target`` essential 2-blocks: with 6 or more letters
        every block keeps successors, so trimming removes almost nothing
        (seeds 1-40 land on every target exactly)."""
        rng = self.rng
        k = isqrt(target - 1) + 1
        forbidden = set()
        while len(forbidden) < 3:
            forbidden.add(tuple(rng.randrange(k) for _ in range(3)))
        blocks = list(product(range(k), repeat=2))
        rng.shuffle(blocks)
        return k, forbidden | set(blocks[: k * k - target])

    def run_unit(self, key) -> list:
        spec, spec_plus, words, *_ = self.items[key]
        t0 = time.perf_counter()
        census = periodic_census(spec, self.MAX_N)
        t1 = time.perf_counter()
        base = presentation(spec)
        same = sofic_equal(base, presentation(spec, spec.memory + 1))
        t2 = time.perf_counter()
        less = sofic_equal(base, presentation(spec_plus))
        t3 = time.perf_counter()
        members = tuple(language_member(spec, w) for w in words)
        answers = (is_irreducible(spec), is_mixing(spec), periodic_density(spec))
        t4 = time.perf_counter()
        witness = None if less[1] is None else tuple(less[1].indices)
        verdict = (census.p, same[0], same[1] is None, less[0], witness, members, answers)
        return [(key, (t1 - t0, t2 - t1, t3 - t2, t4 - t3), verdict)]

    def oracle(self, key, verdict, verdicts):
        _, _, _, k, forbidden, plus, oracle, words = self.items[key]
        p, same, same_no_witness, less, witness, members, answers = verdict
        brute = tuple(oracles.periodic_count(k, forbidden, n) for n in range(1, self.ORACLE_N + 1))
        if p[: self.ORACLE_N] != brute:
            return f"p_n {p[:self.ORACLE_N]} != brute force {brute}"
        if not (same and same_no_witness):
            return "presentation at order+1 reported unequal"
        if less or witness is None:
            return "adding a language word to the forbidden set left the shift equal"
        if oracle.member(witness) == ShiftOracle(k, plus).member(witness):
            return f"witness {word_text(witness)} lies in both or neither shift"
        if members != tuple(oracle.member(w) for w in words):
            return f"membership {members} disagrees"
        expected = (oracle.irreducible(), oracle.mixing(), oracle.dense_periodic())
        if answers != expected:
            return f"irreducible/mixing/dense {answers} != {expected}"
        return None


class Cli(Workload):
    """Sequential subprocess invocations of the `symshift` entry point with
    --json over a fixed mix of shift, sofic and map commands on seeded input
    files, including `map audit --radius 1` and a documented refusal
    (`map audit --radius 2 --limit 1000`, exit 2)."""

    name = "cli"
    passes_per_s = 0.4
    # a CLI call is mostly interpreter start and imports, which the host's
    # spells of memory and process-creation load slow more than they slow
    # computation, so the reference here is one bare interpreter start
    reference_s = 0.040

    def __init__(self, seed: int, work_dir: Path, trace: bool = False):
        super().__init__(seed)
        rng = self.rng
        self.dir = work_dir
        self.dir.mkdir(parents=True)
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.calls_ms: list[tuple] = []  # (process wall time, the CLI's elapsed_ms or None)
        self.runs = 0

        while True:
            forbidden = {bits_word(rng.getrandbits(n), n) for n in (2, 3, 4)}
            self.rand = ShiftOracle(2, forbidden)
            if self.rand.states:
                break
        self.rand_forbidden = forbidden
        self.golden = ShiftOracle(2, ((1, 1),))
        self.tables = {
            "xor": (1, {w: w[0] ^ w[2] for w in windows(2, 3)}),
            "rand1": (1, table_from_bits(windows(2, 3), rng.getrandbits(8))),
            "rand2": (2, table_from_bits(windows(2, 5), rng.getrandbits(32))),
        }
        self.word_in = walk(self.rand, rng, 12)
        self.word_rand = bits_word(rng.getrandbits(12), 12)
        self.apply_word = bits_word(rng.getrandbits(12), 12)

        f = self._write
        rand = f("rand.sft", spec_text(2, forbidden))
        full2 = f("full2.sft", spec_text(2, ()))
        golden = f("golden.sft", spec_text(2, ((1, 1),)))
        rules = {
            name: f(f"{name}.rule", self._rule_text(r, t)) for name, (r, t) in self.tables.items()
        }
        pres_a = f("golden-a.pres", self._golden_two_state())
        pres_b = f("golden-b.pres", self._golden_three_state())
        pres_full = f("full2.pres", json.dumps(
            {"states": ["s"], "alphabet": ["0", "1"],
             "edges": [{"from": "s", "to": "s", "label": "0"}, {"from": "s", "to": "s", "label": "1"}]}
        ))
        commands = [
            ("check", ["shift", "check", rand]),
            ("empty", ["shift", "empty", rand]),
            ("member-in", ["shift", "member", rand, word_text(self.word_in)]),
            ("member-rand", ["shift", "member", rand, word_text(self.word_rand)]),
            ("irreducible", ["shift", "irreducible", rand]),
            ("mixing", ["shift", "mixing", rand]),
            ("dense", ["shift", "dense-periodic", rand]),
            ("periodic", ["shift", "periodic", rand, "--max-n", "10"]),
            ("sofic-equal", ["sofic", "equal", pres_a, pres_b]),
            ("sofic-unequal", ["sofic", "equal", pres_a, pres_full]),
            ("apply", ["map", "apply", full2, rules["rand1"], "--word", word_text(self.apply_word)]),
            ("image", ["map", "image", full2, rules["rand2"], "--out", "image.pres"]),
            ("surjective-rand1", ["map", "surjective", full2, rules["rand1"]]),
            ("surjective-xor", ["map", "surjective", full2, rules["xor"]]),
            ("injective-rand2", ["map", "injective", full2, rules["rand2"]]),
            ("preinjective-rand2", ["map", "preinjective", full2, rules["rand2"]]),
            ("goe-rand2", ["map", "goe", full2, rules["rand2"]]),
            ("audit-golden", ["map", "audit", golden, "--radius", "1"]),
            ("audit-full2", ["map", "audit", full2, "--radius", "1"]),
            ("refuse-radius2", ["map", "audit", full2, "--radius", "2", "--limit", "1000"]),
        ]
        self.commands = {key: argv + ["--json"] for key, argv in commands}
        self.units = list(self.commands)

    def _write(self, name: str, text: str) -> str:
        """Write an input file; commands run in the work directory and name
        files relative to it, so verdicts do not depend on where it is."""
        (self.dir / name).write_text(text)
        return name

    @staticmethod
    def _rule_text(radius: int, table: dict) -> str:
        lines = [f"radius: {radius}"]
        lines += [f"map: {' '.join(map(str, w))} -> {out}" for w, out in sorted(table.items())]
        return "\n".join(lines) + "\n"

    def _golden_two_state(self) -> str:
        a, b = self.rng.sample(["p", "q", "r", "s"], 2)
        edges = [(a, a, "0"), (a, b, "1"), (b, a, "0")]
        self.rng.shuffle(edges)
        return json.dumps({"states": [a, b], "alphabet": ["0", "1"],
                           "edges": [{"from": x, "to": y, "label": lab} for x, y, lab in edges]})

    def _golden_three_state(self) -> str:
        # second higher-block presentation: states are the 2-blocks 00, 01, 10
        edges = [("00", "00", "0"), ("00", "01", "0"), ("01", "10", "0"),
                 ("10", "00", "1"), ("10", "01", "1")]
        self.rng.shuffle(edges)
        return json.dumps({"states": ["00", "01", "10"], "alphabet": ["0", "1"],
                           "edges": [{"from": x, "to": y, "label": lab} for x, y, lab in edges]})

    def invoke(self, argv: list, entry: str = ENTRY, env=None):
        """Run one CLI process; returns (seconds, exit code, stdout)."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", entry, *argv],
            capture_output=True, text=True, env=env or self.env, cwd=self.dir, timeout=120,
        )
        return time.perf_counter() - start, proc.returncode, proc.stdout

    def reference(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.dir, check=True)
        return time.perf_counter() - start

    def run_unit(self, key) -> list:
        if self.trace:
            self.runs += 1
            env = dict(self.env, BENCH_TRACE_OUT=str(self.dir / f"trace-{self.runs}.json"))
            elapsed, code, out = self.invoke(self.commands[key], TRACE_ENTRY, env)
        else:
            elapsed, code, out = self.invoke(self.commands[key])
        doc = json.loads(out) if out.strip() else None
        decision = doc.pop("elapsed_ms", None) if isinstance(doc, dict) else None
        self.calls_ms.append((elapsed * 1000.0, decision))
        return [(key, (elapsed,), (code, json.dumps(doc, sort_keys=True)))]

    def trace_dumps(self) -> list:
        return [json.loads((self.dir / f"trace-{n}.json").read_text()) for n in range(1, self.runs + 1)]

    def oracle(self, key, verdict, verdicts):
        code, text = verdict
        doc = json.loads(text)
        if key == "refuse-radius2":
            return None if code == 2 and doc is None else f"refusal exit {code}, README says 2"
        if code not in (0, 1) or doc is None:
            return f"exit {code} with output {text[:80]}"
        if "answer" in doc and code != (0 if doc["answer"] == "yes" else 1):
            return f"answer {doc['answer']} with exit {code}"
        yes = doc.get("answer") == "yes"
        witness = doc.get("witness")
        if witness is not None:
            witness = text_word(witness)
        rand = self.rand
        if key == "check":
            ok = code == 0 and doc["empty"] == (not rand.states) and doc["memory"] == rand.m
            return None if ok else "check disagrees with the spec"
        expected = {
            "empty": not rand.states,
            "member-in": rand.member(self.word_in),
            "member-rand": rand.member(self.word_rand),
            "irreducible": rand.irreducible(),
            "mixing": rand.mixing(),
            "dense": rand.dense_periodic(),
            "sofic-equal": True,
            "sofic-unequal": False,
            "surjective-xor": True,
        }
        if key in expected and yes != expected[key]:
            return f"answer {doc['answer']}, oracle says {expected[key]}"
        if key == "sofic-unequal":
            if witness is None or self.golden.member(witness):
                return "counterexample is in both shifts"
        if key == "periodic":
            brute = [oracles.periodic_count(2, self.rand_forbidden, n) for n in range(1, 11)]
            return None if [row["p"] for row in doc["census"]] == brute else "census != brute force"
        if key == "apply":
            radius, table = self.tables["rand1"]
            image = oracles.apply_periodic(table, radius, self.apply_word)
            ok = doc["image"] == word_text(image) and doc["period"] == len(image)
            return None if ok else "image disagrees with direct application"
        if key == "image":
            return None if (doc["states"], doc["edges"]) == (16, 32) else "image is not the 16-state de Bruijn graph"
        if key.startswith(("surjective-", "goe-")):
            radius, table = self.tables[key.split("-")[1]]
            surjective = yes if key.startswith("surjective-") else not yes
            if not surjective and (witness is None or has_preimage(table, radius, 2, witness)):
                return "orphan missing or has a preimage"
            if surjective and not all(balanced(table, radius, 2, n) for n in range(1, 5)):
                return "reported surjective but unbalanced (Hedlund)"
        if key in ("injective-rand2", "preinjective-rand2"):
            goe = verdicts.get("goe-rand2")
            surjective = goe is not None and json.loads(goe[1])["answer"] == "no"
            if key == "injective-rand2" and yes and not surjective:
                return "injective but not surjective"
            if key == "preinjective-rand2" and yes != surjective:
                return "Garden of Eden: preinjective differs from surjective"
        if key.startswith("audit-"):
            k, forbidden = (2, ((1, 1),)) if key == "audit-golden" else (2, ())
            wins = windows(k, 3, forbidden)
            tables = [dict(zip(wins, out)) for out in product(range(k), repeat=len(wins))]
            if doc["rules"] != len(tables) or doc["violations"]:
                return "audit row count or violations wrong"
            for entry, table in zip(doc["entries"], tables):
                if entry["selfmap"] != oracles.is_selfmap(table, 1, k, forbidden):
                    return f"{entry['name']}: selfmap disagrees"
                if entry["injective"] and not entry["surjective"]:
                    return f"{entry['name']}: injective but not surjective"
                if not forbidden and entry["surjective"] and not balanced(table, 1, k, 4):
                    return f"{entry['name']}: surjective but unbalanced"
        return None

    def close(self) -> None:
        for path in sorted(self.dir.iterdir()):
            path.unlink()
        self.dir.rmdir()


WORKLOADS = {w.name: w for w in (Audit, Pairs, Shift, Cli)}
