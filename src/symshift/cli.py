"""Command-line front end.

Exit codes: 0 affirmative verdict or success, 1 negative verdict, 2 usage or
input error, 3 internal invariant violation.  Every subcommand accepts
--json for a structured rendering of the same fields as the text output.
The yes/no commands are the rows of ``QUESTIONS``, all answered by
``cmd_question``; the other commands have handlers of their own.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import localmaps, shifts
from .core import SftSpec, Word, load_sft, normalize_periodic
from .errors import FormatError, SymshiftError, TooLargeError
from .graphs import load_presentation, save_presentation
from .localmaps import LocalRule, load_rule

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

LIST_CAP = 10000


def _load_spec(args) -> tuple[SftSpec]:
    return (load_sft(args.spec_file),)


def _load_word(args) -> tuple[SftSpec, Word]:
    spec = load_sft(args.spec_file)
    return spec, spec.alphabet.parse_word(args.word)


def _load_rule(args) -> tuple[LocalRule, SftSpec]:
    """The rule and its target: the --onto spec if one is given, else the domain."""
    spec = load_sft(args.spec_file)
    onto = getattr(args, "onto", None)
    return load_rule(args.rule_file, spec), load_sft(onto) if onto else spec


def _goe(rule: LocalRule, target: SftSpec):
    orphan = localmaps.find_goe_pattern(rule, target)
    return orphan is not None, orphan


_SPEC = ("spec_file",)
_RULE = ("spec_file", "rule_file")
_ONTO = _RULE + ("--onto",)
_ONTO_HELP = "target spec (default: the domain spec)"

# The yes/no commands: (group, command) -> (question, operands, load, decide,
# witness label, help).  ``load`` reads the operands, "--onto" an optional
# one, into the arguments of ``decide``, which returns (answer, witness Word
# or None); ``question`` names the answer in --json output.  The decisions
# look the library function up on its module at call time, so wrappers
# installed there later (tracers) see the call.
QUESTIONS = {
    ("shift", "empty"): (
        "empty", _SPEC, _load_spec, lambda spec: (shifts.is_empty(spec), None),
        "witness", "tiling problem: is the shift empty",
    ),
    ("shift", "irreducible"): (
        "irreducible", _SPEC, _load_spec, lambda spec: (shifts.is_irreducible(spec), None),
        "witness", None,
    ),
    ("shift", "mixing"): (
        "mixing", _SPEC, _load_spec, lambda spec: (shifts.is_mixing(spec), None),
        "witness", None,
    ),
    ("shift", "dense-periodic"): (
        "dense-periodic", _SPEC, _load_spec, lambda spec: (shifts.periodic_density(spec), None),
        "witness", "are periodic configurations dense",
    ),
    ("shift", "member"): (
        "member", _SPEC + ("word",), _load_word,
        lambda spec, word: (shifts.language_member(spec, word), None),
        "witness", "extension problem: word in the language",
    ),
    ("sofic", "equal"): (
        "sofic-equal", ("a", "b"), lambda a: (load_presentation(a.a), load_presentation(a.b)),
        lambda g1, g2: shifts.sofic_equal(g1, g2),
        "counterexample", "do two presentations accept the same shift",
    ),
    ("map", "surjective"): (
        "surjective", _ONTO, _load_rule, lambda rule, target: localmaps.is_surjective(rule, target),
        "orphan", "is the map onto the target",
    ),
    ("map", "injective"): (
        "injective", _RULE, _load_rule, lambda rule, _: (localmaps.is_injective(rule), None),
        "witness", None,
    ),
    ("map", "preinjective"): (
        "preinjective", _RULE, _load_rule, lambda rule, _: (localmaps.is_preinjective(rule), None),
        "witness", None,
    ),
    ("map", "goe"): (
        "goe-pattern-exists", _ONTO, _load_rule, _goe,
        "orphan", "find a shortest orphan pattern",
    ),
}


def cmd_question(args) -> int:
    """Answer a command of ``QUESTIONS``: load its operands, time the
    decision alone, print the answer as text or as one JSON line, and
    return its exit code."""
    question, _, load, decide, label, _ = QUESTIONS[args.group, args.command]
    operands = load(args)
    start = time.perf_counter()
    answer, witness = decide(*operands)
    elapsed = (time.perf_counter() - start) * 1000.0
    witness = None if witness is None else witness.text()
    verdict = "yes" if answer else "no"
    if args.json:
        doc = {"question": question, "answer": verdict, "witness": witness}
        doc["elapsed_ms"] = round(elapsed, 3)
        print(json.dumps(doc))
    else:
        print(verdict)
        if witness is not None:
            print(f"{label}: {witness}")
    return EXIT_YES if answer else EXIT_NO


def _add_questions(sub, group: str, flags: argparse.ArgumentParser) -> None:
    """Add the group's commands of ``QUESTIONS`` in table order."""
    for (g, command), (_, operands, _, _, _, help_text) in QUESTIONS.items():
        if g == group:
            p = sub.add_parser(command, parents=[flags], help=help_text)
            for name in operands:
                p.add_argument(name, help=_ONTO_HELP if name == "--onto" else None)
            p.set_defaults(func=cmd_question)


def cmd_shift_check(args) -> int:
    spec = load_sft(args.spec_file)
    empty = shifts.is_empty(spec)
    if args.json:
        print(
            json.dumps(
                {
                    "alphabet": list(spec.alphabet.symbols),
                    "memory": spec.memory,
                    "forbidden": sorted(f.text() for f in spec.forbidden),
                    "empty": empty,
                }
            )
        )
    else:
        print(f"alphabet: {' '.join(spec.alphabet.symbols)}")
        print(f"memory: {spec.memory}")
        print(f"forbidden: {' '.join(sorted(f.text() for f in spec.forbidden)) or '-'}")
        print(f"empty: {'yes' if empty else 'no'}")
    return EXIT_YES


def cmd_shift_periodic(args) -> int:
    spec = load_sft(args.spec_file)
    # p_n <= k**n has at most n*log10(k) + 1 digits, and Python refuses to
    # print an integer longer than its digit limit (0 or absent: no limit)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and args.max_n * math.log10(spec.alphabet.size) >= digits:
        raise TooLargeError(
            f"p_n up to n = {args.max_n} may pass {digits} digits, "
            "the limit for printing an integer"
        )
    census = shifts.periodic_census(spec, args.max_n)
    if args.list:
        for n, count in enumerate(census.p, 1):
            if count > LIST_CAP:
                raise TooLargeError(f"p_{n} = {count} exceeds the listing cap {LIST_CAP}")
    rows = []
    for n in range(1, args.max_n + 1):
        row = {"n": n, "p": census.p[n - 1], "q": census.q[n - 1]}
        if args.list:
            row["configs"] = [
                c.primitive.text() for c in shifts.enumerate_periodic(spec, n)
            ]
        rows.append(row)
    if args.json:
        # streamed: the whole document as one string would hold every
        # decimal digit at once
        json.dump({"max_n": args.max_n, "census": rows}, sys.stdout)
        print()
    else:
        print("n p_n q_n")
        for row in rows:
            print(f"{row['n']} {row['p']} {row['q']}")
            if args.list:
                print(f"  configs: {' '.join(row['configs']) or '-'}")
    return EXIT_YES


def cmd_map_apply(args) -> int:
    rule, spec = _load_rule(args)
    word = spec.alphabet.parse_word(args.word)
    config = normalize_periodic(word)
    image = localmaps.apply_to_periodic(rule, config)
    if args.json:
        print(json.dumps({"image": image.primitive.text(), "period": image.least_period}))
    else:
        print(f"image: {image.primitive.text()}")
        print(f"period: {image.least_period}")
    return EXIT_YES


def cmd_map_image(args) -> int:
    graph = localmaps.build_image_presentation(_load_rule(args)[0]).graph
    save_presentation(graph, args.out)
    if args.json:
        print(json.dumps({"out": args.out, "states": len(graph.states), "edges": len(graph.edges)}))
    else:
        print(f"wrote {args.out} ({len(graph.states)} states, {len(graph.edges)} edges)")
    return EXIT_YES


def cmd_map_audit(args) -> int:
    spec = load_sft(args.spec_file)
    size = spec.alphabet.size
    windows = localmaps.window_count(spec, args.radius, args.limit.bit_length())
    # a count clamped at the limit's bit length b is refused as the exact
    # count would be: size**b >= 2**b > limit
    if size**windows > args.limit:
        raise TooLargeError(f"more than the limit of {args.limit} rules of radius {args.radius}")
    start = time.perf_counter()
    report = localmaps.surjunctivity_audit(
        localmaps.enumerate_rules(spec, args.radius), spec, check_preinjective=True
    )
    elapsed = (time.perf_counter() - start) * 1000.0
    selfmaps = [e for e in report.entries if e.selfmap]
    summary = {
        "rules": len(report.entries),
        "selfmaps": len(selfmaps),
        "injective": sum(1 for e in selfmaps if e.injective),
        "surjective": sum(1 for e in selfmaps if e.surjective),
        "violations": [e.name for e in report.violations],
        "elapsed_ms": round(elapsed, 3),
    }
    if args.json:
        summary["entries"] = [
            {
                "name": e.name,
                "selfmap": e.selfmap,
                "injective": e.injective,
                "surjective": e.surjective,
                "preinjective": e.preinjective,
            }
            for e in report.entries
        ]
        print(json.dumps(summary))
    else:
        print(f"rules: {summary['rules']}")
        print(f"selfmaps: {summary['selfmaps']}")
        print(f"injective: {summary['injective']}")
        print(f"surjective: {summary['surjective']}")
        print(f"violations: {len(summary['violations'])}")
        for name in summary["violations"]:
            print(f"violation: {name}")
    return EXIT_INTERNAL if report.violations else EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symshift",
        description="Decision procedures for one-dimensional shift spaces and local maps.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--json", action="store_true", help="structured output")

    shift = top.add_parser("shift", help="shift-space questions").add_subparsers(
        dest="command", required=True
    )
    p = shift.add_parser("check", parents=[flags], help="validate and describe a spec")
    p.add_argument("spec_file")
    p.set_defaults(func=cmd_shift_check)
    _add_questions(shift, "shift", flags)
    p = shift.add_parser("periodic", parents=[flags], help="periodic-point census")
    p.add_argument("spec_file")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_shift_periodic)

    sofic = top.add_parser("sofic", help="sofic presentation questions").add_subparsers(
        dest="command", required=True
    )
    _add_questions(sofic, "sofic", flags)

    mp = top.add_parser("map", help="local map questions").add_subparsers(
        dest="command", required=True
    )
    p = mp.add_parser("apply", parents=[flags], help="image of the periodization of a word")
    p.add_argument("spec_file")
    p.add_argument("rule_file")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_map_apply)
    p = mp.add_parser("image", parents=[flags], help="emit the image presentation")
    p.add_argument("spec_file")
    p.add_argument("rule_file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map_image)
    _add_questions(mp, "map", flags)
    p = mp.add_parser("audit", parents=[flags], help="surjunctivity audit over all rules of a radius")
    p.add_argument("spec_file")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--limit", type=int, default=65536)
    p.set_defaults(func=cmd_map_audit)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Dispatch one invocation and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FormatError, OSError) as e:  # FormatError is a SymshiftError: caught first
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SymshiftError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # noqa: BLE001 - anything else is a bug
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
