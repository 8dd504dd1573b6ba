"""Child processes of the benchmark; ``run.py`` starts one per role.

    worker.py setup WORKLOAD SEED      generate inputs, print "ready", exit
    worker.py run WORKLOAD SEED SECS   timed closed loop, then oracle checks
    worker.py trace WORKLOAD SEED      one traced pass over every item
    worker.py blowup SEED              is_surjective on a random radius-4 rule

Every role except blowup prints "ready" once its inputs exist, so the
parent can time set-up from process start; run and trace end with one JSON
line.  blowup prints nothing: its exit code is the outcome.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from math import floor

from common import MEMORY_EXIT, OUT_DIR, ROOT

MIN_TIMED_PASSES = 3  # every item is timed at least this often

sys.path.insert(0, str(ROOT / "src"))


def make(name: str, seed: int, trace: bool = False):
    from workloads import WORKLOADS, Cli

    if name == "cli":
        return Cli(seed, OUT_DIR / f"cli-{seed}-{os.getpid()}", trace)
    return WORKLOADS[name](seed)


def tail_pct(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` timed
    executions beyond it (capped at 99)."""
    return max(1, min(99, floor(100 * (1 - 10 / n))))


def timed_run(wl, seconds: float) -> dict:
    """Run whole passes over the units until ``seconds`` have passed and
    the timed passes are done, then check every execution against the
    oracles.

    Whole passes keep the item mix the same at any speed.  The first
    ``timed`` passes are timed; their number depends on the run length and
    the workload, never on the program's speed, so a faster program gets
    no extra samples.  Later passes are checked but not timed.

    An item runs in stages (one library call or a few), each timed on its
    own.  An item's time is the sum over its stages of each stage's best
    timed execution: the fastest execution of a short stretch of work
    skips the host's brief slow moments.  Only the verdict of the first
    execution, the best stage times and counts are kept per item, so the
    loop's own bookkeeping does not grow with the number of passes.

    The shared host also runs everything, a 1 ms loop included, up to 1.8
    times slower for tens of seconds at a time, so no execution inside a
    run escapes it.  After every unit of a timed pass the loop therefore
    times the workload's ``reference()`` too, and every item time is
    scaled by ``reference_s`` over the reference's best time in the run:
    times are those of a host that runs the reference in ``reference_s``.
    The reference shares no code with symshift, so a change to symshift
    moves the scaled times as it moves the raw ones.
    """
    timed = max(MIN_TIMED_PASSES, int(seconds * wl.passes_per_s))
    best: dict = {}  # key -> fastest timed execution of each stage, s
    ref_best = float("inf")
    first: dict = {}  # key -> verdict of the first execution
    runs: Counter = Counter()
    changed: Counter = Counter()  # executions whose verdict differs from the first
    failures: list[str] = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    deadline = start + seconds
    while passes < timed or time.perf_counter() < deadline:
        passes += 1
        for unit in wl.units:
            try:
                records = wl.run_unit(unit)
            except Exception as e:  # noqa: BLE001 - a raising item is a failed item
                keys = wl.unit_keys(unit)
                attempted += len(keys)
                failed += len(keys)
                failures.append(f"{unit}: {e!r}")
                continue
            if passes <= timed:
                ref_best = min(ref_best, wl.reference())
            for key, stages, verdict in records:
                if passes <= timed:
                    prev = best.get(key, stages)
                    best[key] = tuple(map(min, prev, stages))
                runs[key] += 1
                if first.setdefault(key, verdict) != verdict:
                    changed[key] += 1
    elapsed = time.perf_counter() - start
    scale = wl.reference_s / ref_best
    raw_ms = {key: 1000.0 * sum(stages) for key, stages in best.items()}
    best_ms = {key: ms * scale for key, ms in raw_ms.items()}

    for key, n in runs.items():
        attempted += n
        problem = wl.oracle(key, first[key], first)
        if problem:
            failed += n
        elif changed[key]:
            failed += changed[key]
            problem = "verdict changed between passes"
        if problem and len(failures) < 20:
            failures.append(f"{key}: {problem}")
    # every timed execution counts with its item's best time
    times = sorted(ms for ms in best_ms.values() for _ in range(timed))
    pct = tail_pct(len(times)) if times else 0
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    result = {
        "executions": sum(runs.values()),
        "passes": passes,
        "timed_passes": timed,
        "elapsed_s": elapsed,
        "best_items_per_s": len(best_ms) / (sum(best_ms.values()) / 1000.0) if best_ms else 0.0,
        "p50_ms": statistics.median(times) if times else 0.0,
        "tail_ms": statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
        if len(times) >= 2 else (times[0] if times else 0.0),
        "tail_pct": pct,
        "reference_ms": 1000.0 * ref_best,
        "scale": scale,
        "raw_p50_ms": statistics.median(raw_ms.values()) if raw_ms else 0.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "verdicts": {repr(k): v for k, v in first.items()},
    }
    if wl.name == "cli":
        result["cli_calls_ms"] = wl.calls_ms
    return result


def traced_pass(wl) -> dict:
    """Run every unit once with every traced function wrapped."""
    import tracer
    import workloads

    rec = tracer.Tracer()
    rec.install(workloads)
    verdicts = {}
    start = time.perf_counter()
    for n, unit in enumerate(wl.units):
        rec.item = n
        for key, _, verdict in wl.run_unit(unit):
            verdicts[repr(key)] = verdict
    elapsed = time.perf_counter() - start
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.json"
    if wl.name == "cli":
        dumps = wl.trace_dumps()
        summary = tracer.merge(d["summary"] for d in dumps)
        with open(spans_path, "w") as fh:
            json.dump({"fields": tracer.SPAN_FIELDS, "invocations": [d["spans"] for d in dumps]}, fh)
    else:
        summary = rec.summary()
        rec.write_spans(spans_path)
    return {
        "items": len(verdicts),
        "elapsed_s": elapsed,
        "summary": summary,
        "verdicts": verdicts,
        "spans": str(spans_path.relative_to(ROOT)),
    }


def blowup(seed: int) -> None:
    from itertools import product

    from symshift import LocalRule, is_surjective, parse_sft

    bits = random.Random(f"blowup-{seed}").getrandbits(512)
    windows = list(product(range(2), repeat=9))
    table = {w: (bits >> i) & 1 for i, w in enumerate(windows)}
    rule = LocalRule(parse_sft("alphabet: 0 1\n"), 4, table)
    try:
        is_surjective(rule)
    except MemoryError:
        os._exit(MEMORY_EXIT)


def main(argv: list[str]) -> int:
    role = argv[0]
    if role == "blowup":
        blowup(int(argv[1]))
        return 0
    name, seed = argv[1], int(argv[2])
    OUT_DIR.mkdir(exist_ok=True)
    wl = make(name, seed, trace=role == "trace")
    try:
        print("ready", flush=True)
        if role == "run":
            print(json.dumps(timed_run(wl, float(argv[3]))))
        elif role == "trace":
            print(json.dumps(traced_pass(wl)))
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
