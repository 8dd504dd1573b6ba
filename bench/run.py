"""symshift benchmark.

    python3 bench/run.py --workload {audit,pairs,shift,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in fresh child processes (``worker.py``):

* set-up is timed eleven times, from process start to the first timed
  item: five set-up-only processes before the measured one, the measured
  one, and five after it, so a slow spell of the host at either end does
  not set the median, which is ``setup_s``;
* the measured process runs the workload's closed loop, one caller, in
  whole passes over its items until S seconds have passed and a fixed
  number of timed passes (at least three) are done, then checks every
  verdict against the oracles in ``oracles.py``; item times are scaled by
  the speed of the host during the run, measured with a fixed reference
  (``Workload.reference`` in ``workloads.py``, see ``worker.timed_run``);
* with ``--trace 1`` a further process makes one traced pass over every
  item and the per-layer metrics replace the end-to-end ones;
* two probes run outside the timed loop on every invocation: a random
  radius-4 surjectivity check under a memory and time cap, and the CLI's
  radius-8 audit refusal.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric by name with its unit.  Metric names and units come
from BENCHMARK.json.  Temporary files, spans and traces go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer
from common import BENCH_DIR, ENTRY, MEMORY_EXIT, OUT_DIR, ROOT

WORKLOADS = ("audit", "pairs", "shift", "cli")
SETUP_SAMPLES = 11  # odd, so the median is one sample
CLI_START_SAMPLES = 5
CHILD_TIMEOUT_S = 150
BLOWUP_CAP_MB = 250
BLOWUP_CAP_S = 6.0
BLOWUP_OUTCOMES = {"answered": 0, "out_of_memory": 1, "timed_out": 2, "crashed": 3}


class ChildFailed(RuntimeError):
    pass


def _env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def run_worker(*args: str) -> tuple[float, dict | None]:
    """Start worker.py, time it to its "ready" line, and return that time
    with the JSON object on its last line (None for set-up-only runs)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited {code}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def median_process_ms(code: str) -> float:
    times = []
    for _ in range(CLI_START_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, env=_env())
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def _cap_memory() -> None:
    cap = BLOWUP_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def blowup_probe(seed: int) -> tuple[str, float]:
    """is_surjective on one random radius-4 rule in a capped child.  Such
    rules are left out of `pairs`: uncapped, one can exhaust the machine."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "blowup", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        cwd=ROOT, env=_env(), preexec_fn=_cap_memory,
    )
    try:
        code = proc.wait(timeout=BLOWUP_CAP_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return "timed_out", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if code == 0:
        return "answered", elapsed
    return ("out_of_memory" if code == MEMORY_EXIT else "crashed"), elapsed


def refusal_probe(seed: int) -> tuple[int, float]:
    """`map audit` of the binary full shift at radius 8.  The README
    contract says exit 2; the parent commit exits 3 because the refusal
    message formats 2^(2^17) and hits the int-to-str digit limit."""
    work = OUT_DIR / f"probe-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = work / "full2.sft"
        spec.write_text("alphabet: 0 1\n")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, "map", "audit", str(spec), "--radius", "8", "--json"],
            capture_output=True, cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, (time.perf_counter() - start) * 1000.0
    finally:
        shutil.rmtree(work)


def per_layer(run: dict, traced: dict, probes: dict) -> dict:
    """Per-layer metrics: calls and self time of each traced name and
    sizes per item from the traced pass, CLI start-up and per-invocation
    times, tracing overhead and the probe outcomes."""
    summary = traced["summary"]
    items = traced["items"]
    out = {}
    for name in tracer.SPAN_NAMES:
        out[f"{name}.calls"] = summary["calls"].get(name, 0)
        out[f"{name}.self_s"] = summary["self_s"].get(name, 0.0)
    sizes = summary["sizes"]
    for name in tracer.SIZES:
        out[name] = sizes.get(name, 0) / items
    states_in = sizes.get("graphs.essential_form.states_in", 0)
    out["graphs.essential_form.keep_ratio"] = (
        sizes.get("graphs.essential_form.states_out", 0) / states_in if states_in else 0.0
    )
    interpreter = median_process_ms("pass")
    out["cli.interpreter_ms"] = interpreter
    out["cli.import_ms"] = median_process_ms("import symshift.cli") - interpreter
    calls = run.get("cli_calls_ms", [])
    timed = [(p, d) for p, d in calls if d is not None]
    out["cli.process_ms"] = statistics.median(p for p, _ in calls) if calls else 0.0
    out["cli.decision_ms"] = statistics.median(d for _, d in timed) if timed else 0.0
    out["cli.overhead_ms"] = statistics.median(p - d for p, d in timed) if timed else 0.0
    out["trace.overhead_items_per_s"] = (
        run["executions"] / run["elapsed_s"] - traced["items"] / traced["elapsed_s"]
    )
    out.update(probes)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symshift" / "__init__.py").is_file():
        print(f"error: no symshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    seed = str(args.seed)

    try:
        half = (SETUP_SAMPLES - 1) // 2
        setup = [run_worker("setup", args.workload, seed)[0] for _ in range(half)]
        ready, run = run_worker("run", args.workload, seed, str(args.seconds))
        setup.append(ready)
        setup += [run_worker("setup", args.workload, seed)[0] for _ in range(half)]
        traced = run_worker("trace", args.workload, seed)[1] if args.trace else None
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    outcome, blowup_s = blowup_probe(args.seed)
    refusal_code, refusal_ms = refusal_probe(args.seed)
    failures = list(run["failures"])
    failed = run["failed"]
    if traced is not None and traced["verdicts"] != run["verdicts"]:
        differing = [k for k in run["verdicts"] if traced["verdicts"].get(k) != run["verdicts"][k]]
        failed += len(differing) or 1
        failures.append(f"traced verdicts differ from untraced on {differing[:5]}")

    print(
        f"{args.workload} seed {args.seed}: {run['executions']} items ({run['passes']} passes, "
        f"{run['timed_passes']} timed) in {run['elapsed_s']:.3f} s "
        f"({run['executions'] / run['elapsed_s']:.4f} items/s of wall time), "
        f"{run['attempted']} checked, {failed} failed"
    )
    for failure in failures:
        print(f"  FAILED {failure}")
    print(
        f"probe blowup: radius-4 is_surjective {outcome} after {blowup_s:.3f} s "
        f"(cap {BLOWUP_CAP_MB} MB address space, {BLOWUP_CAP_S:g} s)"
    )
    print(f"probe refusal: map audit --radius 8 exit {refusal_code} (README: 2) in {refusal_ms:.1f} ms")

    if args.trace:
        probes = {
            "probe.blowup.outcome": BLOWUP_OUTCOMES[outcome],
            "probe.blowup.s": blowup_s,
            "probe.refusal_r8.exit_code": refusal_code,
            "probe.refusal_r8.ms": refusal_ms,
        }
        values = per_layer(run, traced, probes)
        declared = spec["per_layer"]
        print(f"traced pass: {traced['items']} items in {traced['elapsed_s']:.3f} s, spans in {traced['spans']}")
    else:
        values = {
            "items_per_s": run["best_items_per_s"],
            "item_ms_p50": run["p50_ms"],
            "item_ms_tail": run["tail_ms"],
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        declared = spec["end_to_end"]
        print(
            f"reference best {run['reference_ms']:.4f} ms, so timings are scaled by "
            f"{run['scale']:.4f} (raw item_ms_p50 {run['raw_p50_ms']:.4f} ms); "
            f"item_ms_tail is p{run['tail_pct']}; setup_s samples {[round(s, 4) for s in setup]}"
        )
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    if not args.trace:
        # zero on a healthy run, so it is printed here but is not a JSON metric
        print(f"  failed_ratio {failed / run['attempted']} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
