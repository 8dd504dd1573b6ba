"""Paths and constants shared by the benchmark's parent and child processes."""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent  # the source checkout; the library is under src/
OUT_DIR = ROOT / ".bench_out"
# what the `symshift` console script runs
ENTRY = "import sys; from symshift.cli import main; sys.exit(main())"
# exit code of `worker.py blowup` on MemoryError under the parent's memory cap
MEMORY_EXIT = 10
