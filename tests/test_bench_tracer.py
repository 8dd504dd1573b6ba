"""The names and result attributes that the benchmark's span recorder
(bench/tracer.py) reads off the library.

The recorder looks each traced function and class up on its module by
name, and its size counters read attributes of the traced calls' results,
so a renamed function or a changed result type breaks only traced bench
runs.  These tests read the recorder's tables without installing it: the
file is compiled in memory, and nothing under bench/ is written.
"""

import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from helpers import spec
from symshift.localmaps import constant_rule, identity_rule
from symshift.shifts import presentation

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = load_tracer()

FULL2 = spec("01")
GOLDEN = spec("01", "11")

# a call of each function that has a size counter: (arguments, parent span)
SIZED_CALLS = {
    "graphs.essential_form": ((presentation(GOLDEN, 3),), None),
    "graphs.determinize_factor_acceptor": ((presentation(GOLDEN),), None),
    "graphs.product_automaton": ((presentation(GOLDEN),), None),
    "localmaps.build_image_presentation": ((identity_rule(GOLDEN),), None),
    "localmaps.is_surjective": ((constant_rule(FULL2, 0),), None),
    "shifts.presentation": ((GOLDEN,), "shifts.periodic_census"),
}


def traced_function(name):
    mod, attr = next((mod, attr) for n, mod, attr in tracer.TRACED if n == name)
    return getattr(importlib.import_module(f"symshift.{mod}"), attr)


@pytest.mark.parametrize(
    "name, mod, attr", tracer.TRACED, ids=[f"{mod}.{attr}" for _, mod, attr in tracer.TRACED]
)
def test_traced_functions_resolve(name, mod, attr):
    assert callable(getattr(importlib.import_module(f"symshift.{mod}"), attr))


@pytest.mark.parametrize(
    "name, mod, attr", tracer.TRACED_CLASSES, ids=[n for n, _, _ in tracer.TRACED_CLASSES]
)
def test_traced_classes_have_the_wrapped_hook(name, mod, attr):
    cls = getattr(importlib.import_module(f"symshift.{mod}"), attr)
    assert isinstance(cls, type) and callable(cls.__post_init__)


@pytest.mark.parametrize("name", sorted(tracer.SIZERS))
def test_sizers_read_the_results_of_real_calls(name):
    args, parent = SIZED_CALLS[name]
    sizes = Counter()
    tracer.SIZERS[name](sizes, args, traced_function(name)(*args), parent)
    assert set(sizes) <= set(tracer.SIZES)
    assert sizes and all(v > 0 for v in sizes.values())
