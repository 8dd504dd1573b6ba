"""The names and result attributes that the benchmark's span recorder
(bench/tracer.py) reads off the library.

The recorder looks each traced function and class up on its module by
name, and its size counters read attributes of the traced calls' results,
so a renamed function or a changed result type breaks only traced bench
runs.  These tests read the recorder's tables without installing it: the
file is compiled in memory, and nothing under bench/ is written.
"""

import importlib
import sys
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


@pytest.fixture
def installed(monkeypatch):
    """A recorder installed on the library; the wrapped names and class
    hooks are put back at teardown."""
    import symshift.cli  # noqa: F401 - the recorder wraps its names too

    originals = {id(traced_function(name)) for name, _, _ in tracer.TRACED}
    for key, module in list(sys.modules.items()):
        if key == "symshift" or key.startswith("symshift."):
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    monkeypatch.setattr(module, attr, value)
    for _, mod, attr in tracer.TRACED_CLASSES:
        cls = getattr(importlib.import_module(f"symshift.{mod}"), attr)
        monkeypatch.setattr(cls, "__post_init__", cls.__post_init__)
    recorder = tracer.Tracer()
    recorder.install()
    return recorder


@pytest.mark.parametrize(
    "argv, name",
    [
        (["map", "injective", "full.sft", "id.rule"], "localmaps.is_injective"),
        (["map", "goe", "full.sft", "id.rule"], "localmaps.is_surjective"),
        (["shift", "irreducible", "full.sft"], "shifts.queries"),
    ],
)
def test_cli_decisions_are_looked_up_when_called(installed, tmp_path, capsys, argv, name):
    # the command table holds lambdas that look each decision up on its
    # module, so a recorder installed after the CLI is imported sees it
    from symshift.cli import run

    (tmp_path / "full.sft").write_text("alphabet: 0 1\n")
    (tmp_path / "id.rule").write_text("radius: 0\nmap: 0 -> 0\nmap: 1 -> 1\n")
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    assert run(argv) in (0, 1)
    capsys.readouterr()
    assert installed.calls[name] == 1
