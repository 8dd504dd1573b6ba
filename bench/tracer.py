"""Span recorder that wraps symshift's public functions from outside.

``install`` replaces each traced function in every symshift module that
binds it (``localmaps``, ``shifts`` and ``cli`` import graph functions by
name) and wraps the ``__post_init__`` of the two traced classes.  Each call
records a span: name, start, end, parent span and item number.  Spans stay
in memory until ``write_spans``; ``summary`` turns them into call counts,
self times (duration minus the time covered by child spans) and the size
counters gathered from arguments and results.

The generator ``enumerate_locally_allowed`` does its work while the caller
iterates, so each resumption is its own span and the words it yields are
counted one by one.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time
from collections import Counter

# metric name -> (module, attribute); several attributes may share a name
TRACED = (
    ("core.enumerate_locally_allowed", "core", "enumerate_locally_allowed"),
    ("localmaps.build_image_presentation", "localmaps", "build_image_presentation"),
    ("localmaps.is_surjective", "localmaps", "is_surjective"),
    ("localmaps.is_injective", "localmaps", "is_injective"),
    ("localmaps.is_preinjective", "localmaps", "is_preinjective"),
    ("localmaps.surjunctivity_audit", "localmaps", "surjunctivity_audit"),
    ("graphs.essential_form", "graphs", "essential_form"),
    ("graphs.determinize_factor_acceptor", "graphs", "determinize_factor_acceptor"),
    ("graphs.dfa_language_subset", "graphs", "dfa_language_subset"),
    ("graphs.dfa_language_equal", "graphs", "dfa_language_equal"),
    ("graphs.product_automaton", "graphs", "product_automaton"),
    ("graphs.scc_decomposition", "graphs", "scc_decomposition"),
    ("shifts.presentation", "shifts", "presentation"),
    ("shifts.factor_acceptor", "shifts", "factor_acceptor"),
    ("shifts.periodic_census", "shifts", "periodic_census"),
    ("shifts.sofic_equal", "shifts", "sofic_equal"),
    ("shifts.queries", "shifts", "language_member"),
    ("shifts.queries", "shifts", "is_irreducible"),
    ("shifts.queries", "shifts", "is_mixing"),
    ("shifts.queries", "shifts", "periodic_density"),
)
# construction of these classes is traced through their __post_init__
TRACED_CLASSES = (
    ("localmaps.LocalRule", "localmaps", "LocalRule"),
    ("graphs.LabeledGraph", "graphs", "LabeledGraph"),
)
SPAN_NAMES = tuple(dict.fromkeys(n for n, _, _ in TRACED + TRACED_CLASSES))
SPAN_FIELDS = ("name", "start", "end", "parent", "item")

# size counters, summed over the traced pass and reported per item
SIZES = (
    "core.enumerate_locally_allowed.words",
    "localmaps.build_image_presentation.states",
    "localmaps.build_image_presentation.edges",
    "localmaps.is_surjective.orphan_len",
    "graphs.essential_form.states_in",
    "graphs.essential_form.states_out",
    "graphs.essential_form.edges_in",
    "graphs.essential_form.edges_out",
    "graphs.determinize_factor_acceptor.nfa_states",
    "graphs.determinize_factor_acceptor.dfa_states",
    "graphs.product_automaton.pair_states",
    "graphs.product_automaton.pair_edges",
    "shifts.presentation.states",
    "shifts.periodic_census.states",
)


def _essential_sizes(sizes, args, result, parent):
    sizes["graphs.essential_form.states_in"] += len(args[0].states)
    sizes["graphs.essential_form.edges_in"] += len(args[0].edges)
    sizes["graphs.essential_form.states_out"] += len(result.states)
    sizes["graphs.essential_form.edges_out"] += len(result.edges)


def _determinize_sizes(sizes, args, result, parent):
    sizes["graphs.determinize_factor_acceptor.nfa_states"] += len(args[0].states)
    sizes["graphs.determinize_factor_acceptor.dfa_states"] += result.n_states


def _product_sizes(sizes, args, result, parent):
    sizes["graphs.product_automaton.pair_states"] += len(result.states)
    sizes["graphs.product_automaton.pair_edges"] += len(result.edges)


def _image_sizes(sizes, args, result, parent):
    sizes["localmaps.build_image_presentation.states"] += len(result.graph.states)
    sizes["localmaps.build_image_presentation.edges"] += len(result.graph.edges)


def _surjective_sizes(sizes, args, result, parent):
    orphan = result[1]
    sizes["localmaps.is_surjective.orphan_len"] += 0 if orphan is None else len(orphan)


def _presentation_sizes(sizes, args, result, parent):
    sizes["shifts.presentation.states"] += len(result.states)
    if parent == "shifts.periodic_census":
        sizes["shifts.periodic_census.states"] += len(result.states)


SIZERS = {
    "graphs.essential_form": _essential_sizes,
    "graphs.determinize_factor_acceptor": _determinize_sizes,
    "graphs.product_automaton": _product_sizes,
    "localmaps.build_image_presentation": _image_sizes,
    "localmaps.is_surjective": _surjective_sizes,
    "shifts.presentation": _presentation_sizes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # SPAN_FIELDS; parent is an index, -1 at the root
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.item = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap_function(self, name: str, fn):
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            parent = self.current()
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if sizer is not None:
                sizer(self.sizes, args, result, parent)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        counter = name + ".words"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)

            def resumptions():
                while True:
                    idx = self.begin(name)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.end(idx)
                    self.sizes[counter] += 1
                    yield value

            return resumptions()

        return wrapper

    def wrap_init(self, name: str, cls) -> None:
        post_init = cls.__post_init__

        def traced_post_init(obj):
            self.calls[name] += 1
            idx = self.begin(name)
            try:
                post_init(obj)
            finally:
                self.end(idx)

        cls.__post_init__ = traced_post_init

    def install(self, *namespaces) -> None:
        """Wrap the traced names in every symshift module and in the given
        modules, which may have imported them by name."""
        import symshift.cli  # noqa: F401 - binds names that must be wrapped too

        modules = [m for key, m in sys.modules.items() if key == "symshift" or key.startswith("symshift.")]
        modules += namespaces
        for name, mod, attr in TRACED:
            original = getattr(sys.modules[f"symshift.{mod}"], attr)
            if name == "core.enumerate_locally_allowed":
                wrapped = self.wrap_generator(name, original)
            else:
                wrapped = self.wrap_function(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for name, mod, attr in TRACED_CLASSES:
            self.wrap_init(name, getattr(sys.modules[f"symshift.{mod}"], attr))

    def summary(self) -> dict:
        """Calls, self seconds and size counters of everything recorded."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += (end - start) - child
        return {"calls": dict(self.calls), "self_s": dict(self_s), "sizes": dict(self.sizes)}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def merge(summaries) -> dict:
    total = {"calls": Counter(), "self_s": Counter(), "sizes": Counter()}
    for s in summaries:
        for key in total:
            total[key].update(s[key])
    return {key: dict(value) for key, value in total.items()}


def child_main() -> None:
    """Entry point of a traced CLI child: trace, run the CLI, and at exit
    write the summary and spans to the file named by BENCH_TRACE_OUT."""
    tracer = Tracer()
    tracer.install()
    out = os.environ["BENCH_TRACE_OUT"]

    def dump():
        with open(out, "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)

    atexit.register(dump)
    from symshift.cli import main

    main()
