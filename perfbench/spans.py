"""Traced runs: spans and counters recorded around calls into each module.

`Tracer.installed()` wraps the public functions listed in `TARGETS` at every
site that holds them by name: the defining module, and every `usparse`
module that imported the name.  Methods are wrapped on their class.  Spans
(name, start, end, parent) stay in memory; the benchmark turns them into
layer metrics at the end of the run.  Nothing inside `usparse` changes.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, attribute); "Class.method" wraps a method.
TARGETS = {
    "graph.load": ("usparse.graph", "load_graph"),
    "graph.save": ("usparse.graph", "save_graph"),
    "graph.generate": ("usparse.graph", "generate_synthetic"),
    "graph.sample_world": ("usparse.graph", "sample_world"),
    "graph.component_labels": ("usparse.graph", "DeterministicWorld.component_labels"),
    "graph.hop_distances": ("usparse.graph", "DeterministicWorld.hop_distances"),
    "evaluation.default_units": ("usparse.evaluation", "default_units"),
    "evaluation.emd_report": ("usparse.evaluation", "emd_report"),
    "evaluation.point_estimates": ("usparse.evaluation", "mc_point_estimates"),
    "evaluation.variance": ("usparse.evaluation", "variance_protocol"),
    "evaluation.pagerank": ("usparse.evaluation", "pagerank_world"),
    "evaluation.cc": ("usparse.evaluation", "clustering_coefficient_world"),
    "backbone.build": ("usparse.backbone", "build_backbone"),
    "backbone.alpha_prime": ("usparse.backbone", "default_alpha_prime"),
    "backbone.forest": ("usparse.backbone", "max_spanning_forest"),
    "gdb.run": ("usparse.gdb", "gdb_run"),
    "gdb.descend": ("usparse.gdb", "descend"),
    "gdb.sweep": ("usparse.gdb", "sweep"),
    "gdb.resync": ("usparse.gdb", "SparsifierState.resync"),
    "gdb.objective": ("usparse.gdb", "degree_objective"),
    "emd.run": ("usparse.emd", "emd_run"),
    "emd.e_phase": ("usparse.emd", "e_phase"),
    "lp.sparsify": ("usparse.lp", "lp_sparsify"),
    "lp.simplex": ("usparse.lp", "simplex_max_bounded"),
    "benchmarks.ni": ("usparse.benchmarks", "ni_sparsify"),
    "benchmarks.ni_forest": ("usparse.benchmarks", "contiguous_forest_rounds"),
    "benchmarks.ss": ("usparse.benchmarks", "ss_sparsify"),
    "benchmarks.ss_core": ("usparse.benchmarks", "ss_core"),
}


class Tracer:
    """In-memory spans and counters for one traced pipeline pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.units: list[tuple[int, int]] = []  # (requested, distinct) per pairwise draw
        self.streams: set = set()
        self._stack: list[int] = []
        self._stream_key = None

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _key_stream(self, fn):
        """Remember the (seed, *key, i) of the generator evaluation derives next."""

        @functools.wraps(fn)
        def wrapper(*args):
            self._stream_key = args
            return fn(*args)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target at every site for the duration of the block."""
        undo = []
        try:
            for name, (module_name, attr) in TARGETS.items():
                for owner, attr_name, original in _sites(module_name, attr):
                    undo.append((owner, attr_name, original))
                    setattr(owner, attr_name, self._wrap(name, original))
            evaluation = sys.modules["usparse.evaluation"]
            undo.append((evaluation, "derive_rng", evaluation.derive_rng))
            evaluation.derive_rng = self._key_stream(evaluation.derive_rng)
            yield self
        finally:
            for owner, attr_name, original in reversed(undo):
                setattr(owner, attr_name, original)

    # -- reading ------------------------------------------------------------

    def _durations(self):
        return [end - start for _, start, end, _ in self.spans]

    def total(self, name: str, unless_parent: str | None = None) -> float:
        """Seconds inside spans called `name` (optionally not directly under another)."""
        durations = self._durations()
        return sum(
            d
            for (n, _, _, parent), d in zip(self.spans, durations)
            if n == name and (unless_parent is None or parent is None
                              or self.spans[parent][0] != unless_parent)
        )

    def self_time(self, name: str) -> float:
        """Seconds inside spans called `name` not covered by a child span."""
        durations = self._durations()
        covered = defaultdict(float)
        for (_, _, _, parent), d in zip(self.spans, durations):
            if parent is not None:
                covered[parent] += d
        return sum(
            d - covered[i]
            for i, ((n, _, _, _), d) in enumerate(zip(self.spans, durations))
            if n == name
        )

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def units_median(self, field: int) -> float:
        return statistics.median(u[field] for u in self.units)


def _sites(module_name: str, attr: str):
    """(owner, attribute name, original) for every place a target is bound."""
    module = sys.modules.get(module_name)
    cls_name, _, method = attr.rpartition(".")
    if module is None or not hasattr(module, cls_name or method):
        print(f"perfbench: trace target {module_name}.{attr} not found", file=sys.stderr)
        return
    if cls_name:
        cls = getattr(module, cls_name)
        yield cls, method, getattr(cls, method)
        return
    original = getattr(module, method)
    for name, mod in list(sys.modules.items()):
        if name == "usparse" or name.startswith("usparse."):
            for attr_name, value in list(vars(mod).items()):
                if value is original:
                    yield mod, attr_name, original


# -- counters read off return values at the module boundary -----------------


def _on_sample_world(tracer, args, world):
    # Worlds are keyed by graph and derivation path within the current command.
    command = tracer._stack[0] if tracer._stack else None
    tracer.streams.add((command, id(args[0]), tracer._stream_key))


def _on_default_units(tracer, args, units):
    if args[1].pairwise:
        tracer.units.append((len(units), len(set(units))))


def _on_ni_forest(tracer, args, result):
    death_round, forests = result
    tracer.counts["ni_rounds"] += len(forests)
    tracer.counts["ni_useful_rounds"] += len(set(death_round.values()))


def _on_ni(tracer, args, result):
    tracer.counts["ni_calibration_steps"] += result[1]["calibration_steps"]


def _on_ss_core(tracer, args, spanner):
    tracer.counts["ss_last_spanner"] = len(spanner)


def _on_ss(tracer, args, result):
    tracer.counts["ss_trimmed"] += result[1]["trimmed"]
    tracer.counts["ss_untrimmed"] += tracer.counts["ss_last_spanner"]


def _on_e_phase(tracer, args, swaps):
    tracer.counts["emd_swaps"] += swaps


def _on_simplex(tracer, args, result):
    tracer.counts["lp_iterations"] += result.iterations


_OBSERVERS = {
    "graph.sample_world": _on_sample_world,
    "evaluation.default_units": _on_default_units,
    "benchmarks.ni_forest": _on_ni_forest,
    "benchmarks.ni": _on_ni,
    "benchmarks.ss_core": _on_ss_core,
    "benchmarks.ss": _on_ss,
    "emd.e_phase": _on_e_phase,
    "lp.simplex": _on_simplex,
}
