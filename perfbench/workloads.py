"""The benchmark's workloads: one graph each, and the README commands run on it.

The graph (`usparse generate --dist uniform --seed 1`) and the sparsify seed
(the README's `--seed 7`) are fixed, so a workload does the same sparsify
work at every run seed; the run seed goes to every eval command.  Across
graph seeds ni's forest rounds grow with 1/p_min, which swings by orders of
magnitude, and across sparsify seeds the backbone changes gdb's sweep count
and ss's calibration attempts by up to 2x; a benchmark whose work swings that
much between seeds cannot resolve a 25% change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

ALPHA = 0.3
GRAPH_SEED = 1
SPARSIFY_SEED = 7


@dataclass(frozen=True)
class Sparsify:
    """One `usparse sparsify` command: a label, its method and extra flags."""

    label: str
    method: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int
    density: float
    sparsify: tuple[Sparsify, ...]
    queries: tuple[str, ...] = ()
    samples: int = 0
    runs: int = 0
    pairs: int = 1000

    @property
    def edges(self) -> int:
        """The edge count `generate_synthetic` produces at this size."""
        return math.ceil(self.density * (self.vertices * (self.vertices - 1) // 2))

    def methods(self) -> list[str]:
        return sorted({s.method for s in self.sparsify})

    def default_rule_methods(self) -> list[str]:
        """Methods run with their default rule, whose degree quality is reported."""
        return sorted({s.method for s in self.sparsify if s.label == s.method})


# README.md gives each workload's rationale and why n1000 leaves out lp and
# ni and n3000_rules leaves out ss.  The world and run counts keep a pass of
# paper and n1000 short enough for two or more passes in a 40 s run.
_ALL_METHODS = tuple(Sparsify(m, m) for m in ("gdb", "emd", "lp", "ni", "ss"))

FULL = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            vertices=100,
            density=0.15,
            sparsify=_ALL_METHODS,
            queries=("pr", "sp", "rl", "cc"),
            samples=20,
            runs=2,
        ),
        Workload(
            name="n1000",
            vertices=1000,
            density=0.05,
            sparsify=(Sparsify("gdb", "gdb"), Sparsify("emd", "emd"), Sparsify("ss", "ss")),
            queries=("rl", "pr"),
            samples=5,
            runs=2,
        ),
        Workload(
            name="n3000_rules",
            vertices=3000,
            density=0.01,
            sparsify=(
                Sparsify("gdb.rel", "gdb", ("--mode", "rel")),
                Sparsify("gdb.k2", "gdb", ("-k", "2")),
                Sparsify("gdb.kall", "gdb", ("-k", "all")),
                Sparsify("emd.rel", "emd", ("--mode", "rel")),
            ),
        ),
    )
}

# Toy graphs that run every workload's code path in seconds (tests only).
SMOKE = {
    "paper": replace(FULL["paper"], vertices=24, density=0.3, samples=4),
    "n1000": replace(FULL["n1000"], vertices=40, density=0.2, samples=4, pairs=200),
    "n3000_rules": replace(FULL["n3000_rules"], vertices=60, density=0.15),
}

SIZES = {"full": FULL, "smoke": SMOKE}
