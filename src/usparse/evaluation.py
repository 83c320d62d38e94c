"""Monte-Carlo evaluation of sparsified graphs.

Queries (pagerank, shortest path, reliability, clustering coefficient) are
evaluated per sampled world; the per-unit result samples form empirical
distributions that are compared between the original and sparsified graph by
one-dimensional earth mover's distance.  A repeated-run protocol estimates
the variance of the Monte-Carlo point estimators, whose ratio tells how many
samples the sparsified graph saves at equal confidence width.

World i is always drawn from the (seed, i)-derived generator, so every
report is deterministic and independent of how work is split over threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from usparse.graph import (
    DeterministicWorld,
    UncertainGraph,
    derive_rng,
    graph_entropy,
    sample_world,
    sampled_k_discrepancy_mae,
)

DEFAULT_N_SAMPLES = 500
DEFAULT_N_RUNS = 100
DEFAULT_N_PAIRS = 1000
PAGERANK_DAMPING = 0.85


class QueryKind(Enum):
    PAGERANK = "pr"
    SHORTEST_PATH = "sp"
    RELIABILITY = "rl"
    CLUSTERING_COEFFICIENT = "cc"

    @property
    def pairwise(self) -> bool:
        """Shortest path and reliability act on vertex pairs; the rest on vertices."""
        return self in (QueryKind.SHORTEST_PATH, QueryKind.RELIABILITY)


@dataclass
class QueryDistribution:
    """Empirical distribution of one query statistic for one unit."""

    kind: QueryKind
    unit: object
    values: np.ndarray  # sorted ascending
    n_samples: int

    @property
    def empty(self) -> bool:
        return len(self.values) == 0

    def cdf(self, x) -> np.ndarray:
        """Right-continuous empirical CDF evaluated at x (scalar or array)."""
        if self.empty:
            raise ValueError("empty distribution has no CDF")
        return np.searchsorted(self.values, x, side="right") / len(self.values)

    def mean(self) -> float:
        if self.empty:
            raise ValueError("empty distribution has no mean")
        return float(self.values.mean())


def pagerank_world(world: DeterministicWorld, damping: float = PAGERANK_DAMPING,
                   tol: float = 1e-10, max_iter: int = 100) -> np.ndarray:
    """Power-iteration pagerank with uniform teleport on an undirected world.

    Degree-zero vertices receive no link mass; their own mass is spread
    uniformly (the usual dangling-node convention), which keeps the scores an
    exact probability distribution.
    """
    n = world.n
    if n == 0:
        return np.zeros(0)
    us = np.fromiter((e[0] for e in world.edges), dtype=np.int64, count=world.m)
    vs = np.fromiter((e[1] for e in world.edges), dtype=np.int64, count=world.m)
    deg = np.zeros(n)
    np.add.at(deg, us, 1.0)
    np.add.at(deg, vs, 1.0)
    dangling = deg == 0
    safe_deg = np.where(dangling, 1.0, deg)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        share = x / safe_deg
        y = np.zeros(n)
        if world.m:
            np.add.at(y, us, share[vs])
            np.add.at(y, vs, share[us])
        dangling_mass = float(x[dangling].sum())
        x_new = (1.0 - damping) / n + damping * (y + dangling_mass / n)
        if float(np.abs(x_new - x).sum()) <= tol:
            x = x_new
            break
        x = x_new
    return x


def clustering_coefficient_world(world: DeterministicWorld, u: int) -> float:
    """Fraction of realized links among u's neighbors; 0 below degree 2."""
    adj = world.adjacency()
    neighbors = adj[u]
    k = len(neighbors)
    if k < 2:
        return 0.0
    neighbor_set = set(neighbors)
    links = 0
    for x in neighbors:
        for y in adj[x]:
            if y in neighbor_set:
                links += 1
    # every neighbor-neighbor edge was counted twice
    return links / (k * (k - 1))


def _world_values(world, kind, units):
    """Query value per unit in one world; None marks an undefined value."""
    if kind is QueryKind.PAGERANK:
        scores = pagerank_world(world)
        return [float(scores[u]) for u in units]
    if kind is QueryKind.CLUSTERING_COEFFICIENT:
        return [clustering_coefficient_world(world, u) for u in units]
    if kind is QueryKind.RELIABILITY:
        labels = world.component_labels()
        return [1.0 if labels[u] == labels[v] else 0.0 for u, v in units]
    # shortest path: hop distance, only when the pair is connected
    sources = sorted({u for u, _ in units})
    dists = {s: world.hop_distances(s) for s in sources}
    out = []
    for u, v in units:
        d = dists[u][v]
        out.append(float(d) if math.isfinite(d) else None)
    return out


def validate_units(g: UncertainGraph, kind: QueryKind, units) -> list:
    units = list(units)
    if kind.pairwise:
        for u, v in units:
            if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
                raise ValueError(f"invalid vertex pair ({u}, {v})")
    else:
        for u in units:
            if not 0 <= u < g.n:
                raise ValueError(f"invalid vertex {u}")
    return units


def default_units(g: UncertainGraph, kind: QueryKind, n_pairs: int = DEFAULT_N_PAIRS,
                  seed: int = 0) -> list:
    """All vertices for vertex queries; seeded random distinct pairs otherwise.

    Pairs are drawn in order and a pair whose unordered form was already drawn
    is skipped.  Asking for at least every pair returns them all, in canonical
    order.
    """
    if not kind.pairwise:
        return list(range(g.n))
    if n_pairs >= g.n * (g.n - 1) // 2:
        return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    rng = derive_rng(seed, 0xA11)
    pairs = []
    seen = set()
    while len(pairs) < n_pairs:
        u = int(rng.integers(0, g.n))
        v = int(rng.integers(0, g.n - 1))
        if v >= u:
            v += 1
        unordered = (min(u, v), max(u, v))
        if unordered not in seen:
            seen.add(unordered)
            pairs.append((u, v))
    return pairs


def mc_distributions(
    g: UncertainGraph,
    kind: QueryKind,
    units,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
    key: tuple = (),
) -> dict:
    """Per-unit empirical result distributions over n_samples sampled worlds.

    Shortest-path units record a value only in worlds where the pair is
    connected; a unit connected in no sampled world yields an empty (flagged)
    distribution.  `key` extends the seed derivation path (used by the
    repeated-run variance protocol).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    units = validate_units(g, kind, units)
    collected = [[] for _ in units]
    for i in range(n_samples):
        world = sample_world(g, derive_rng(seed, *key, i))
        for slot, value in zip(collected, _world_values(world, kind, units)):
            if value is not None:
                slot.append(value)
    return {
        unit: QueryDistribution(kind, unit, np.sort(np.asarray(vals)), n_samples)
        for unit, vals in zip(units, collected)
    }


def earth_movers_distance(f1: QueryDistribution, f2: QueryDistribution) -> float:
    """One-dimensional earth mover's distance between empirical distributions.

    Integrates |F1 - F2| over the merged support: on each gap between
    consecutive observed values the CDFs are constant at their left endpoint,
    so the sum of |F1 - F2| * gap is the exact transport cost.
    """
    if f1.empty or f2.empty:
        raise ValueError("cannot compare an empty distribution")
    xs = np.union1d(f1.values, f2.values)
    if len(xs) == 1:
        return 0.0
    diffs = np.abs(f1.cdf(xs[:-1]) - f2.cdf(xs[:-1]))
    return float(np.sum(diffs * np.diff(xs)))


def quality(g: UncertainGraph, out: UncertainGraph) -> dict:
    """Degree and entropy figures of one sparsified graph against its original."""
    delta = g.degree_vector() - out.degree_vector()
    entropy_before = graph_entropy(g)
    entropy_after = graph_entropy(out)
    return {
        "degree_objective": float(np.dot(delta, delta)),
        "degree_mae": float(np.mean(np.abs(delta))),
        "entropy_before": entropy_before,
        "entropy_after": entropy_after,
        "relative_entropy": (entropy_after / entropy_before) if entropy_before > 0 else None,
    }


def cut_mae_profile(g: UncertainGraph, out: UncertainGraph, n_cuts: int, seed: int) -> float:
    """Average of sampled-cut MAEs over a small ladder of cut cardinalities."""
    ks = sorted({1, 2, max(1, g.n // 4), max(1, g.n // 2), max(1, (3 * g.n) // 4), g.n})
    values = [sampled_k_discrepancy_mae(g, out, k, n_cuts, seed) for k in ks]
    return float(np.mean(values))


@dataclass
class EmdReport:
    """Per-unit distances, plus the per-unit distributions they were read from.

    `left` and `right` map each unit to its QueryDistribution on the first and
    the second graph; they stay empty when the report is built by hand.
    """

    kind: QueryKind
    per_unit: dict
    skipped_units: list = field(default_factory=list)
    left: dict = field(default_factory=dict)
    right: dict = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return float(np.mean(list(self.per_unit.values()))) if self.per_unit else math.nan

    @property
    def median(self) -> float:
        return float(np.median(list(self.per_unit.values()))) if self.per_unit else math.nan

    @property
    def max(self) -> float:
        return float(np.max(list(self.per_unit.values()))) if self.per_unit else math.nan


def emd_report(
    g: UncertainGraph,
    g2: UncertainGraph,
    kind: QueryKind,
    units,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
) -> EmdReport:
    """Per-unit earth mover's distance between the two graphs' distributions.

    Both graphs are sampled from the same seed, so comparing a graph against
    itself reports exactly zero.  Units whose conditional distribution is
    empty on either side (possible for shortest path) are skipped and listed.
    """
    if g.n != g2.n:
        raise ValueError("graphs must share the same vertex set")
    units = validate_units(g, kind, units)
    left = mc_distributions(g, kind, units, n_samples, seed)
    right = mc_distributions(g2, kind, units, n_samples, seed)
    per_unit = {}
    skipped = []
    for unit in units:
        if left[unit].empty or right[unit].empty:
            skipped.append(unit)
        else:
            per_unit[unit] = earth_movers_distance(left[unit], right[unit])
    return EmdReport(kind, per_unit, skipped, left, right)


def distribution_means(dists: dict) -> dict:
    """Mean of each unit's distribution; NaN where the distribution is empty."""
    return {unit: (math.nan if d.empty else d.mean()) for unit, d in dists.items()}


def mc_point_estimates(
    g: UncertainGraph,
    kind: QueryKind,
    units,
    n_samples: int,
    seed: int,
    key: tuple = (),
) -> dict:
    """One Monte-Carlo point estimate per unit (mean over worlds).

    Shortest path averages over the worlds where the pair is connected and
    gives NaN when there are none; reliability is a plain frequency.
    """
    return distribution_means(mc_distributions(g, kind, units, n_samples, seed, key=key))


def variance_protocol(
    g: UncertainGraph,
    kind: QueryKind,
    units,
    n_samples: int = 100,
    n_runs: int = DEFAULT_N_RUNS,
    seed: int = 0,
) -> dict:
    """Unbiased per-unit variance of the MC point estimator over n_runs runs.

    Run r draws its worlds from the (seed, r, i)-derived generators; the
    variance uses the n_runs - 1 divisor.  Units with no defined estimate in
    some run (disconnected shortest-path pairs) get NaN.
    """
    if n_runs < 2:
        raise ValueError("variance needs at least 2 runs")
    units = validate_units(g, kind, units)
    estimates = {unit: [] for unit in units}
    for r in range(n_runs):
        run = mc_point_estimates(g, kind, units, n_samples, seed, key=(r,))
        for unit in units:
            estimates[unit].append(run[unit])
    out = {}
    for unit, vals in estimates.items():
        arr = np.asarray(vals)
        out[unit] = float(np.var(arr, ddof=1)) if not np.any(np.isnan(arr)) else math.nan
    return out
