"""Monte-Carlo evaluation of sparsified graphs.

Queries (pagerank, shortest path, reliability, clustering coefficient) are
evaluated per sampled world; the per-unit result samples form empirical
distributions that are compared between the original and sparsified graph by
one-dimensional earth mover's distance.  A repeated-run protocol estimates
the variance of the Monte-Carlo point estimators, whose ratio tells how many
samples the sparsified graph saves at equal confidence width.

World i is always drawn from the (seed, i)-derived generator, so every
report is deterministic.  The worlds are sampled as rows of one edge-mask
matrix and each query kernel evaluates a chunk of rows at once; a world's
values do not depend on how the worlds are split into chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from usparse.graph import (
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
# Upper bound on the cells of one chunk's widest array (worlds times the
# per-world width of its masks, frontiers, triangle flags or unit values), so
# memory stays flat in the number of sampled worlds.
CHUNK_CELLS = 1 << 20


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


def sample_masks(g: UncertainGraph, seed: int, key: tuple, count: int,
                 start: int = 0) -> np.ndarray:
    """Edge masks of worlds start .. start + count - 1 of stream (seed, *key).

    Row i is sample_world(g, derive_rng(seed, *key, start + i)): each world
    owns its generator, so its edges do not depend on which other worlds are
    drawn with it.
    """
    masks = np.empty((count, g.m), dtype=bool)
    for row in range(count):
        masks[row] = sample_world(g, derive_rng(seed, *key, start + row))
    return masks


def _flat_edges(g: UncertainGraph, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of every realized edge as ids in the flattened (B*n) vertex set.

    Worlds come in row order and, within a world, edges in canonical order.
    """
    world, edge = np.nonzero(masks)
    us, vs = g.endpoint_arrays
    offset = world * g.n
    return offset + us[edge], offset + vs[edge]


def component_labels(g: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """(B, n) component label of each vertex in each world: equal labels, one component.

    Min-label hooking over all worlds at once: each round hooks the larger
    root of every edge that still joins two trees under the smaller one, then
    jumps pointers until every vertex points at its root.
    """
    a, b = _flat_edges(g, masks)
    parent = np.arange(len(masks) * g.n)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return parent.reshape(len(masks), g.n)
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def pagerank_world(g: UncertainGraph, masks: np.ndarray, damping: float = PAGERANK_DAMPING,
                   tol: float = 1e-10, max_iter: int = 100) -> np.ndarray:
    """(B, n) power-iteration pagerank with uniform teleport, one row per world.

    Degree-zero vertices receive no link mass; their own mass is spread
    uniformly (the usual dangling-node convention), which keeps each row an
    exact probability distribution.  A world stops once its L1 change is at
    most tol.  Each vertex gathers its link mass in the order of a one-world
    scatter over its edges, and every sum runs over one world's row, so a
    world's scores do not depend on the worlds iterated beside it.
    """
    n_worlds, n = masks.shape[0], g.n
    a, b = _flat_edges(g, masks)
    heads, tails = np.concatenate([a, b]), np.concatenate([b, a])
    deg = np.bincount(heads, minlength=n_worlds * n).reshape(n_worlds, n)
    dangling = deg == 0
    safe_deg = np.where(dangling, 1.0, deg)
    # each world's dangling vertices, with worlds grouped by how many they have
    counts = dangling.sum(axis=1)
    groups = []
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        groups.append((rows[:, None], np.nonzero(dangling[rows])[1].reshape(len(rows), k)))
    x = np.full((n_worlds, n), 1.0 / n)
    active = np.ones(n_worlds, dtype=bool)
    dangling_mass = np.zeros(n_worlds)
    for _ in range(max_iter):
        share = x / safe_deg
        y = np.bincount(heads, weights=share.ravel()[tails], minlength=x.size).reshape(x.shape)
        for rows, cols in groups:
            dangling_mass[rows[:, 0]] = x[rows, cols].sum(axis=1)
        x_new = (1.0 - damping) / n + damping * (y + (dangling_mass / n)[:, None])
        converged = np.abs(x_new - x).sum(axis=1) <= tol
        x[active] = x_new[active]
        active &= ~converged
        if not active.any():
            break
    return x


def _triangles(g: UncertainGraph) -> tuple[np.ndarray, np.ndarray]:
    """(T, 3) corner vertices and (T, 3) edge indices of every triangle of g."""
    index = {pair: i for i, pair in enumerate(g.edge_pairs)}
    neighbors = [set() for _ in range(g.n)]
    for u, v in g.edge_pairs:
        neighbors[u].add(v)
        neighbors[v].add(u)
    corners, sides = [], []
    for i, (u, v) in enumerate(g.edge_pairs):
        for w in neighbors[u] & neighbors[v]:
            if w > v:
                corners.append((u, v, w))
                sides.append((i, index[u, w], index[v, w]))
    return (np.asarray(corners, dtype=np.int64).reshape(-1, 3),
            np.asarray(sides, dtype=np.int64).reshape(-1, 3))


def clustering_coefficient_world(g: UncertainGraph, masks: np.ndarray, corners: np.ndarray,
                                 sides: np.ndarray) -> np.ndarray:
    """(B, n) share of realized links among each vertex's neighbors; 0 below degree 2.

    corners and sides are g's triangles as _triangles(g) lists them.
    """
    n_worlds, n = masks.shape[0], g.n
    a, b = _flat_edges(g, masks)
    deg = np.bincount(np.concatenate([a, b]), minlength=n_worlds * n).reshape(n_worlds, n)
    present = masks[:, sides[:, 0]] & masks[:, sides[:, 1]] & masks[:, sides[:, 2]]
    world, tri = np.nonzero(present)
    # each triangle is two links (both orders) among each corner's neighbors
    links = 2 * np.bincount((world[:, None] * n + corners[tri]).ravel(),
                            minlength=n_worlds * n).reshape(n_worlds, n)
    out = np.zeros((n_worlds, n))
    np.divide(links, deg * (deg - 1), out=out, where=deg >= 2)
    return out


def _hop_distances(g: UncertainGraph, masks: np.ndarray, units: list) -> np.ndarray:
    """(B, U) hop distance of each pair in each world; NaN where it is disconnected.

    One breadth-first search per distinct source runs in every world at once:
    each (world, vertex) row holds one bit per source in uint64 words, and a
    level ORs the frontier bits of all realized arcs into their heads.
    """
    n_worlds, n = masks.shape[0], g.n
    sources = sorted({u for u, _ in units})
    slot = {s: j for j, s in enumerate(sources)}
    word = np.arange(len(sources)) // 64
    bit = np.left_shift(np.uint64(1), (np.arange(len(sources)) % 64).astype(np.uint64))
    base = np.arange(n_worlds)[:, None] * n
    visited = np.zeros((n_worlds * n, (len(sources) + 63) // 64), dtype=np.uint64)
    visited[(base + sources).ravel(), np.tile(word, n_worlds)] = np.tile(bit, n_worlds)
    a, b = _flat_edges(g, masks)
    heads, tails = np.concatenate([a, b]), np.concatenate([b, a])
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    targets, starts = np.unique(heads, return_index=True)
    unit_slot = [slot[u] for u, _ in units]
    unit_word, unit_bit = word[unit_slot], bit[unit_slot]
    unit_rows = base + [v for _, v in units]
    dist = np.full((n_worlds, len(units)), np.nan)
    frontier = visited.copy()
    level = 0
    while len(targets):
        level += 1
        reached = np.bitwise_or.reduceat(frontier[tails], starts, axis=0)
        fresh = reached & ~visited[targets]
        grown = fresh.any(axis=1)
        if not grown.any():
            break
        rows, fresh = targets[grown], fresh[grown]
        visited[rows] |= fresh
        frontier = np.zeros_like(visited)
        frontier[rows] = fresh
        hit = (visited[unit_rows, unit_word] & unit_bit) != 0
        dist[hit & np.isnan(dist)] = level
    return dist


def _kernel(g: UncertainGraph, kind: QueryKind, units: list):
    """(kernel, width): kernel maps a (B, |E|) mask chunk to its (B, U) values,
    and width is the per-world cell count of its widest array besides those."""
    width = g.m + g.n
    if not units:
        return (lambda masks: np.empty((len(masks), 0))), width
    if kind is QueryKind.PAGERANK:
        return (lambda masks: pagerank_world(g, masks)[:, units]), 2 * g.m + g.n
    if kind is QueryKind.CLUSTERING_COEFFICIENT:
        corners, sides = _triangles(g)
        def clustering(masks):
            return clustering_coefficient_world(g, masks, corners, sides)[:, units]
        return clustering, width + len(sides)
    us = [u for u, _ in units]
    vs = [v for _, v in units]
    if kind is QueryKind.RELIABILITY:
        def reliability(masks):
            labels = component_labels(g, masks)
            return (labels[:, us] == labels[:, vs]).astype(np.float64)
        return reliability, width
    words = (len(set(us)) + 63) // 64
    return (lambda masks: _hop_distances(g, masks, units)), (2 * g.m + g.n) * words


def _sampled_values(g: UncertainGraph, kind: QueryKind, units: list, n_samples: int,
                    seed: int, keys: list):
    """Yield, per key, the (n_samples, U) values of worlds 0..n_samples-1 of its stream.

    The worlds of stream (seed, *key) go through one kernel in chunks of at
    most CHUNK_CELLS cells.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    kernel, width = _kernel(g, kind, units)
    per_chunk = max(1, CHUNK_CELLS // max(width, len(units), 1))
    for key in keys:
        yield np.concatenate([
            kernel(sample_masks(g, seed, key, min(per_chunk, n_samples - start), start=start))
            for start in range(0, n_samples, per_chunk)
        ])


def _sorted_means(samples: np.ndarray) -> np.ndarray:
    """Mean of each row's sorted non-NaN values along the last axis; NaN if none.

    Rows with the same number of defined values are averaged together over
    one contiguous sorted prefix, which gives QueryDistribution.mean's bits.
    """
    ordered = np.sort(samples, axis=-1)  # NaN sorts last
    counts = np.count_nonzero(~np.isnan(ordered), axis=-1)
    means = np.full(counts.shape, np.nan)
    for c in np.unique(counts[counts > 0]):
        rows = counts == c
        means[rows] = ordered[rows][:, :c].mean(axis=-1)
    return means


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
    units = validate_units(g, kind, units)
    values = next(_sampled_values(g, kind, units, n_samples, seed, [key]))
    return {
        unit: QueryDistribution(kind, unit, np.sort(col[~np.isnan(col)]), n_samples)
        for unit, col in zip(units, values.T)
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
    runs = _sampled_values(g, kind, units, n_samples, seed, [(r,) for r in range(n_runs)])
    # (U, R): run r's point estimate of each unit, the mean of its distribution
    estimates = np.column_stack([_sorted_means(np.ascontiguousarray(values.T)) for values in runs])
    variances = np.var(estimates, axis=1, ddof=1)
    return {unit: float(v) for unit, v in zip(units, variances)}
