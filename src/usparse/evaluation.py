"""Monte-Carlo evaluation of sparsified graphs.

Queries (pagerank, shortest path, reliability, clustering coefficient) are
evaluated in every sampled world.  `sample_answers` gives one graph's answers
to one query as a value: a (worlds, units) matrix, NaN marking an undefined
shortest path, and optionally each unit's Monte-Carlo estimator variance over
repeated runs, whose ratio between two graphs tells how many samples the
sparsified one saves at equal confidence width.  `emd_report` scores two such
values and samples nothing: one sort over all columns yields every unit's
one-dimensional earth mover's distance between its samples on the two graphs.

World i is always drawn from the (seed, i)-derived generator, so every
report is deterministic.  The worlds are sampled as rows of one edge-mask
matrix and each query kernel evaluates a chunk of rows at once; a world's
values do not depend on how the worlds are split into chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from usparse.graph import UncertainGraph, derive_rng, draw_rows, graph_entropy, sample_world

DEFAULT_N_SAMPLES = 500
DEFAULT_N_RUNS = 100
DEFAULT_N_PAIRS = 1000
DEFAULT_N_CUTS = 200
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
    index = {pair: i for i, pair in enumerate(zip(*(a.tolist() for a in g.endpoint_arrays)))}
    neighbors = [set() for _ in range(g.n)]
    for u, v in index:
        neighbors[u].add(v)
        neighbors[v].add(u)
    corners, sides = [], []
    for (u, v), i in index.items():
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


def _sorted_means(values: np.ndarray) -> np.ndarray:
    """(U,) mean of each column's sorted non-NaN values of a (B, U) matrix; NaN if none.

    Units with the same number of defined values are averaged together, each
    over one contiguous sorted row, which gives the bits of the mean of that
    unit's sorted defined values alone.
    """
    ordered = np.sort(np.ascontiguousarray(values.T), axis=-1)  # NaN sorts last
    counts = np.count_nonzero(~np.isnan(ordered), axis=-1)
    means = np.full(counts.shape, np.nan)
    for c in np.unique(counts[counts > 0]):
        rows = counts == c
        means[rows] = ordered[rows][:, :c].mean(axis=-1)
    return means


def _transport_costs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(U,) earth mover's distance between the columns of a (B1, U) and a (B2, U) matrix.

    NaN marks an undefined sample.  One stable sort merges each unit's two
    columns; at the last cell of each run of equal values the CDFs are the
    running counts over n1 and n2, constant up to the next value, so the sum
    of |F1 - F2| * gap is the exact transport cost.  Units of one support
    size are summed together, one contiguous row each, which keeps the bits
    of a lone unit's sum.  A unit with no defined value on one side is NaN.
    """
    stacked = np.concatenate([left, right]).T  # (U, B1 + B2)
    order = np.argsort(stacked, axis=1, kind="stable")  # NaN sorts last
    values = np.take_along_axis(stacked, order, axis=1)
    defined = ~np.isnan(values)
    from_right = order >= len(left)
    count_left = np.cumsum(defined & ~from_right, axis=1)
    count_right = np.cumsum(defined & from_right, axis=1)
    n_left, n_right = count_left[:, -1], count_right[:, -1]
    costs = np.where((n_left > 0) & (n_right > 0), 0.0, np.nan)
    # a cell closes a gap when a larger value follows it (NaN compares false)
    closes = (values[:, 1:] > values[:, :-1]) & ~np.isnan(costs)[:, None]
    rows, cols = np.nonzero(closes)
    products = (np.abs(count_left[rows, cols] / n_left[rows]
                       - count_right[rows, cols] / n_right[rows])
                * (values[rows, cols + 1] - values[rows, cols]))
    gaps = np.bincount(rows, minlength=len(costs))
    for size in np.unique(gaps[gaps > 0]):
        units = gaps == size
        costs[units] = products[units[rows]].reshape(-1, size).sum(axis=1)
    return costs


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

    Pairs are drawn in order, u uniform over the vertices and v over the
    others, and a pair whose unordered form was already drawn is skipped.  The
    draws come in blocks (graph.draw_rows) with the numbers that one scalar
    rng.integers call per endpoint gives.  Asking for at least every pair
    returns them all, in canonical order.
    """
    if not kind.pairwise:
        return list(range(g.n))
    if n_pairs >= g.n * (g.n - 1) // 2:
        return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    pairs = []
    seen = set()

    def take(u, v):
        if v >= u:
            v += 1
        unordered = (min(u, v), max(u, v))
        if unordered not in seen:
            seen.add(unordered)
            pairs.append((u, v))
        return len(pairs) == n_pairs

    if n_pairs > 0:
        draw_rows(derive_rng(seed, 0xA11), (g.n, g.n - 1), take)
    return pairs


@dataclass(frozen=True)
class Answers:
    """One graph's answers to one query over its units.

    values[i, j] is units[j]'s value in world i of stream (seed,), NaN where
    it is undefined; variances[j] is the run variance of units[j]'s point
    estimator over streams (seed, r), or None when no runs were drawn.
    """

    units: list
    values: np.ndarray
    variances: np.ndarray | None


def sample_answers(g: UncertainGraph, kind: QueryKind, units, n_samples: int, seed: int,
                   n_runs: int | None = None) -> Answers:
    """g's answers: worlds 0..n_samples-1 of stream (seed,), and n_runs runs if given."""
    units = validate_units(g, kind, units)
    values = next(_sampled_values(g, kind, units, n_samples, seed, [()]))
    variances = (None if n_runs is None
                 else variance_protocol(g, kind, units, n_samples, n_runs, seed))
    return Answers(units, values, variances)


def earth_movers_distance(xs, ys) -> float:
    """One-dimensional earth mover's distance between two samples; NaNs are ignored.

    The one-unit case of the column-wise transport cost eval scores with.
    """
    cost = _transport_costs(np.asarray(xs, dtype=float).reshape(-1, 1),
                            np.asarray(ys, dtype=float).reshape(-1, 1))[0]
    if math.isnan(cost):
        raise ValueError("cannot compare an empty distribution")
    return float(cost)


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


def _floyd_k_subset(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """Uniform k-subset of range(n) by Floyd's algorithm."""
    chosen = set()
    # one array-bound call gives the numbers of the scalar calls rng.integers(0, j + 1)
    picks = rng.integers(0, np.arange(n - k + 1, n + 1)).tolist()
    for j, t in zip(range(n - k, n), picks):
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def _crossing_mass(g: UncertainGraph, inside: np.ndarray) -> float:
    """Expected mass of g's edges with exactly one end in the vertex mask `inside`."""
    us, vs = g.endpoint_arrays
    ps = g.probabilities
    return float(ps[inside[us] ^ inside[vs]].sum()) if ps.size else 0.0


class CutProfile:
    """The sampled-cut metric: cuts of g drawn once, scoring any graph on g's vertices.

    For each k of a small ladder of cut cardinalities it holds n_cuts
    uniformly sampled k-subsets, as one (n_cuts, n) bool matrix, and g's cut
    mass at each.  Each k draws from its own derive_rng(seed) stream, and
    draws are independent, so a subset may repeat.  The subsets are drawn at
    the first score, so a sweep scores every sparsified graph against the
    same ones.
    """

    def __init__(self, g: UncertainGraph, n_cuts: int, seed: int):
        if n_cuts < 1:
            raise ValueError("n_cuts must be at least 1")
        self.g, self.n_cuts, self.seed = g, n_cuts, seed

    @cached_property
    def cuts(self) -> list[tuple[np.ndarray, list[float]]]:
        """(subset matrix, g's cut masses) for each k of the ladder, in ascending k."""
        n = self.g.n
        cuts = []
        for k in sorted({1, 2, max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n}):
            if not 1 <= k <= n:
                raise ValueError(f"k={k} out of range [1, {n}]")
            rng = derive_rng(self.seed)
            inside = np.zeros((self.n_cuts, n), dtype=bool)
            for row in inside:
                row[_floyd_k_subset(rng, n, k)] = True
            cuts.append((inside, [_crossing_mass(self.g, row) for row in inside]))
        return cuts

    def mae(self, out: UncertainGraph) -> float:
        """Mean over the ladder of the mean |cut mass of g - cut mass of out| over k's subsets."""
        if out.n != self.g.n:
            raise ValueError("graphs must share the same vertex set")
        maes = []
        for inside, masses in self.cuts:
            total = 0.0
            for row, mass in zip(inside, masses):
                total += abs(mass - _crossing_mass(out, row))
            maes.append(total / self.n_cuts)
        return float(np.mean(maes))


@dataclass
class EmdReport:
    """Entry j of each array belongs to units[j]: its distance, NaN where it was
    skipped for having no defined value on one graph (possible for shortest
    path), and its mean over its defined values on the first and the second
    graph, NaN where there are none."""

    units: list
    emd: np.ndarray
    mean_left: np.ndarray
    mean_right: np.ndarray

    def _over_scored(self, reduce) -> float:
        """reduce over the distances of the units not skipped; NaN if all were."""
        scored = self.emd[~np.isnan(self.emd)]
        return float(reduce(scored)) if len(scored) else math.nan

    mean = property(lambda self: self._over_scored(np.mean))
    median = property(lambda self: self._over_scored(np.median))
    max = property(lambda self: self._over_scored(np.max))


def emd_report(left: Answers, right: Answers) -> EmdReport:
    """Earth mover's distance of every unit between two graphs' answers, scored column-wise.

    Answers sampled from the same seed share their worlds' draws, so a graph
    scored against itself reports exactly zero.
    """
    if left.units != right.units:
        raise ValueError("the two answers are over different units")
    return EmdReport(left.units, _transport_costs(left.values, right.values),
                     _sorted_means(left.values), _sorted_means(right.values))


def variance_protocol(g: UncertainGraph, kind: QueryKind, units, n_samples: int,
                      n_runs: int = DEFAULT_N_RUNS, seed: int = 0) -> np.ndarray:
    """(U,) unbiased variance of each unit's MC point estimator over n_runs runs.

    Run r draws its worlds from the (seed, r, i)-derived generators; the
    variance uses the n_runs - 1 divisor.  Units with no defined estimate in
    some run (disconnected shortest-path pairs) get NaN.
    """
    if n_runs < 2:
        raise ValueError("variance needs at least 2 runs")
    units = validate_units(g, kind, units)
    runs = _sampled_values(g, kind, units, n_samples, seed, [(r,) for r in range(n_runs)])
    # (U, R): run r's point estimate of each unit, the mean of its defined values
    estimates = np.column_stack([_sorted_means(values) for values in runs])
    return np.var(estimates, axis=1, ddof=1)
