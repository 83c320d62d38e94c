"""Uncertain graph data model.

An uncertain graph is an undirected simple graph whose edges carry an
existence probability in (0, 1].  It denotes a distribution over the
2^|E| deterministic graphs ("possible worlds") obtained by materializing
each edge independently.  This module holds the graph type, possible-world
sampling, the exact enumeration oracle for tiny graphs, entropy / expected
degree / expected cut accounting, and a synthetic generator.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from typing import Callable, Iterable

import numpy as np

# Hard cap for exact possible-world enumeration (2^|E| worlds).
MAX_EXACT_EDGES = 25

_LN2 = math.log(2.0)


class GraphFormatError(ValueError):
    """Malformed edge-list input (bad syntax or violated graph invariant)."""


class DiscrepancyMode(Enum):
    """How cut-size discrepancies are measured: raw difference or normalized."""

    ABSOLUTE = "abs"
    RELATIVE = "rel"


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator derived from a 64-bit master seed plus a key path.

    Sub-streams keyed this way are independent of each other and of worker
    count, so e.g. sample index i always sees the same world regardless of
    how samples are distributed over workers.
    """
    return np.random.default_rng([int(seed)] + [int(k) for k in key])


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    __slots__ = ("parent", "size", "components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


class UncertainGraph:
    """Undirected simple graph with per-edge existence probabilities.

    Edges are stored canonically as (u, v, p) with u < v, sorted ascending,
    which fixes a deterministic edge order used throughout the package.
    Instances are immutable after construction and safe to share across
    threads for reading.
    """

    __slots__ = ("n", "edges", "_us", "_vs", "_ps", "_adj", "_degrees", "_pairs")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, float]],
        allow_zero: bool = False,
    ):
        """Validate and canonicalize. `allow_zero` admits p = 0 (sparsified outputs)."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = int(n)
        canon = []
        seen = set()
        lo = 0.0 if allow_zero else None
        for u, v, p in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"vertex id out of range: ({u}, {v}) with n={self.n}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            p = float(p)
            ok = (0.0 <= p <= 1.0) if allow_zero else (0.0 < p <= 1.0)
            if not ok:
                rng_txt = "[0,1]" if allow_zero else "(0,1]"
                raise ValueError(f"probability {p} of edge ({u}, {v}) outside {rng_txt}")
            canon.append((u, v, p))
        canon.sort(key=lambda e: (e[0], e[1]))
        self.edges = tuple(canon)
        self._us = None
        self._vs = None
        self._ps = None
        self._adj = None
        self._degrees = None
        self._pairs = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def _arrays(self):
        if self._ps is None:
            if self.edges:
                us, vs, ps = zip(*self.edges)
            else:
                us, vs, ps = (), (), ()
            self._us = np.asarray(us, dtype=np.int64)
            self._vs = np.asarray(vs, dtype=np.int64)
            self._ps = np.asarray(ps, dtype=np.float64)
        return self._us, self._vs, self._ps

    @property
    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        us, vs, _ = self._arrays()
        return us, vs

    @property
    def probabilities(self) -> np.ndarray:
        return self._arrays()[2]

    @property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        if self._pairs is None:
            self._pairs = tuple((u, v) for u, v, _ in self.edges)
        return self._pairs

    def neighbors(self, u: int) -> list[tuple[int, int]]:
        """(neighbor, edge index) pairs for vertex u."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for i, (a, b, _) in enumerate(self.edges):
                adj[a].append((b, i))
                adj[b].append((a, i))
            self._adj = adj
        return self._adj[u]

    def degree_vector(self) -> np.ndarray:
        """Expected degree of every vertex (sum of incident probabilities)."""
        if self._degrees is None:
            us, vs, ps = self._arrays()
            d = np.zeros(self.n)
            np.add.at(d, us, ps)
            np.add.at(d, vs, ps)
            self._degrees = d
        return self._degrees

    def __repr__(self):
        return f"UncertainGraph(n={self.n}, m={self.m})"


class DeterministicWorld:
    """One possible world: the subset of edges that materialized."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = int(n)
        self.edges = tuple(edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def component_labels(self) -> list[int]:
        """Connected-component label per vertex (root of a union-find forest)."""
        uf = UnionFind(self.n)
        for u, v in self.edges:
            uf.union(u, v)
        return [uf.find(x) for x in range(self.n)]

    def is_connected(self) -> bool:
        return len(set(self.component_labels())) <= 1

    def reachable(self, source: int, target: int) -> bool:
        labels = self.component_labels()
        return labels[source] == labels[target]

    def hop_distances(self, source: int) -> list[float]:
        """BFS hop counts from source; unreachable vertices get math.inf.

        Evaluation runs its own batched search and never calls this; it stays
        because perfbench's traced runs wrap this method by name.
        """
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        dist = [math.inf] * self.n
        dist[source] = 0
        q = deque([source])
        while q:
            x = q.popleft()
            dx = dist[x] + 1
            for y in adj[x]:
                if dist[y] == math.inf:
                    dist[y] = dx
                    q.append(y)
        return dist


# ---------------------------------------------------------------------------
# Entropy, degrees, cuts, discrepancies
# ---------------------------------------------------------------------------


def edge_entropy(p: float) -> float:
    """Bernoulli entropy of one edge, in bits, with 0*log(0) := 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0,1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def graph_entropy(g: UncertainGraph) -> float:
    """Total entropy of the graph: sum of per-edge Bernoulli entropies (bits)."""
    ps = g.probabilities
    if ps.size == 0:
        return 0.0
    inner = ps[(ps > 0.0) & (ps < 1.0)]
    q = 1.0 - inner
    return float(-(np.sum(inner * np.log2(inner)) + np.sum(q * np.log2(q)))) + 0.0


def expected_cut_size(g: UncertainGraph, members: Iterable[int]) -> float:
    """Sum of probabilities of edges with exactly one endpoint in the set."""
    inside = np.zeros(g.n, dtype=bool)
    for u in members:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} out of range for n={g.n}")
        inside[u] = True
    if g.m == 0:
        return 0.0
    us, vs = g.endpoint_arrays
    crossing = inside[us] ^ inside[vs]
    return float(g.probabilities[crossing].sum())


def sample_k_subset(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """Uniform k-subset of range(n) by Floyd's algorithm."""
    chosen = set()
    for j in range(n - k, n):
        t = int(rng.integers(0, j + 1))
        if t in chosen:
            chosen.add(j)
        else:
            chosen.add(t)
    return sorted(chosen)


def sampled_k_discrepancy_mae(
    g: UncertainGraph,
    g2: UncertainGraph,
    k: int,
    n_cuts: int,
    seed: int,
) -> float:
    """Mean |absolute discrepancy| over n_cuts uniformly sampled k-subsets.

    Draws are independent, so duplicate subsets may occur; the result is
    deterministic given the seed.
    """
    if g.n != g2.n:
        raise ValueError("graphs must share the same vertex set")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range [1, {g.n}]")
    if n_cuts < 1:
        raise ValueError("n_cuts must be at least 1")
    rng = derive_rng(seed)
    us1, vs1 = g.endpoint_arrays
    ps1 = g.probabilities
    us2, vs2 = g2.endpoint_arrays
    ps2 = g2.probabilities
    total = 0.0
    inside = np.zeros(g.n, dtype=bool)
    for _ in range(n_cuts):
        subset = sample_k_subset(rng, g.n, k)
        inside[subset] = True
        c1 = ps1[inside[us1] ^ inside[vs1]].sum() if ps1.size else 0.0
        c2 = ps2[inside[us2] ^ inside[vs2]].sum() if ps2.size else 0.0
        total += abs(float(c1) - float(c2))
        inside[subset] = False
    return total / n_cuts


# ---------------------------------------------------------------------------
# Possible worlds: sampling and exact enumeration
# ---------------------------------------------------------------------------


def sample_world(g: UncertainGraph, rng: np.random.Generator) -> np.ndarray:
    """Edge mask of one possible world: edge e materializes when rng's e-th
    uniform falls below its probability."""
    return rng.random(g.m) < g.probabilities


def _world_from_mask(g: UncertainGraph, mask: int) -> DeterministicWorld:
    return DeterministicWorld(g.n, [e for i, e in enumerate(g.edge_pairs) if mask >> i & 1])


def exact_query_probability(
    g: UncertainGraph, predicate: Callable[[DeterministicWorld], bool]
) -> float:
    """Exact probability of a world predicate by full enumeration.

    Sums Pr(world) over all 2^|E| worlds satisfying the predicate; guarded by
    MAX_EXACT_EDGES because the cost is exponential in |E|.
    """
    m = g.m
    if m > MAX_EXACT_EDGES:
        raise ValueError(f"exact enumeration limited to {MAX_EXACT_EDGES} edges, got {m}")
    ps = [p for _, _, p in g.edges]
    qs = [1.0 - p for p in ps]
    total = 0.0
    comp = 0.0  # Neumaier compensation
    for mask in range(1 << m):
        prob = 1.0
        for i in range(m):
            prob *= ps[i] if mask >> i & 1 else qs[i]
        if predicate(_world_from_mask(g, mask)):
            t = total + prob
            if abs(total) >= abs(prob):
                comp += (total - t) + prob
            else:
                comp += (prob - t) + total
            total = t
    return total + comp


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


def uniform_probability_sampler(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform probabilities on (0, 1]."""
    return 1.0 - rng.random(size)


def generate_synthetic(
    n: int,
    target_density: float,
    prob_sampler: Callable[[np.random.Generator, int], np.ndarray] = uniform_probability_sampler,
    seed: int = 0,
) -> UncertainGraph:
    """Random connected uncertain graph at a target edge density.

    Starts from a random spanning tree, then adds uniformly random distinct
    vertex pairs until ceil(target_density * n(n-1)/2) edges exist.  Edge
    probabilities are drawn from prob_sampler, so the deterministic structure
    is connected by construction.
    """
    if not 0.0 < target_density <= 1.0:
        raise ValueError("target_density must be in (0, 1]")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    max_edges = n * (n - 1) // 2
    m = math.ceil(target_density * max_edges)
    if m < n - 1:
        raise ValueError(
            f"density {target_density} gives {m} edges, below the {n - 1} needed for connectivity"
        )
    rng = derive_rng(seed)
    order = rng.permutation(n)
    pairs = []
    chosen = set()
    for i in range(1, n):
        a = int(order[i])
        b = int(order[int(rng.integers(0, i))])
        key = (a, b) if a < b else (b, a)
        pairs.append(key)
        chosen.add(key)
    if m > max_edges // 2:
        # Dense target: enumerate the complement and take a shuffled prefix.
        rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in chosen]
        rng.shuffle(rest)
        pairs.extend(rest[: m - len(pairs)])
    else:
        while len(pairs) < m:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in chosen:
                continue
            chosen.add(key)
            pairs.append(key)
    probs = np.asarray(prob_sampler(rng, m), dtype=np.float64)
    if probs.shape != (m,) or np.any(probs <= 0.0) or np.any(probs > 1.0):
        raise ValueError("prob_sampler must return probabilities in (0, 1]")
    return UncertainGraph(n, [(u, v, float(p)) for (u, v), p in zip(pairs, probs)])


# ---------------------------------------------------------------------------
# Edge-list file format
# ---------------------------------------------------------------------------


def load_graph(path, allow_zero: bool = False) -> UncertainGraph:
    """Read an edge-list file: optional '# n=<int>' header, then 'u v p' lines.

    '#' starts a comment.  Probabilities must lie in (0,1]; pass
    allow_zero=True for sparsified outputs, where p=0 marks a structurally
    retained edge with no remaining mass.
    """
    header_n = None
    edges = []
    max_id = -1
    saw_edge = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            data, _, comment = raw.partition("#")
            if not saw_edge and header_n is None and not data.strip():
                token = comment.strip()
                if token.startswith("n="):
                    try:
                        header_n = int(token[2:].strip())
                    except ValueError:
                        raise GraphFormatError(f"{path}: line {lineno}: bad header {token!r}")
            fields = data.split()
            if not fields:
                continue
            if len(fields) != 3:
                raise GraphFormatError(
                    f"{path}: line {lineno}: expected 'u v p', got {data.strip()!r}"
                )
            try:
                u, v, p = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError:
                raise GraphFormatError(f"{path}: line {lineno}: could not parse {data.strip()!r}")
            if u < 0 or v < 0:
                raise GraphFormatError(f"{path}: line {lineno}: negative vertex id")
            saw_edge = True
            max_id = max(max_id, u, v)
            edges.append((lineno, u, v, p))
    n = header_n if header_n is not None else max_id + 1
    try:
        return UncertainGraph(n, [(u, v, p) for _, u, v, p in edges], allow_zero=allow_zero)
    except ValueError as exc:
        if not edges:
            raise GraphFormatError(f"{path}: {exc}") from exc
        # Validation runs in input order, so a prefix fails exactly when it
        # holds the first bad edge: bisect for the shortest failing prefix.
        lo, hi = 0, len(edges)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                UncertainGraph(n, [(u, v, p) for _, u, v, p in edges[:mid]], allow_zero=allow_zero)
                lo = mid
            except ValueError:
                hi = mid
        raise GraphFormatError(f"{path}: line {edges[hi - 1][0]}: {exc}") from exc


def save_graph(g: UncertainGraph, path) -> None:
    """Write the canonical edge-list representation with an n= header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n")
        for u, v, p in g.edges:
            fh.write(f"{u} {v} {p!r}\n")
