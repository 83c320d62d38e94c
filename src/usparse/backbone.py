"""Backbone construction: pick which alpha*|E| edges survive sparsification.

Two builders are provided.  The spanning builder layers edge-disjoint maximum
spanning forests (probabilities as weights) until a spanning quota is met,
then tops up by probability-weighted random sampling; on a connected input
the result is connected.  The random builder uses probability-weighted
sampling alone and gives no connectivity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, tee
from typing import Iterable, Iterator

from usparse.graph import UncertainGraph, UnionFind, derive_rng

# After this many fruitless full passes the top-up loop admits the most
# probable remaining edges deterministically instead of looping forever.
MAX_TOPUP_PASSES = 100


@dataclass(frozen=True)
class BackboneGraph:
    """Unweighted edge subset chosen to survive sparsification."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    source: str  # "spanning" or "random"

    @property
    def m(self) -> int:
        return len(self.edges)


def target_edge_count(m: int, alpha: float) -> int:
    """round-half-to-even of alpha*m, the exact size every sparsifier must emit."""
    return int(round(alpha * m))


def max_spanning_forest(
    n: int, weighted_edges: Iterable[tuple[int, int, float]]
) -> list[tuple[int, int]]:
    """Maximum-weight spanning forest by Kruskal.

    Order: descending weight, ties broken by canonical (u, v) so the result
    is deterministic.  Works on disconnected inputs (returns a forest).
    """
    ordered = sorted(weighted_edges, key=lambda e: (-e[2], e[0], e[1]))
    uf = UnionFind(n)
    forest = []
    for u, v, _ in ordered:
        if uf.union(u, v):
            forest.append((u, v))
    return forest


def iterated_spanning_forests(g: UncertainGraph) -> Iterator[list[tuple[int, int]]]:
    """Edge-disjoint maximum spanning forests, peeled off the graph lazily."""
    remaining = {(u, v): p for u, v, p in g.edges}
    while remaining:
        forest = max_spanning_forest(g.n, [(u, v, p) for (u, v), p in remaining.items()])
        yield forest
        for e in forest:
            del remaining[e]


def default_alpha_prime(
    g: UncertainGraph, alpha: float, forests: Iterable[list[tuple[int, int]]] | None = None
) -> float:
    """Spanning quota: min of 0.5*alpha and the first six forests' edge fraction.

    Peels only as far as needed: once the forests so far cover 0.5*alpha of
    the edges, six would too.  `forests` lets a caller share its own peel.
    """
    half = 0.5 * alpha
    peeled = 0
    for forest in islice(iterated_spanning_forests(g) if forests is None else forests, 6):
        peeled += len(forest)
        if peeled / g.m >= half:
            break
    return min(half, peeled / g.m)


def _probability_topup(rng, candidates: list[tuple[tuple[int, int], float]], need: int):
    """Admit `need` edges by repeated probability-weighted passes.

    Each pass visits the remaining candidates in canonical order and admits
    each with its own probability.  After MAX_TOPUP_PASSES empty-handed
    passes the most probable remaining edges are admitted outright, so the
    loop terminates even when all probabilities are tiny.
    """
    admitted = []
    pool = sorted(candidates, key=lambda c: c[0])
    passes_without_progress = 0
    while len(admitted) < need:
        if not pool:
            raise ValueError("not enough candidate edges to reach the target size")
        progressed = False
        kept = []
        for edge, p in pool:
            if len(admitted) < need and rng.random() < p:
                admitted.append(edge)
                progressed = True
            else:
                kept.append((edge, p))
        pool = kept
        if progressed:
            passes_without_progress = 0
        else:
            passes_without_progress += 1
            if passes_without_progress >= MAX_TOPUP_PASSES:
                pool.sort(key=lambda c: (-c[1], c[0]))
                take = need - len(admitted)
                admitted.extend(edge for edge, _ in pool[:take])
                break
    return admitted


def build_backbone(
    g: UncertainGraph,
    alpha: float,
    alpha_prime: float | None = None,
    seed: int = 0,
) -> BackboneGraph:
    """Spanning backbone with exactly round(alpha*|E|) edges.

    Phase one layers maximum spanning forests until alpha_prime*|E| edges are
    collected (|E| is always the original edge count).  Phase two admits the
    remaining edges by probability-weighted passes up to the target.  If a
    forest would push past the target, only its highest-probability edges are
    kept so the size contract still holds.
    """
    m = g.m
    if m == 0:
        raise ValueError("cannot sparsify an empty graph")
    floor = (g.n - 1) / m
    if alpha < floor:
        raise ValueError(
            f"alpha={alpha} is below the connectivity floor (n-1)/|E| = {floor:.6g}; "
            "a spanning backbone cannot preserve connectivity below it"
        )
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    forests = iterated_spanning_forests(g)
    if alpha_prime is None:
        forests, peel = tee(forests)
        alpha_prime = default_alpha_prime(g, alpha, peel)
    if alpha_prime > alpha:
        raise ValueError(f"alpha_prime={alpha_prime} exceeds alpha={alpha}")

    target = target_edge_count(m, alpha)
    quota = alpha_prime * m
    probs = {(u, v): p for u, v, p in g.edges}
    chosen: list[tuple[int, int]] = []
    remaining = dict(probs)

    while len(chosen) < quota and len(chosen) < target:
        forest = next(forests, None)
        if forest is None:
            break
        room = target - len(chosen)
        if len(forest) > room:
            forest = sorted(forest, key=lambda e: (-probs[e], e))[:room]
        chosen.extend(forest)
        for e in forest:
            del remaining[e]

    need = target - len(chosen)
    if need > 0:
        rng = derive_rng(seed)
        chosen.extend(_probability_topup(rng, list(remaining.items()), need))
    return BackboneGraph(g.n, tuple(sorted(chosen)), source="spanning")


def random_backbone(g: UncertainGraph, alpha: float, seed: int = 0) -> BackboneGraph:
    """Probability-weighted random backbone; connectivity is not guaranteed."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    target = target_edge_count(g.m, alpha)
    rng = derive_rng(seed)
    chosen = _probability_topup(rng, [((u, v), p) for u, v, p in g.edges], target)
    return BackboneGraph(g.n, tuple(sorted(chosen)), source="random")
