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


def spanning_forest(n: int, ordered_pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Kruskal over a fixed edge order: keep each edge that joins two components.

    Stops once one component is left, since no later edge can join two.
    """
    uf = UnionFind(n)
    forest = []
    for e in ordered_pairs:
        if uf.union(*e):
            forest.append(e)
            if uf.components == 1:
                break
    return forest


def max_spanning_forest(
    n: int, weighted_edges: Iterable[tuple[int, int, float]]
) -> list[tuple[int, int]]:
    """Maximum-weight spanning forest by Kruskal.

    Order: descending weight, ties broken by canonical (u, v) so the result
    is deterministic.  Works on disconnected inputs (returns a forest).
    """
    ordered = sorted(weighted_edges, key=lambda e: (-e[2], e[0], e[1]))
    return spanning_forest(n, [(u, v) for u, v, _ in ordered])


def iterated_spanning_forests(g: UncertainGraph) -> Iterator[list[tuple[int, int]]]:
    """Edge-disjoint maximum spanning forests, peeled off the graph lazily.

    The edges are sorted once; the survivors of each peel keep that order,
    so every forest is one Kruskal pass and comes out most probable first.
    """
    remaining = [(u, v) for u, v, _ in sorted(g.edges, key=lambda e: (-e[2], e[0], e[1]))]
    while remaining:
        forest = spanning_forest(g.n, remaining)
        yield forest
        taken = set(forest)
        remaining = [e for e in remaining if e not in taken]


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


def _probability_topup(rng, g: UncertainGraph, taken, need: int) -> list[tuple[int, int, float]]:
    """Admit `need` edges of g outside `taken` by probability-weighted passes.

    Each pass visits the remaining candidates in canonical order and admits
    each with its own probability; one vector of uniforms is drawn per pass.
    After MAX_TOPUP_PASSES empty-handed passes the most probable remaining
    edges are admitted outright, so the loop terminates even when all
    probabilities are tiny.  Returns the admitted (u, v, p) triples.
    """
    admitted = []
    pool = [e for e in g.edges if (e[0], e[1]) not in taken]
    passes_without_progress = 0
    while len(admitted) < need:
        if not pool:
            raise ValueError("not enough candidate edges to reach the target size")
        kept = []
        before = len(admitted)
        for e, r in zip(pool, rng.random(len(pool)).tolist()):
            if len(admitted) < need and r < e[2]:
                admitted.append(e)
            else:
                kept.append(e)
        pool = kept
        if len(admitted) > before:
            passes_without_progress = 0
        else:
            passes_without_progress += 1
            if passes_without_progress >= MAX_TOPUP_PASSES:
                pool.sort(key=lambda e: (-e[2], e[0], e[1]))
                admitted.extend(pool[: need - len(admitted)])
                break
    return admitted


def build_backbone(
    g: UncertainGraph,
    alpha: float,
    alpha_prime: float | None = None,
    seed: int = 0,
) -> BackboneGraph:
    """Spanning backbone with exactly round(alpha*|E|) edges.

    Phase one layers maximum spanning forests until a fraction alpha_prime of
    the edges is collected (|E| is always the original edge count).  Phase
    two admits the remaining edges by probability-weighted passes up to the
    target.  If a forest would push past the target, only its
    highest-probability edges are kept so the size contract still holds.
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
    chosen: list[tuple[int, int]] = []
    # The quota is compared as a fraction, the unit default_alpha_prime uses.
    while len(chosen) / m < alpha_prime and len(chosen) < target:
        forest = next(forests, None)
        if forest is None:
            break
        chosen.extend(forest[: target - len(chosen)])

    topup = _probability_topup(derive_rng(seed), g, set(chosen), target - len(chosen))
    chosen.extend((u, v) for u, v, _ in topup)
    return BackboneGraph(g.n, tuple(sorted(chosen)), source="spanning")


def random_backbone(g: UncertainGraph, alpha: float, seed: int = 0) -> BackboneGraph:
    """Probability-weighted random backbone; connectivity is not guaranteed."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    target = target_edge_count(g.m, alpha)
    chosen = _probability_topup(derive_rng(seed), g, set(), target)
    return BackboneGraph(g.n, tuple(sorted((u, v) for u, v, _ in chosen)), source="random")
