"""Backbone construction: pick which alpha*|E| edges survive sparsification.

A backbone is a (|E|,) bool mask over g's edge positions, in canonical order;
gdb, emd and lp take it as it is.  Two builders are provided.  The spanning
builder layers edge-disjoint maximum spanning forests (probabilities as
weights) until a spanning quota is met, then tops up by probability-weighted
random sampling; on a connected input the result is connected.  The random
builder uses probability-weighted sampling alone and gives no connectivity
guarantee.

Both work on whole edge arrays.  The edges are ranked once by (-p, u, v);
under that strict order the maximum spanning forest is unique, so Borůvka
rounds (every component takes its best crossing edge at once) give the
forest Kruskal would.  Each top-up pass is one vectorised comparison of a
vector of uniforms against the candidates' probabilities.
"""

from __future__ import annotations

from itertools import islice, tee
from typing import Iterable, Iterator

import numpy as np

from usparse.graph import UncertainGraph, derive_rng

# After this many fruitless full passes the top-up loop admits the most
# probable remaining edges deterministically instead of looping forever.
MAX_TOPUP_PASSES = 100


def target_edge_count(m: int, alpha: float) -> int:
    """round-half-to-even of alpha*m, the exact size every sparsifier must emit."""
    return int(round(alpha * m))


def _boruvka_forest(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Mask of the spanning forest that prefers earlier edges, by Borůvka rounds.

    Edge i outranks edge j when i < j.  With every rank distinct the forest
    is unique, so it is the one Kruskal takes in this order.  Each round
    finds every component's best crossing edge with one np.minimum.at,
    hooks each component onto the other end of that edge (of two components
    that pick the same edge, the smaller label stays a root), and jumps
    pointers until every vertex names its new root.
    """
    m = len(us)
    keep = np.zeros(m, dtype=bool)
    comp = np.arange(n)
    live = np.arange(m)
    while live.size:
        cu, cv = comp[us[live]], comp[vs[live]]
        crossing = cu != cv
        live, cu, cv = live[crossing], cu[crossing], cv[crossing]
        if not live.size:
            break
        best = np.full(n, m)
        np.minimum.at(best, cu, live)
        np.minimum.at(best, cv, live)
        roots = np.flatnonzero(best < m)
        edge = best[roots]
        keep[edge] = True
        a, b = comp[us[edge]], comp[vs[edge]]
        other = np.where(a == roots, b, a)
        parent = np.arange(n)
        parent[roots] = other
        mutual = (parent[other] == roots) & (roots < other)
        parent[roots[mutual]] = roots[mutual]
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
        comp = parent[comp]
    return keep


def iterated_spanning_forests(g: UncertainGraph) -> Iterator[np.ndarray]:
    """Edge-disjoint maximum spanning forests, peeled off the graph lazily.

    Each forest is an array of g's edge positions, in rank order (most
    probable first).  The edges are ranked once by (-p, u, v): g's edges
    ascend by (u, v), so a stable sort by -p gives that order.  Each forest
    is the Borůvka forest of the edges the earlier forests left.
    """
    order = np.argsort(-g.probabilities, kind="stable")
    us, vs = g.endpoint_arrays
    while order.size:
        keep = _boruvka_forest(g.n, us[order], vs[order])
        yield order[keep]
        order = order[~keep]


def _require_edges(g: UncertainGraph) -> None:
    if g.m == 0:
        raise ValueError("cannot sparsify an empty graph")


def default_alpha_prime(g: UncertainGraph, alpha: float, forests: Iterable | None = None) -> float:
    """Spanning quota: min of 0.5*alpha and the first six forests' edge fraction.

    Peels only as far as needed: once the forests so far cover 0.5*alpha of
    the edges, six would too.  `forests` lets a caller share its own peel.
    """
    _require_edges(g)
    half = 0.5 * alpha
    peeled = 0
    for forest in islice(iterated_spanning_forests(g) if forests is None else forests, 6):
        peeled += len(forest)
        if peeled / g.m >= half:
            break
    return min(half, peeled / g.m)


def _probability_topup(rng, g: UncertainGraph, free: np.ndarray, need: int) -> np.ndarray:
    """Admit `need` of the edges that the mask `free` marks by probability-weighted passes.

    Each pass draws one vector of uniforms over the remaining candidates in
    canonical order and admits the first candidates, up to `need`, whose
    uniform falls below their probability.  After MAX_TOPUP_PASSES
    empty-handed passes the most probable remaining edges are admitted
    outright, so the loop terminates even when all probabilities are tiny.
    Returns the admitted edges' positions in g, in admission order.
    """
    ps = g.probabilities
    pool = np.flatnonzero(free)
    admitted = [pool[:0]]
    got = 0
    passes_without_progress = 0
    while got < need:
        if not pool.size:
            raise ValueError("not enough candidate edges to reach the target size")
        hits = np.flatnonzero(rng.random(pool.size) < ps[pool])[: need - got]
        if hits.size:
            admitted.append(pool[hits])
            got += hits.size
            pool = np.delete(pool, hits)
            passes_without_progress = 0
        else:
            passes_without_progress += 1
            if passes_without_progress >= MAX_TOPUP_PASSES:
                # stable: equal probabilities stay in canonical order
                best = np.argsort(-ps[pool], kind="stable")[: need - got]
                admitted.append(pool[best])
                break
    return np.concatenate(admitted)


def check_backbone(g: UncertainGraph, backbone) -> None:
    """Refuse a backbone that is not a bool mask over g's edges."""
    if getattr(backbone, "dtype", None) != bool or np.shape(backbone) != (g.m,):
        raise ValueError(f"a backbone is a bool mask of shape ({g.m},) over the graph's edges")


def build_backbone(
    g: UncertainGraph,
    alpha: float,
    alpha_prime: float | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Spanning backbone with exactly round(alpha*|E|) edges, as a bool mask over g's edges.

    Phase one layers maximum spanning forests until a fraction alpha_prime of
    the edges is collected (|E| is always the original edge count).  Phase
    two admits the remaining edges by probability-weighted passes up to the
    target.  If a forest would push past the target, only its
    highest-probability edges are kept so the size contract still holds.
    """
    m = g.m
    _require_edges(g)
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
    chosen = np.zeros(m, dtype=bool)
    count = 0
    # The quota is compared as a fraction, the unit default_alpha_prime uses.
    while count / m < alpha_prime and count < target:
        forest = next(forests, None)
        if forest is None:
            break
        forest = forest[: target - count]
        chosen[forest] = True
        count += len(forest)

    chosen[_probability_topup(derive_rng(seed), g, ~chosen, target - count)] = True
    return chosen


def random_backbone(g: UncertainGraph, alpha: float, seed: int = 0) -> np.ndarray:
    """Probability-weighted random backbone mask; connectivity is not guaranteed."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    chosen = np.zeros(g.m, dtype=bool)
    chosen[_probability_topup(derive_rng(seed), g, ~chosen, target_edge_count(g.m, alpha))] = True
    return chosen
