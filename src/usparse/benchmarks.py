"""Deterministic-sparsification benchmarks adapted to uncertain graphs.

Two adaptations are provided.  The cut-based one (ni) maps probabilities to
integer weights, runs iterated contiguous spanning forests to estimate edge
connectivities, samples edges inversely to that estimate, and maps surviving
weights back to probabilities capped at 1.  Its forest rounds are single-edge
deletions from one maximum spanning forest, over edge positions.  The
spanner-based one (ss) maps probabilities to -log weights (one math.log per
edge) so light paths are probable paths, builds a randomized (2t-1)-spanner
by cluster sampling, and keeps original probabilities.  The spanner is built in synchronous
Baswana-Sen rounds over whole arc arrays: both directions of every edge,
ordered once by lightness (src, w, dst) and compacted as arcs drop.

ni rescales its epsilon until the sample is the largest one not above the
target; ss scans the stretch parameter t with a step that doubles whenever
the spanner does not shrink, keeps the smallest spanner and trims it if even
that one overshoots.  Both top the deficit up by probability-weighted
sampling, so they emit exactly round(alpha*|E|) edges.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from usparse.backbone import _boruvka_forest, _probability_topup, target_edge_count
from usparse.graph import UncertainGraph, derive_rng

MAX_CALIBRATION_STEPS = 100
DEFAULT_THETA = 1.1


class CalibrationError(RuntimeError):
    pass


def _topup_edges(g: UncertainGraph, taken: np.ndarray, need: int, seed: int) -> np.ndarray:
    """The mask `taken` plus the `need` edges outside it that the top-up
    admits from the (seed, 1) stream."""
    kept = taken.copy()
    kept[_probability_topup(derive_rng(seed, 1), g, ~taken, need)] = True
    return kept


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


# ---------------------------------------------------------------------------
# Cut-based benchmark
# ---------------------------------------------------------------------------


def to_ni_weights(g: UncertainGraph) -> list[int]:
    """The weight column: integer weights proportional to probabilities,
    round-half-up of p/p_min, as Python ints in edge order.

    The ratio is at least 1 by construction; the weight is floored at 1
    anyway, defensively.  A p = 0 edge, or a p_min so small that p / p_min
    overflows a float, is a ValueError.
    """
    if g.m == 0:
        raise ValueError("weight transform needs a nonempty edge set")
    p_min = float(g.probabilities.min())
    if p_min <= 0.0:
        raise ValueError("ni needs every edge probability above 0")
    if not math.isfinite(float(g.probabilities.max()) / p_min):
        raise ValueError(f"p_min = {p_min!r} is too small for ni: p / p_min overflows a float")
    return [max(1, _round_half_up(p / p_min)) for p in g.probabilities.tolist()]


def _smaller_side(adj: list, u: int, v: int) -> list:
    """Vertices of the smaller of the two trees holding u and v.

    A breadth-first search grows from both ends at once, one vertex at a
    time each, and the side that runs out first is returned, so the cost is
    about twice the smaller side.
    """
    sides = ([u], [v])
    heads = [0, 0]
    seen = {u, v}
    while True:
        for s in (0, 1):
            side = sides[s]
            if heads[s] == len(side):
                return side
            x = side[heads[s]]
            heads[s] += 1
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    side.append(y)


def contiguous_forest_rounds(n: int, us, vs, w) -> tuple[dict, dict]:
    """Join and death round per edge position under iterated contiguous spanning forests.

    Round r builds a spanning forest that must retain every still-alive edge
    of round r-1's forest (contiguity), extended maximally by descending
    residual weight with canonical tie-break.  Forest members lose one unit
    of weight per round; an edge dies when its residual hits zero.  So an
    edge that joins after round r0 with weight w dies at round r0 + w, and a
    free edge keeps its original weight and its rank (-w, u, v).  Each forest
    is held until its lightest member dies, which bounds the forests by m.

    Round r's forest is thus the maximum spanning forest under one strict
    order: alive forest edges first, then free edges by rank.  Deleting a
    forest edge and linking the best free edge across its cut gives the
    maximum spanning forest without it (Holm, de Lichtenberg & Thorup,
    J. ACM 2001), so a round's deaths, deleted one at a time in any order,
    leave the forest that the round's Kruskal pass builds.  Round 0's forest
    is the one that prefers lower ranks, from one Borůvka pass.
    Returns (position -> death round, position -> join round); the edge at
    position i is in the forests of rounds join[i] + 1 .. death[i].
    """
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    ul, vl = us.tolist(), vs.tolist()
    ranked = sorted(range(len(w)), key=lambda i: (-w[i], ul[i], vl[i]))
    ru, rv = [ul[i] for i in ranked], [vl[i] for i in ranked]
    in_forest = _boruvka_forest(n, us[ranked], vs[ranked])
    adj: list = [set() for _ in range(n)]
    free_at: list = [[] for _ in range(n)]  # ranks of the free edges at each vertex, ascending
    dying: list = []  # heap of (death round, rank) over the forest
    death: dict = {}  # position -> round, as exact ints
    join: dict = {}

    def link(k: int, r: int) -> None:
        adj[ru[k]].add(rv[k])
        adj[rv[k]].add(ru[k])
        join[ranked[k]] = r
        heapq.heappush(dying, (r + w[ranked[k]], k))

    for k in np.flatnonzero(~in_forest).tolist():
        free_at[ru[k]].append(k)
        free_at[rv[k]].append(k)
    for k in np.flatnonzero(in_forest).tolist():
        link(k, 0)
    while dying:
        r, k = heapq.heappop(dying)
        u, v = ru[k], rv[k]
        death[ranked[k]] = r
        adj[u].remove(v)
        adj[v].remove(u)
        side = _smaller_side(adj, u, v)
        inside = set(side)
        best = len(ranked)
        for x in side:
            for j in free_at[x]:  # the first crossing rank below best, if any
                if j >= best:
                    break
                if (rv[j] if ru[j] == x else ru[j]) not in inside:
                    best = j
                    break
        if best < len(ranked):
            free_at[ru[best]].remove(best)
            free_at[rv[best]].remove(best)
            link(best, r)
    return death, join


def forest_round_sampler(n: int, us, vs, w, seed: int):
    """Forest-round connectivity sampling, as a function of epsilon.

    Returns (count, sample).  sample(epsilon) keeps an edge dying at round r
    with probability min(ln n / (epsilon^2 r), 1) and inflates its weight by
    the inverse of that probability: it returns the bool mask of the kept
    edges, over the edge positions, and their inflated weights.
    count(epsilon) is the number kept, found by one array comparison.  The
    forest rounds run once, and the per-edge uniforms are drawn once from
    the seed in position order, so every epsilon reuses the same randomness
    and the output size is monotone in epsilon.  A death round too large for
    a float is a ValueError.
    """
    death, _ = contiguous_forest_rounds(n, us, vs, w)
    try:
        rounds = np.array([float(death[i]) for i in range(len(w))])
    except OverflowError:
        raise ValueError("death rounds overflow a float: p_min is too small for ni") from None
    weights = np.array([float(x) for x in w])  # w <= its death round
    uniforms = derive_rng(seed).random(len(w))
    log_n = math.log(n)

    def keep_probabilities(epsilon: float) -> np.ndarray:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        return np.minimum(log_n / (epsilon * epsilon * rounds), 1.0)

    def count(epsilon: float) -> int:
        return int(np.count_nonzero(uniforms < keep_probabilities(epsilon)))

    def sample(epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        keep_p = keep_probabilities(epsilon)
        kept = uniforms < keep_p
        return kept, weights[kept] / keep_p[kept]

    return count, sample


def ni_sparsify(
    g: UncertainGraph, alpha: float, theta: float = DEFAULT_THETA, seed: int = 0
) -> tuple[UncertainGraph, dict]:
    """Cut-based benchmark sparsifier with exactly round(alpha*|E|) edges.

    Starts from epsilon = sqrt(n log^2 n / (alpha |E|)) and rescales by theta
    until the sampled size is the closest one not exceeding the target, then
    converts weights back via p' = min(w' * p_min, 1) and tops up the deficit
    by probability-weighted sampling at original probabilities.  At alpha = 1 it returns g.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not theta > 1.0:
        raise ValueError("theta must exceed 1")
    if alpha == 1.0:
        return g, {"epsilon": None, "calibration_steps": 0, "core_edges": g.m, "topped_up": 0}
    m = g.m
    target = target_edge_count(m, alpha)
    w = to_ni_weights(g)
    p_min = float(g.probabilities.min())
    n = g.n
    us, vs = g.endpoint_arrays

    # Calibration is pure thresholding: one forest pass, one set of uniforms.
    count, sample = forest_round_sampler(n, us, vs, w, seed)
    epsilon = math.sqrt(n * math.log(n) ** 2 / (alpha * m))
    steps = 0
    size = count(epsilon)
    if size > target:
        while size > target:
            steps += 1
            if steps > MAX_CALIBRATION_STEPS:
                raise CalibrationError("epsilon calibration failed to come down to the target")
            epsilon *= theta
            size = count(epsilon)
    else:
        while steps <= MAX_CALIBRATION_STEPS:
            steps += 1
            trial_eps = epsilon / theta
            if count(trial_eps) > target:
                break
            epsilon = trial_eps
    core, inflated = sample(epsilon)
    probs = g.probabilities.copy()
    probs[core] = np.minimum(inflated * p_min, 1.0)
    core_edges = int(np.count_nonzero(core))
    deficit = target - core_edges
    kept = _topup_edges(g, core, deficit, seed)
    out = UncertainGraph.from_columns(n, us[kept], vs[kept], probs[kept])
    info = {
        "epsilon": epsilon,
        "calibration_steps": steps,
        "core_edges": core_edges,
        "topped_up": deficit,
    }
    return out, info


# ---------------------------------------------------------------------------
# Spanner-based benchmark
# ---------------------------------------------------------------------------


def to_ss_weights(g: UncertainGraph) -> np.ndarray:
    """The (|E|,) column of weights -ln p, one math.log per edge: the lightest
    path is the most probable one, and p = 1 weighs 0, legal for shortest paths.
    A p = 0 edge is a ValueError."""
    if not np.all(g.probabilities > 0.0):
        raise ValueError("ss needs every edge probability above 0")
    return np.array([-math.log(p) for p in g.probabilities.tolist()])


def ss_arcs(us, vs, w) -> tuple[np.ndarray, ...]:
    """Both directions of every edge in lightness order (src, w, dst), as
    the columns (src, dst, w, pos), pos being each arc's edge position."""
    m = len(w)
    src = np.concatenate((us, vs))
    dst = np.concatenate((vs, us))
    w = np.concatenate((w, w))
    order = np.lexsort((dst, w, src))
    return src[order], dst[order], w[order], order % m


def ss_core(n: int, us, vs, w, t: int, seed: int, arcs=None) -> np.ndarray:
    """(2t-1)-spanner by randomized cluster growth, as positions in the edge columns.

    Baswana-Sen in synchronous rounds over one arc array, ss_arcs(us, vs, w):
    both directions of every edge, in lightness order, with their edge
    positions.  `arcs` is that array, built here when the caller does not
    hold it; ss_sparsify builds it once for all its spanners.  Each of the
    t-1 rounds reads only the arcs and clusters it started with.
    It samples the live clusters with probability n^(-1/t), one uniform per
    cluster id in ascending order.  A vertex in an unsampled cluster takes
    the lightest arc to each adjacent cluster.  If some such cluster is
    sampled, the vertex joins the sampled one with the smallest (w, dst) and
    keeps that arc and the arc to every strictly lighter cluster; otherwise
    it keeps every arc taken and retires.  At the round's end every arc
    between a vertex and a cluster it kept an arc to is dropped in both
    directions, and the arcs are compacted, so none is left at a retired
    vertex.  A final pass keeps every vertex's lightest arc to each adjacent
    cluster.  t=1 must preserve all distances exactly, so it keeps every
    edge.  Returns the kept edge positions, ascending.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    m = len(w)
    if t == 1:
        return np.arange(m)
    src, dst, w, pos = ss_arcs(us, vs, w) if arcs is None else arcs
    rng = derive_rng(seed)
    sample_p = n ** (-1.0 / t)
    cluster = np.arange(n)
    ids = np.arange(n)
    alive = np.ones(m, dtype=bool)
    kept = []
    for _ in range(t - 1):
        if not src.size:
            break
        ids = ids[rng.random(ids.size) < sample_p]
        sampled = np.zeros(n, dtype=bool)
        sampled[ids] = True
        arcs = np.flatnonzero(~sampled[cluster[src]])  # a retired vertex has no arcs left
        if not arcs.size:
            continue
        a_src, a_pos, a_w = src[arcs], pos[arcs], w[arcs]
        a_c = cluster[dst[arcs]]
        # np.unique's return_index finds first occurrences: the lightest arcs
        join = np.flatnonzero(sampled[a_c])
        join = join[np.unique(a_src[join], return_index=True)[1]]
        joiner, joined = a_src[join], a_c[join]
        w_join = np.full(n, np.inf)
        w_join[joiner] = a_w[join]
        c_join = np.full(n, -1)
        c_join[joiner] = joined
        _, first, bucket = np.unique(a_src * n + a_c, return_index=True, return_inverse=True)
        keep = (a_w[first] < w_join[a_src[first]]) | (a_c[first] == c_join[a_src[first]])
        kept.append(a_pos[first[keep]])
        alive[a_pos[keep[bucket]]] = False
        cluster[joiner] = joined
        live = alive[pos]
        src, dst, w, pos = src[live], dst[live], w[live], pos[live]
    kept.append(pos[np.unique(src * n + cluster[dst], return_index=True)[1]])
    return np.unique(np.concatenate(kept))


def _solve_stretch_parameter(n: int, target: float) -> int:
    """Smallest integer t with expected spanner size t*n^(1+1/t) <= target,
    or the minimizing t when no integer satisfies the bound."""
    t_max = 200
    best_t, best_val = 1, math.inf
    for t in range(1, t_max + 1):
        val = t * n ** (1.0 + 1.0 / t)
        if val <= target:
            return t
        if val < best_val:
            best_t, best_val = t, val
    return best_t


def ss_sparsify(g: UncertainGraph, alpha: float, seed: int = 0) -> tuple[UncertainGraph, dict]:
    """Spanner-based benchmark sparsifier with exactly round(alpha*|E|) edges.

    Retained edges keep their original probabilities (no redistribution).
    The scan starts at the t0 solved from t*n^(1+1/t) = alpha*|E| with step 1
    and moves to min(t + step, t0 + MAX_CALIBRATION_STEPS); the step doubles
    after every spanner that is not strictly smaller than the smallest so far,
    so while the spanner keeps shrinking t walks up by 1.  It stops at the
    first spanner that fits or after trying t0 + MAX_CALIBRATION_STEPS, and
    keeps the smallest spanner (the lowest t among equal sizes).  An overshoot
    is trimmed deterministically, dropping the least probable edges outside a
    maximum spanning forest of the spanner first.  info["t"] is the kept
    spanner's t and info["spanner_edges"] its size before trimming.
    """
    if alpha == 1.0:
        return g, {"t": 1, "attempts": 0, "spanner_edges": g.m, "topped_up": 0, "trimmed": 0}
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1]")
    m = g.m
    target = target_edge_count(m, alpha)
    us, vs = g.endpoint_arrays
    w = to_ss_weights(g)
    t = _solve_stretch_parameter(g.n, alpha * m)
    t_last = t + MAX_CALIBRATION_STEPS
    step, attempts = 1, 0
    best_t = t
    arcs = ss_arcs(us, vs, w)
    spanner = ss_core(g.n, us, vs, w, t, seed, arcs)
    while len(spanner) > target and t < t_last:
        attempts += 1
        t = min(t + step, t_last)
        trial = ss_core(g.n, us, vs, w, t, seed, arcs)
        if len(trial) < len(spanner):
            best_t, spanner = t, trial
        else:
            step *= 2
    spanner_edges = len(spanner)
    chosen = np.zeros(m, dtype=bool)
    chosen[spanner] = True
    ps = g.probabilities
    trimmed = max(spanner_edges - target, 0)
    if trimmed:
        # Least probable first, outside the forest before in it, ties in (u, v) order.
        ranked = spanner[np.argsort(-ps[spanner], kind="stable")]
        in_forest = np.zeros(m, dtype=bool)
        in_forest[ranked[_boruvka_forest(g.n, us[ranked], vs[ranked])]] = True
        chosen[spanner[np.lexsort((ps[spanner], in_forest[spanner]))[:trimmed]]] = False
    deficit = max(target - spanner_edges, 0)
    kept = _topup_edges(g, chosen, deficit, seed)
    out = UncertainGraph.from_columns(g.n, us[kept], vs[kept], ps[kept])
    info = {
        "t": best_t,
        "attempts": attempts,
        "spanner_edges": spanner_edges,
        "topped_up": deficit,
        "trimmed": trimmed,
    }
    return out, info
