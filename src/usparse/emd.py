"""Expectation-maximization sparsifier: alternate edge swaps with descent.

The swap phase walks the backbone; each edge is taken out, the vertex with
the worst discrepancy is looked up in a max-heap, and the best-gain edge
among that vertex's excluded neighbors (or the removed edge itself at its
prior probability) takes the freed slot.  The descent phase then re-optimizes
probabilities on the new backbone.  Both phases share one SparsifierState;
the swap phase takes list copies of its arrays for the pass, keeps the
probabilities, the backbone mask and the discrepancies in step inline, and
writes them back at its end.  Only degree discrepancies are supported; the
gain of an edge against all k-cuts would need exponential enumeration.

Most swap steps need no per-candidate arithmetic.  A candidate whose two
endpoint discrepancies are both at least 1 saturates at probability 1, where
its gain is the top vertex's term at 1 plus a term of its other endpoint
alone.  The swap phase caches that term per vertex (+inf where the
discrepancy is below 1) and takes each step's best candidate as one C-level
max over the cached terms of the top vertex's excluded neighbors, gathered by
per-vertex itemgetters built once per run.  Steps with an unsaturated
endpoint fall back to scoring every candidate.
"""

from __future__ import annotations

import heapq
import math
from itertools import compress
from operator import itemgetter

import numpy as np

from usparse.gdb import (
    DEFAULT_H,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TAU_FRACTION,
    Rule,
    SparsifierState,
    degree_norms,
    degree_objective,
    descend,
)
from usparse.graph import DiscrepancyMode, UncertainGraph

DEFAULT_MAX_ITERS = 50


class VertexHeap:
    """Max-heap of vertices keyed by |discrepancy|, with lazy invalidation.

    update() pushes a fresh entry stamped with a per-vertex version; stale
    entries are discarded when they surface.  Ties break toward the smaller
    vertex id, keeping the traversal deterministic.
    """

    __slots__ = ("_heap", "_version")

    def __init__(self, keys):
        self._version = [0] * len(keys)
        self._heap = [(-abs(k), u, 0) for u, k in enumerate(keys)]
        heapq.heapify(self._heap)

    def update(self, u: int, key: float) -> None:
        self._version[u] += 1
        heapq.heappush(self._heap, (-abs(key), u, self._version[u]))

    def top(self) -> int:
        heap = self._heap
        while heap and heap[0][2] != self._version[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            raise IndexError("heap is empty")
        return heap[0][1]


def gain_value(
    delta_u: float,
    delta_v: float,
    candidate_p: float,
    sq_norm_u: float = 1.0,
    sq_norm_v: float = 1.0,
) -> float:
    """Objective improvement from inserting an edge at candidate_p.

    delta_u and delta_v are the endpoint discrepancies with the edge absent;
    inserting mass w shrinks both by w, improving the squared objective by
    (delta^2 - (delta - w)^2) / norm^2 per endpoint, where sq_norm is the
    square of the endpoint's degree_norms entry (1 in absolute mode).
    """
    w = candidate_p
    gain_u = (delta_u**2 - (delta_u - w) ** 2) / sq_norm_u
    gain_v = (delta_v**2 - (delta_v - w) ** 2) / sq_norm_v
    return gain_u + gain_v


def _tuple_getter(ids: list[int]):
    """itemgetter(*ids), except that it returns a tuple for any number of ids."""
    if len(ids) > 1:
        return itemgetter(*ids)
    if ids:
        (i,) = ids
        return lambda seq: (seq[i],)
    return lambda seq: ()


def neighbor_gathers(g: UncertainGraph) -> list[tuple]:
    """Per vertex t, two getters over g.neighbors(t), in its order.

    The first maps a per-vertex list to its entries at t's neighbors, the
    second a per-edge list to its entries at t's edges; both return tuples.
    """
    return [
        (_tuple_getter([x for x, _ in pairs]), _tuple_getter([eidx for _, eidx in pairs]))
        for pairs in map(g.neighbors, range(g.n))
    ]


def e_phase(
    state: SparsifierState,
    h: float,
    mode: DiscrepancyMode = DiscrepancyMode.ABSOLUTE,
    gathers: list[tuple] | None = None,
) -> int:
    """One swap pass over the backbone; returns the number of actual swaps.

    For each backbone edge e in canonical order: remove it, read the top
    vertex off the heap, and insert the maximum-gain edge among the excluded
    edges incident to that vertex plus e itself at its prior probability.
    Gains tie toward keeping e, then toward the canonically smallest edge.
    The backbone size is invariant across every step.  `gathers` is
    neighbor_gathers(state.g), built here when the caller does not hold it.

    An excluded edge (a, b) competes at its rule-optimal probability
    apply_step(0.0, degree_step(disc[a], disc[b], norm_a, norm_b), h), and
    its gain is gain_value at that probability.  Starting from p_hat = 0 the
    gate asks whether the candidate lies strictly closer to 1/2 than 0 does,
    which every probability strictly inside (0, 1) does, so the gate fires
    exactly on interior steps, where the damped h*step needs no clamp.  The
    candidate probability is therefore 0 for step <= 0, 1 for step >= 1 and
    h*step in between.  The scan computes that closed form and both formulas
    inline, with the same terms in the same order up to the commutativity of
    + and *, so it picks the same winner with the same bits as the calls would.

    Saturated-key scan.  `sat[x]` caches x's gain term at probability 1,
    (d_x**2 - (d_x - 1.0) ** 2) / norm_x**2, where disc[x] >= 1, and +inf
    elsewhere; each step refreshes it at the (at most four) vertices whose
    discrepancy it moves.  When the top vertex t has d_t >= 1 and every
    excluded neighbor's key is finite, the scan is one max over those keys,
    and the winner is the first excluded neighbor x, in g.neighbors order,
    whose gain T + sat[x] equals T + max, T being t's term at 1.  Any other
    step (d_t < 1, or a +inf key) scores every candidate as above.  The bits
    are the same because IEEE rounding is monotone: with positive norms,
    d_t >= 1 and d_x >= 1 make the computed step at least 1, so the
    candidate's gain is exactly T + sat[x]; T + s rounds monotonically in s,
    so the largest computed gain is T + max sat; and a strict > scan in
    order keeps the first candidate reaching it.
    """
    g = state.g
    us, vs = (a.tolist() for a in g.endpoint_arrays)
    norms = degree_norms(g, mode).tolist()
    sq_norms = [norm**2 for norm in norms]
    probs = state.probs.tolist()
    disc = state.disc.tolist()
    excluded = np.logical_not(state.in_backbone).tolist()
    if gathers is None:
        gathers = neighbor_gathers(g)
    inf = math.inf

    def saturated(x):
        d = disc[x]
        return (d**2 - (d - 1.0) ** 2) / sq_norms[x] if d >= 1.0 else inf

    sat = [saturated(x) for x in range(g.n)]
    heap = VertexHeap(disc)
    swaps = 0
    for idx in np.flatnonzero(state.in_backbone).tolist():
        # take e out: its mass goes back to both endpoints' discrepancies
        u, v = us[idx], vs[idx]
        prior = probs[idx]
        probs[idx] = 0.0
        excluded[idx] = True
        disc[u] += prior
        disc[v] += prior
        sat[u] = saturated(u)
        sat[v] = saturated(v)
        heap.update(u, disc[u])
        heap.update(v, disc[v])
        top = heap.top()

        # Candidates come in canonical order, so a strict > lets e win ties
        # and otherwise keeps the first (smallest) of equal-gain candidates.
        best_gain = gain_value(disc[u], disc[v], prior, sq_norms[u], sq_norms[v])
        chosen, best_w = idx, prior
        d_t, norm_t, sq_t = disc[top], norms[top], sq_norms[top]
        sq_d_t = d_t**2
        # Most candidates saturate at w = 1, where the top's gain term is fixed.
        top_gain_at_one = (sq_d_t - (d_t - 1.0) ** 2) / sq_t
        # With d_t >= 1 and every candidate's key finite, all candidates
        # saturate and gain top_gain_at_one + sat[x]: one max finds the best
        # gain, and the first candidate reaching it wins (with none, e stays).
        best_key = inf
        if d_t >= 1.0:
            keys_at, flags_at = gathers[top]
            best_key = max(compress(keys_at(sat), flags_at(excluded)), default=-inf)
        if best_key < inf:
            best = top_gain_at_one + best_key
            if best > best_gain:
                for x, eidx in g.neighbors(top):
                    if excluded[eidx] and top_gain_at_one + sat[x] == best:
                        chosen, best_w = eidx, 1.0
                        break
        else:
            # some candidate may enter below probability 1: score each one
            for x, eidx in g.neighbors(top):
                if not excluded[eidx]:
                    continue
                d_x = disc[x]
                norm_x = norms[x]
                step = (norm_x * d_t + norm_t * d_x) / (norm_t + norm_x)
                if step >= 1.0:
                    w, top_gain = 1.0, top_gain_at_one
                else:
                    w = 0.0 if step <= 0.0 else h * step
                    top_gain = (sq_d_t - (d_t - w) ** 2) / sq_t
                gain = top_gain + (d_x**2 - (d_x - w) ** 2) / sq_norms[x]
                if gain > best_gain:
                    best_gain, chosen, best_w = gain, eidx, w

        # put the winner in at best_w, off its endpoints' discrepancies
        a, b = us[chosen], vs[chosen]
        probs[chosen] = best_w
        excluded[chosen] = False
        disc[a] -= best_w
        disc[b] -= best_w
        sat[a] = saturated(a)
        sat[b] = saturated(b)
        heap.update(a, disc[a])
        heap.update(b, disc[b])
        if chosen != idx:
            swaps += 1
    state.probs[:] = probs
    np.logical_not(excluded, out=state.in_backbone)
    state.disc[:] = disc
    return swaps


def emd_run(
    g: UncertainGraph,
    backbone: np.ndarray,
    h: float = DEFAULT_H,
    mode: DiscrepancyMode = DiscrepancyMode.ABSOLUTE,
    tau: float | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> tuple[UncertainGraph, dict]:
    """Alternate swap and descent phases on the backbone mask until the objective stalls.

    The descent phase continues from the probabilities the swap phase left
    behind, so the objective is non-increasing across a full iteration.  The
    output always has exactly as many edges as the input backbone.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError("h must lie in [0, 1]")
    if tau is not None and tau < 0.0:
        raise ValueError("tau must be non-negative")
    rule = Rule(1, mode)
    state = SparsifierState(g, backbone)
    previous = degree_objective(state, mode)
    tau_eff = tau if tau is not None else DEFAULT_TAU_FRACTION * previous
    history = [previous]
    swap_counts = []
    iterations = 0
    gathers = neighbor_gathers(g)
    for _ in range(max_iters):
        swap_counts.append(e_phase(state, h, mode, gathers))
        state.resync()
        current = descend(state, rule, h, tau=tau_eff, max_sweeps=max_sweeps)["objective_final"]
        history.append(current)
        iterations += 1
        if abs(previous - current) <= tau_eff:
            break
        previous = current
    info = {
        "iterations": iterations,
        "swap_counts": swap_counts,
        "objective_history": history,
        "objective_initial": history[0],
        "objective_final": history[-1],
        "tau": tau_eff,
    }
    return state.to_graph(), info
