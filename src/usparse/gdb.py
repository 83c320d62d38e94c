"""Coordinate-descent probability assignment on a fixed backbone.

Given the backbone edge set, probabilities start at their original values and
are swept one coordinate at a time.  Each update moves one probability to the
minimizer of the convex quadratic objective (sum of squared degree
discrepancies, or its cut-size generalization), clamped to [0, 1].  When the
optimal move would raise the edge's entropy, only a fraction h of the step is
taken, which trades accuracy for a less uncertain output.

The working state (SparsifierState) exists once, as arrays over the edges
and the vertices: the backbone mask, the working probabilities and the
vertex discrepancies.  The degree rule sweeps the backbone matching by
matching: a greedy proper edge colouring splits it into classes of edges
that share no vertex, and one numpy update of a class equals the sequential
updates of its edges in any order (multicolour Gauss-Seidel).  The cut rules
(the degree step plus c times the disjoint mass gap) sweep edge by edge in
canonical order, because every step reads that gap; each such pass works on
list copies of the state's arrays and writes them back at its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from usparse.backbone import check_backbone
from usparse.graph import DiscrepancyMode, UncertainGraph

DEFAULT_H = 0.05
DEFAULT_MAX_SWEEPS = 100
# Default convergence threshold, as a fraction of the initial objective.
DEFAULT_TAU_FRACTION = 1e-6


@dataclass(frozen=True)
class Rule:
    """Which discrepancies a run minimizes: cuts of up to k vertices.

    k=1 is the degree rule and k>=2 the k-cut rule; k=None, the all-cuts
    rule, runs as k = n.  Only the degree rule has a relative mode; cut rules
    are absolute.
    """

    k: int | None = 1
    mode: DiscrepancyMode = DiscrepancyMode.ABSOLUTE

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("rule cardinality must be at least 1")
        if self.k != 1 and self.mode is not DiscrepancyMode.ABSOLUTE:
            raise ValueError("cut rules (k>1 or all) are defined for absolute discrepancies only")


def binomial_prefix_sum(n: int, k: int) -> int:
    """Sum of C(n, i) for i = 0..k, as an exact integer.

    0 when n < 0 or k < 0, and 2^n once k >= n, with no sum.  k = 0 gives 1.
    """
    if n < 0 or k < 0:
        return 0
    if k >= n:
        return 1 << n
    return sum(math.comb(n, i) for i in range(k + 1))


def cut_rule_coefficient(n: int, k: int | None) -> float:
    """The k-cut step's coefficient c on the disjoint mass gap; k=None is k = n.

    c = 2 S(n-4, k-2) / S(n-2, k-1), S the binomial prefix sum: 0 at k = 1
    and for n < 4, 1/2 once k >= n - 1.  Exact integers divided once, with
    correct rounding, so huge vertex counts cannot overflow.
    """
    k = n if k is None else k
    if k < 1:
        raise ValueError("k must be at least 1")
    numerator = 2 * binomial_prefix_sum(n - 4, k - 2)
    return numerator / binomial_prefix_sum(n - 2, k - 1) if numerator else 0.0


def degree_norms(g: UncertainGraph, mode: DiscrepancyMode) -> np.ndarray:
    """Per-vertex weights of the degree rules: 1, or the original expected degree.

    Relative mode divides by the original expected degree; vertices with zero
    expected degree fall back to 1 so the rule stays defined.
    """
    if mode is DiscrepancyMode.ABSOLUTE:
        return np.ones(g.n)
    d = g.degree_vector()
    return np.where(d > 0.0, d, 1.0)


def degree_step(delta_u: float, delta_v: float, norm_u: float = 1.0, norm_v: float = 1.0) -> float:
    """Optimal unclamped coordinate step for the degree rule (elementwise on arrays)."""
    return (norm_v * delta_u + norm_u * delta_v) / (norm_u + norm_v)


def cut_step(delta_u: float, delta_v: float, disjoint_gap: float, c: float) -> float:
    """Exact unclamped k-cut step, c = cut_rule_coefficient(n, k); the degree step at k = 1.

    It minimizes the sum of D(S)^2 over 1 <= |S| <= k, D(S) the cut mass S
    lost, in one edge's probability: the mean of D(S) over the sets it crosses.
    """
    return degree_step(delta_u, delta_v) + c * disjoint_gap


def apply_step(p_hat: float, step: float, h: float) -> float:
    """Clamp the candidate to [0,1]; damp by h if its entropy would rise.

    Bernoulli entropy is symmetric about 1/2 and strictly decreasing in
    |p - 1/2|, so entropy rises exactly when the candidate lies strictly
    closer to 1/2 than the current value p_hat.  The gate tests that as
    min(c, 1-c) > min(p_hat, 1-p_hat), with no log: each side is the exact
    distance to the nearer end (1-x is exact for x >= 1/2), whereas
    abs(x - 1/2) rounds every x in (0, 2**-55] to distance 1/2 and would let
    such a step from 0 through undamped.  A clamped candidate lands on 0 or
    1, so the gate can only fire on interior candidates, and the damped step
    stays inside [0,1] by convexity.
    """
    cand = p_hat + step
    if cand < 0.0:
        cand = 0.0
    elif cand > 1.0:
        cand = 1.0
    if min(cand, 1.0 - cand) > min(p_hat, 1.0 - p_hat):
        damped = p_hat + h * step
        if damped < 0.0:
            return 0.0
        if damped > 1.0:
            return 1.0
        return damped
    return cand


def apply_steps(p_hat: np.ndarray, step: np.ndarray, h: float) -> np.ndarray:
    """apply_step over arrays, elementwise, with the same bits for h in [0, 1].

    A candidate closer to 1/2 was not clamped, and p_hat + h*step rounds to a
    value between p_hat and it, so the damped step needs no clamp here.
    """
    cand = p_hat + step
    np.minimum(cand, 1.0, out=cand)
    np.maximum(cand, 0.0, out=cand)
    closer = np.minimum(cand, 1.0 - cand) > np.minimum(p_hat, 1.0 - p_hat)
    np.copyto(cand, p_hat + h * step, where=closer)
    return cand


def greedy_edge_colouring(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Colour edge i = (us[i], vs[i]) with the smallest colour free at both ends.

    Edges are coloured in the given order, so the colouring is deterministic.
    It is proper (no two edges of one colour share a vertex) and uses at most
    2*D - 1 colours for maximum degree D, since at most 2*(D - 1) colours are
    taken at an edge's two ends.  Every colour below the largest is used.
    """
    taken = [0] * n  # bit c set when colour c is on an edge at the vertex
    colours = []
    for u, v in zip(us.tolist(), vs.tolist()):
        free = ~(taken[u] | taken[v])
        bit = free & -free
        taken[u] |= bit
        taken[v] |= bit
        colours.append(bit.bit_length() - 1)
    return np.array(colours, dtype=np.int64)


class SparsifierState:
    """The working state of a descent, as arrays over g's edges and vertices.

    `in_backbone` is the (|E|,) bool mask of the edges currently kept,
    `probs` their working probabilities (0 off the backbone) and `disc` the
    (n,) absolute discrepancies d_u - sum of incident working probabilities.
    Steps update `disc` incrementally; resync recomputes it from scratch to
    bound drift.
    """

    def __init__(self, g: UncertainGraph, backbone: np.ndarray):
        check_backbone(g, backbone)
        self.g = g
        self.in_backbone = backbone.copy()
        self.probs = np.where(backbone, g.probabilities, 0.0)
        self.disc = _scratch_disc(g, self.probs)

    def resync(self) -> float:
        """Recompute the discrepancies from scratch; returns the max drift."""
        fresh = _scratch_disc(self.g, self.probs)
        drift = float(np.max(np.abs(fresh - self.disc), initial=0.0))
        self.disc = fresh
        return drift

    def to_graph(self) -> UncertainGraph:
        """Snapshot of the current backbone as an uncertain graph (p=0 kept)."""
        kept = np.flatnonzero(self.in_backbone)
        us, vs = self.g.endpoint_arrays
        return UncertainGraph.from_columns(
            self.g.n, us[kept], vs[kept], self.probs[kept], allow_zero=True
        )


def _scratch_disc(g: UncertainGraph, probs: np.ndarray) -> np.ndarray:
    # Scatter per-edge gaps rather than degree-minus-mass: retained edges at
    # their original probability then contribute exact zeros.
    gaps = g.probabilities - probs
    d = np.zeros(g.n)
    us, vs = g.endpoint_arrays
    np.add.at(d, us, gaps)
    np.add.at(d, vs, gaps)
    return d


class ClassSweep:
    """The degree rule's descent in array form, one matching at a time.

    The backbone edges are greedily edge-coloured in canonical order and
    gathered from the state class by class, so each colour class (a
    matching) is a contiguous slice of `probs`: no two of its edges share a
    vertex, so one numpy update of the class equals the sequential updates
    of its edges in any order.  Each class holds its endpoints, its
    endpoints' norms (None under the absolute rule, whose norms are all 1)
    and its slice of `probs`.  A sweep updates the state's `disc` in place
    and scatters `probs` back into the state's.
    """

    def __init__(self, state: SparsifierState, mode: DiscrepancyMode):
        g = state.g
        backbone = np.flatnonzero(state.in_backbone)
        us, vs = (ends[backbone] for ends in g.endpoint_arrays)
        colours = greedy_edge_colouring(g.n, us, vs)
        by_class = np.argsort(colours, kind="stable")
        # row 0 holds each slot's u, row 1 its v
        ends = np.stack([us, vs])[:, by_class]
        self.state = state
        self.order = backbone[by_class]  # canonical edge index of each slot
        self.probs = state.probs[self.order]
        stops = np.cumsum(np.bincount(colours)).tolist()
        slices = [slice(a, b) for a, b in zip([0, *stops], stops)]
        if mode is DiscrepancyMode.ABSOLUTE:
            self.classes = [(ends[:, s], None, None, self.probs[s]) for s in slices]
        else:
            norms = degree_norms(g, mode)[ends]
            self.classes = [(ends[:, s], norms[0, s], norms[1, s], self.probs[s]) for s in slices]

    def sweep(self, h: float) -> int:
        """One pass, class by class in colour order; returns updates made."""
        disc = self.state.disc
        before = self.probs.copy()
        for ends, norm_us, norm_vs, p in self.classes:
            d = disc[ends]
            if norm_us is None:
                # degree_step with unit norms, bit for bit: 1*x is exact and 1+1 is 2
                step = d[0] + d[1]
                step /= 2.0
            else:
                step = degree_step(d[0], d[1], norm_us, norm_vs)
            new = apply_steps(p, step, h)
            d -= new - p
            p[:] = new
            disc[ends] = d
        self.state.probs[self.order] = self.probs
        return int(np.count_nonzero(self.probs != before))


def _weighted_sq_sum(disc: np.ndarray, norms: np.ndarray) -> float:
    scaled = disc / norms
    return float(np.dot(scaled, scaled))


def degree_objective(state: SparsifierState, mode=DiscrepancyMode.ABSOLUTE) -> float:
    """Objective for degree rules, from discrepancies recomputed from scratch."""
    return _weighted_sq_sum(_scratch_disc(state.g, state.probs), degree_norms(state.g, mode))


def cut_objective(state: SparsifierState, c: float, degree_part: float) -> float:
    """The objective cut_step minimizes at coefficient c, given degree_part = sum_v d_v^2.

    degree_part + 2c (G^2 + Q - degree_part), G the total mass gap and Q the
    sum of squared gaps: at c = cut_rule_coefficient(n, k), the sum of D(S)^2
    over 1 <= |S| <= k divided by S(n-2, k-1); degree_part itself at c = 0.
    """
    if c == 0.0:
        return degree_part
    gaps = state.g.probabilities - state.probs
    total = float(gaps.sum())
    return degree_part + 2.0 * c * (total * total + float(np.dot(gaps, gaps)) - degree_part)


def sweep(
    state: SparsifierState,
    rule: Rule,
    h: float,
    classes: ClassSweep | None = None,
    c: float | None = None,
) -> int:
    """One full pass over the backbone; returns updates made.

    The degree rule sweeps matching by matching (ClassSweep.sweep), on
    `classes` when the caller holds them.  The cut rules sweep edge by edge
    in canonical order, because every step reads the mass gap of edges at
    other vertices: the pass takes list copies of g's and the state's arrays,
    sums the original and working masses in index order at its start, keeps
    the working mass and the discrepancies in step with each update, and
    writes the state's arrays back at its end.  `c` is
    cut_rule_coefficient(g.n, rule.k), computed here when the caller does
    not hold it: at large k it costs far more than a sweep.
    """
    if rule.k == 1:
        return (classes if classes is not None else ClassSweep(state, rule.mode)).sweep(h)
    g = state.g
    if c is None:
        c = cut_rule_coefficient(g.n, rule.k)
    us, vs = g.endpoint_arrays
    orig = g.probabilities.tolist()
    probs = state.probs.tolist()
    disc = state.disc.tolist()
    total = sum(orig)
    mass = sum(probs)
    kept = state.in_backbone.tolist()
    changed = 0
    for idx, u, v in compress(zip(range(g.m), us.tolist(), vs.tolist()), kept):
        p = probs[idx]
        # mass gap over the edges sharing no endpoint with this one: the
        # edge's own gap was taken off with both endpoints' discrepancies
        disjoint_gap = total - mass - disc[u] - disc[v] + (orig[idx] - p)
        new_p = apply_step(p, cut_step(disc[u], disc[v], disjoint_gap, c), h)
        if new_p != p:
            change = new_p - p
            probs[idx] = new_p
            disc[u] -= change
            disc[v] -= change
            mass += change
            changed += 1
    state.probs[:] = probs
    state.disc[:] = disc
    return changed


def descend(
    state: SparsifierState,
    rule: Rule,
    h: float,
    tau: float | None = None,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> dict:
    """Sweep until the objective the rule's step minimizes improves by at most tau.

    Stops at the sweep cap otherwise.  Resyncs the discrepancies from scratch
    at every sweep boundary, which bounds incremental drift and gives an
    honest convergence signal: each sweep's objective is computed from those
    fresh discrepancies.  The degree rule colours the backbone once, and
    the cut rules' coefficient is computed once.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError("h must lie in [0, 1]")
    if tau is not None and tau < 0.0:
        raise ValueError("tau must be non-negative")
    c = cut_rule_coefficient(state.g.n, rule.k)
    norms = degree_norms(state.g, rule.mode)
    previous = cut_objective(state, c, degree_objective(state, rule.mode))
    history = [previous]
    tau_eff = tau if tau is not None else DEFAULT_TAU_FRACTION * previous
    classes = ClassSweep(state, rule.mode) if rule.k == 1 else None
    sweeps = 0
    for _ in range(max_sweeps):
        sweep(state, rule, h, classes, c)
        sweeps += 1
        state.resync()
        current = cut_objective(state, c, _weighted_sq_sum(state.disc, norms))
        history.append(current)
        if abs(previous - current) <= tau_eff:
            break
        previous = current
    return {
        "sweeps": sweeps,
        "objective_history": history,
        "objective_initial": history[0],
        "objective_final": history[-1],
        "tau": tau_eff,
    }


def gdb_run(
    g: UncertainGraph,
    backbone: np.ndarray,
    h: float = DEFAULT_H,
    rule: Rule = Rule(),
    tau: float | None = None,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> tuple[UncertainGraph, dict]:
    """Assign probabilities to the backbone edges by coordinate descent.

    `backbone` is a bool mask over g's edges.  Probabilities start at their
    original values; the output keeps exactly the backbone's edge set (edges
    driven to probability 0 stay in the set).
    Returns the sparsified graph plus a run report with the per-sweep
    from-scratch objective history.
    """
    state = SparsifierState(g, backbone)
    info = descend(state, rule, h, tau=tau, max_sweeps=max_sweeps)
    return state.to_graph(), info
