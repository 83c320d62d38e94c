"""Exact optimal probability assignment on a backbone, via maximum flow.

Maximizing the total assigned probability subject to per-vertex expected
degree caps is equivalent to minimizing the total absolute degree discrepancy
(an optimal assignment never over-shoots a degree).  That LP is a fractional
b-matching, and it equals half the maximum flow on the bipartite double cover:
the source feeds each left copy L_v at capacity d_v, each backbone edge uv
gives arcs L_u->R_v and L_v->R_u at capacity 1, and each right copy R_v drains
to the sink at capacity d_v.  An edge's probability is the mean of its two
arc flows.  The minimum cut read off the final residual graph certifies
optimality.  The open probability interval (0,1] is relaxed to [0,1]; an edge
solved at zero is reported as retained with zero mass, as elsewhere in the
package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from usparse.backbone import check_backbone
from usparse.graph import UncertainGraph

RESIDUAL_TOL = 1e-12  # residual capacity at or below this counts as saturated
CERTIFICATE_TOL = 1e-7


@dataclass
class LpResult:
    objective: float
    certificate_gap: float


class CertificateError(RuntimeError):
    pass


def max_flow(n_nodes: int, arcs, source: int, sink: int) -> tuple[np.ndarray, np.ndarray]:
    """Dinic's maximum flow over float capacities.

    arcs is a sequence of (tail, head, capacity) with capacity >= 0.  Each
    phase builds BFS levels on the residual graph, then saturates it with
    augmenting paths found by an iterative DFS over the level graph.  Returns
    the flow on each arc and a boolean mask of the nodes reachable from the
    source in the final residual graph: the source side of a minimum cut.
    """
    # Residual arc 2i is arc i; 2i+1 is its reverse, whose capacity is the flow.
    head = []
    cap = []
    out = [[] for _ in range(n_nodes)]
    for i, (u, v, c) in enumerate(arcs):
        if not c >= 0.0:
            raise ValueError(f"arc {i} has negative or undefined capacity {c}")
        out[u].append(2 * i)
        out[v].append(2 * i + 1)
        head += (v, u)
        cap += (float(c), 0.0)

    def bfs_levels():
        level = [-1] * n_nodes
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for a in out[u]:
                v = head[a]
                if level[v] < 0 and cap[a] > RESIDUAL_TOL:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    level = bfs_levels()
    while level[sink] >= 0:
        current = [0] * n_nodes  # next arc to try at each node
        path = []
        u = source
        while True:
            if u == sink:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                path.clear()
                u = source
                continue
            arcs_u = out[u]
            i = current[u]
            while i < len(arcs_u):
                a = arcs_u[i]
                if cap[a] > RESIDUAL_TOL and level[head[a]] == level[u] + 1:
                    break
                i += 1
            current[u] = i
            if i < len(arcs_u):
                path.append(arcs_u[i])
                u = head[arcs_u[i]]
            elif path:  # dead end: retreat and skip the arc that led here
                u = head[path.pop() ^ 1]
                current[u] += 1
            else:
                break  # the level graph is blocked
        level = bfs_levels()
    flow = np.array(cap[1::2])
    return flow, np.array(level) >= 0


def solve_optimal_assignment(
    g: UncertainGraph, backbone: np.ndarray
) -> tuple[np.ndarray, LpResult]:
    """Probabilities on the backbone edges maximizing total mass under degree caps.

    `backbone` is a bool mask over g's edges.  Returns the assignment of the
    edges it keeps, in canonical order, and the solver result.  Raises if the
    minimum cut exceeds the flow value by CERTIFICATE_TOL or more, or if the
    assignment is infeasible.
    """
    check_backbone(g, backbone)
    us, vs = g.endpoint_arrays
    bu, bv = us[backbone], vs[backbone]
    n, mb = g.n, len(bu)
    d = g.degree_vector()
    source, sink = 2 * n, 2 * n + 1
    arcs = [(source, v, d[v]) for v in range(n)]
    for u, v in zip(bu.tolist(), bv.tolist()):
        arcs += ((u, n + v, 1.0), (v, n + u, 1.0))
    arcs += [(n + v, sink, d[v]) for v in range(n)]
    flow, source_side = max_flow(2 * n + 2, arcs, source, sink)

    value = float(flow[:n].sum())
    cut = sum(c for u, v, c in arcs if source_side[u] and not source_side[v])
    gap = abs(cut - value)
    if gap >= CERTIFICATE_TOL:
        raise CertificateError(f"optimality certificate failed: gap {gap:.3e}")
    x = (flow[n:n + 2 * mb:2] + flow[n + 1:n + 2 * mb:2]) / 2.0
    load = np.bincount(bu, x, minlength=n) + np.bincount(bv, x, minlength=n)
    if np.any(load - d > 1e-9) or np.any(x < -1e-9) or np.any(x > 1 + 1e-9):
        raise CertificateError("solution violates feasibility beyond tolerance")
    return np.clip(x, 0.0, 1.0), LpResult(objective=value / 2.0, certificate_gap=gap)


def lp_sparsify(g: UncertainGraph, backbone: np.ndarray) -> tuple[UncertainGraph, dict]:
    """Sparsified graph carrying the LP-optimal probabilities on the backbone mask."""
    assignment, result = solve_optimal_assignment(g, backbone)
    us, vs = g.endpoint_arrays
    out = UncertainGraph.from_columns(g.n, us[backbone], vs[backbone], assignment, allow_zero=True)
    info = {
        "objective": result.objective,
        "certificate_gap": result.certificate_gap,
    }
    return out, info
