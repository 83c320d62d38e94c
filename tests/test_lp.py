"""Tests for the max-flow solver and the optimal assignment oracle."""

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog

from usparse.backbone import build_backbone
from usparse.evaluation import quality
from usparse.gdb import gdb_run
from usparse.graph import UncertainGraph, derive_rng, generate_synthetic
from usparse.lp import (
    lp_sparsify,
    max_flow,
    solve_optimal_assignment,
)

from test_backbone import backbone_pairs, pair_mask


def scipy_reference(g, backbone):
    pairs = backbone_pairs(g, backbone)
    A = np.zeros((g.n, len(pairs)))
    for j, (u, v) in enumerate(pairs):
        A[u, j] = 1.0
        A[v, j] = 1.0
    res = linprog(
        -np.ones(len(pairs)), A_ub=A, b_ub=g.degree_vector(), bounds=(0, 1), method="highs"
    )
    assert res.success
    return -res.fun


def degree_mae(g, out):
    return quality(g, out)["degree_mae"]


def cut_capacity(arcs, source_side):
    return sum(c for u, v, c in arcs if source_side[u] and not source_side[v])


def checked_flow_value(n_nodes, arcs, source, sink, flow):
    """Flow value out of the source, after asserting capacity and conservation."""
    caps = np.array([c for _, _, c in arcs])
    assert np.all(flow >= 0.0) and np.all(flow <= caps + 1e-12)
    net = np.zeros(n_nodes)
    for (u, v, _), f in zip(arcs, flow):
        net[u] -= f
        net[v] += f
    inner = [w for w in range(n_nodes) if w not in (source, sink)]
    assert np.allclose(net[inner], 0.0, atol=1e-9)
    return float(-net[source])


class TestMaxFlow:
    def test_tiny_known_network(self):
        # two unit paths, one narrowed to 0.5 at its last arc
        arcs = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 0.5)]
        flow, side = max_flow(4, arcs, 0, 3)
        assert checked_flow_value(4, arcs, 0, 3, flow) == pytest.approx(1.5, abs=1e-12)
        assert cut_capacity(arcs, side) == pytest.approx(1.5, abs=1e-12)

    def test_binding_unit_cap(self):
        # ample capacity into and out of a unit middle arc: the unit arc is the cut
        arcs = [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 5.0)]
        flow, side = max_flow(4, arcs, 0, 3)
        assert flow.tolist() == [1.0, 1.0, 1.0]
        assert side.tolist() == [True, True, False, False]

    def test_zero_capacity_vertex(self):
        # vertex 1 receives nothing, so its outgoing arc carries nothing
        arcs = [(0, 1, 0.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
        flow, side = max_flow(4, arcs, 0, 3)
        assert flow.tolist() == [0.0, 1.0, 0.0, 1.0]
        assert not side[1]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            max_flow(2, [(0, 1, -1.0)], 0, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_digraphs_match_networkx(self, seed):
        rng = derive_rng(seed)
        n_nodes = int(rng.integers(4, 16))
        arcs = []
        for u in range(n_nodes):
            for v in range(n_nodes):
                if u != v and rng.random() < 0.35:
                    cap = 0.0 if rng.random() < 0.15 else float(rng.random() * 3)
                    arcs.append((u, v, cap))
        source, sink = 0, n_nodes - 1
        flow, side = max_flow(n_nodes, arcs, source, sink)
        value = checked_flow_value(n_nodes, arcs, source, sink, flow)
        reference = nx.DiGraph()
        reference.add_nodes_from(range(n_nodes))
        for u, v, c in arcs:
            reference.add_edge(u, v, capacity=c)
        expected = nx.maximum_flow_value(reference, source, sink)
        assert value == pytest.approx(expected, abs=1e-9)
        assert side[source] and not side[sink]
        assert cut_capacity(arcs, side) == pytest.approx(value, abs=1e-9)


class TestOptimalAssignment:
    def test_full_backbone_recovers_total_mass(self):
        g = generate_synthetic(12, 0.5, seed=0)
        backbone = np.ones(g.m, dtype=bool)
        _, result = solve_optimal_assignment(g, backbone)
        assert result.objective == pytest.approx(float(g.probabilities.sum()), abs=1e-9)
        assert degree_mae(g, lp_sparsify(g, backbone)[0]) == pytest.approx(0.0, abs=1e-9)

    def test_single_edge_binds_smaller_degree(self):
        g = UncertainGraph(3, [(0, 1, 0.4), (1, 2, 0.9)])
        backbone = pair_mask(g, {(0, 1)})
        assignment, _ = solve_optimal_assignment(g, backbone)
        # vertex 0 caps the edge at its expected degree 0.4
        assert assignment[0] == pytest.approx(0.4, abs=1e-9)

    def test_feasibility_and_bounds(self):
        g = generate_synthetic(20, 0.4, seed=1)
        backbone = build_backbone(g, 0.4, seed=1)
        assignment, _ = solve_optimal_assignment(g, backbone)
        d_new = np.zeros(g.n)
        for (u, v), p in zip(backbone_pairs(g, backbone), assignment, strict=True):
            d_new[u] += p
            d_new[v] += p
        assert np.all(d_new <= g.degree_vector() + 1e-9)
        assert np.all(assignment >= -1e-12) and np.all(assignment <= 1 + 1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_matches_scipy_on_backbones(self, seed):
        g = generate_synthetic(18, 0.45, seed=seed)
        backbone = build_backbone(g, 0.45, seed=seed)
        _, result = solve_optimal_assignment(g, backbone)
        assert result.objective == pytest.approx(scipy_reference(g, backbone), abs=1e-7)

    def test_dominates_descent_on_l1(self):
        # the LP minimizes the total absolute degree discrepancy exactly, so
        # no descent output can do better
        for seed in range(8):
            g = generate_synthetic(16, 0.5, seed=50 + seed)
            backbone = build_backbone(g, 0.35, seed=seed)
            lp_err = degree_mae(g, lp_sparsify(g, backbone)[0])
            gdb_err = degree_mae(g, gdb_run(g, backbone, h=1.0)[0])
            assert gdb_err >= lp_err - 1e-7

    def test_large_backbone_matches_scipy(self):
        # above the 2,000 edges a dense solver used to refuse
        g = generate_synthetic(100, 0.5, seed=2)
        backbone = build_backbone(g, 0.85, seed=2)
        assert np.count_nonzero(backbone) > 2000
        out, info = lp_sparsify(g, backbone)
        assert info["certificate_gap"] < 1e-7
        assert info["objective"] == pytest.approx(scipy_reference(g, backbone), abs=1e-7)
        assert degree_mae(g, out) > 0.0

    def test_unknown_backbone_edge_rejected(self):
        # a mask can only name edges of g: one entry past them is refused
        g = UncertainGraph(4, [(0, 1, 0.5), (1, 2, 0.5)])
        with pytest.raises(ValueError, match=r"bool mask of shape \(2,\)"):
            solve_optimal_assignment(g, np.array([True, False, True]))

    def test_other_graphs_mask_or_int_mask_rejected(self):
        g = UncertainGraph(4, [(0, 1, 0.5), (1, 2, 0.5)])
        other = UncertainGraph(5, [(0, 1, 0.5), (1, 2, 0.5), (3, 4, 0.5)])
        for backbone in (np.ones(other.m, dtype=bool), np.array([1, 1])):
            with pytest.raises(ValueError, match=r"bool mask of shape \(2,\)"):
                lp_sparsify(g, backbone)


class TestLpSparsify:
    def test_output_graph_contract(self):
        g = generate_synthetic(15, 0.5, seed=3)
        backbone = build_backbone(g, 0.4, seed=3)
        out, info = lp_sparsify(g, backbone)
        assert [(u, v) for u, v, _ in out.edges] == backbone_pairs(g, backbone)
        assert info["certificate_gap"] < 1e-7
        assert set(info) == {"objective", "certificate_gap"}

    def test_deterministic(self):
        g = generate_synthetic(15, 0.5, seed=4)
        backbone = build_backbone(g, 0.4, seed=4)
        out1, _ = lp_sparsify(g, backbone)
        out2, _ = lp_sparsify(g, backbone)
        assert out1.edges == out2.edges
