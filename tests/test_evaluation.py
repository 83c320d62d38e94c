"""Tests for the Monte-Carlo query harness and distribution comparison."""

import math
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usparse import evaluation
from usparse.evaluation import (
    EmdReport,
    QueryDistribution,
    QueryKind,
    default_units,
    earth_movers_distance,
    emd_report,
    mc_distributions,
    mc_point_estimates,
    pagerank_world,
    quality,
    sample_masks,
    variance_protocol,
)
from usparse.graph import (
    UncertainGraph,
    derive_rng,
    exact_query_probability,
    generate_synthetic,
    graph_entropy,
)


def dist(values, kind=QueryKind.PAGERANK, unit=0):
    arr = np.sort(np.asarray(values, dtype=float))
    return QueryDistribution(kind, unit, arr, len(arr))


def kernel_values(g, kind, units, masks):
    """(B, U) values the evaluation kernel gives each unit in each mask row's world."""
    return evaluation._kernel(g, kind, list(units))[0](masks)


def one_world(n, edges, kind, units):
    """Query values in the only world of the graph whose edges all have p = 1."""
    g = UncertainGraph(n, [(u, v, 1.0) for u, v in edges])
    return kernel_values(g, kind, units, sample_masks(g, 0, (), 1))[0]


def pagerank_scores(n, edges):
    return one_world(n, edges, QueryKind.PAGERANK, list(range(n)))


def clustering(n, edges, u):
    return float(one_world(n, edges, QueryKind.CLUSTERING_COEFFICIENT, [u])[0])


def transport_cost(xs, ys):
    """Independent 1-d optimal transport oracle: monotone matching of sorted
    atoms with exact Fraction masses."""
    xs, ys = sorted(xs), sorted(ys)
    mi, mj = Fraction(1, len(xs)), Fraction(1, len(ys))
    ri, rj = mi, mj
    i = j = 0
    cost = Fraction(0)
    while i < len(xs) and j < len(ys):
        move = min(ri, rj)
        cost += move * Fraction(abs(xs[i] - ys[j]))
        ri -= move
        rj -= move
        if ri == 0:
            i += 1
            ri = mi
        if rj == 0:
            j += 1
            rj = mj
    return float(cost)


class TestPagerank:
    def test_empty_world_uniform(self):
        assert np.allclose(pagerank_scores(5, []), 0.2)

    def test_scores_sum_to_one(self):
        g = generate_synthetic(30, 0.2, seed=1)
        assert pagerank_scores(g.n, g.edge_pairs).sum() == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_pair_equal_scores(self):
        scores = pagerank_scores(4, [(0, 1), (2, 3)])
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)
        assert scores[0] == pytest.approx(scores[2], abs=1e-10)

    def test_matches_linear_system_solution(self):
        # stationary equations solved directly as an independent oracle
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)]
        n, d = 6, 0.85
        A = np.zeros((n, n))
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        for u, v in edges:
            A[v, u] += 1 / deg[u]
            A[u, v] += 1 / deg[v]
        for x in range(n):
            if deg[x] == 0:
                A[:, x] = 1 / n
        expected = np.linalg.solve(np.eye(n) - d * A, np.full(n, (1 - d) / n))
        assert np.allclose(pagerank_scores(n, edges), expected, atol=1e-9)


class TestClusteringCoefficient:
    def test_triangle_vertex(self):
        assert clustering(3, [(0, 1), (0, 2), (1, 2)], 0) == 1.0

    def test_star_center(self):
        assert clustering(4, [(0, 1), (0, 2), (0, 3)], 0) == 0.0

    def test_four_clique(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        assert clustering(4, edges, 2) == 1.0

    def test_low_degree_is_zero(self):
        assert clustering(3, [(0, 1)], 0) == 0.0
        assert clustering(3, [(0, 1)], 2) == 0.0

    def test_half_connected_neighborhood(self):
        assert clustering(4, [(0, 1), (0, 2), (0, 3), (1, 2)], 0) == pytest.approx(1 / 3)


class TestMcDistributions:
    def test_deterministic_graph_point_mass(self):
        g = UncertainGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        dists = mc_distributions(g, QueryKind.PAGERANK, [0, 1], n_samples=20, seed=0)
        for d in dists.values():
            assert len(np.unique(d.values)) == 1

    def test_reliability_single_edge_frequency(self):
        g = UncertainGraph(2, [(0, 1, 0.3)])
        n = 20_000
        dists = mc_distributions(g, QueryKind.RELIABILITY, [(0, 1)], n_samples=n, seed=3)
        freq = dists[(0, 1)].mean()
        exact = exact_query_probability(g, lambda w: w.reachable(0, 1))
        assert exact == pytest.approx(0.3, abs=1e-12)
        assert abs(freq - exact) <= 5 * math.sqrt(0.3 * 0.7 / n)

    def test_shortest_path_conditional_on_connected(self):
        # end-to-end distance on a 3-vertex path is 2 in every connected world
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 0.5)])
        dists = mc_distributions(g, QueryKind.SHORTEST_PATH, [(0, 2)], n_samples=400, seed=1)
        d = dists[(0, 2)]
        assert not d.empty
        assert np.all(d.values == 2.0)
        assert len(d.values) < 400  # disconnected worlds contribute nothing

    def test_shortest_path_never_connected_is_empty(self):
        g = UncertainGraph(3, [(0, 1, 0.9)])
        dists = mc_distributions(g, QueryKind.SHORTEST_PATH, [(0, 2)], n_samples=50, seed=2)
        assert dists[(0, 2)].empty

    def test_deterministic_given_seed(self):
        g = generate_synthetic(12, 0.4, seed=4)
        a = mc_distributions(g, QueryKind.PAGERANK, [0, 3], n_samples=30, seed=9)
        b = mc_distributions(g, QueryKind.PAGERANK, [0, 3], n_samples=30, seed=9)
        for u in (0, 3):
            assert np.array_equal(a[u].values, b[u].values)

    def test_invalid_units_rejected(self):
        g = generate_synthetic(10, 0.4, seed=1)
        with pytest.raises(ValueError):
            mc_distributions(g, QueryKind.PAGERANK, [99], n_samples=5, seed=0)
        with pytest.raises(ValueError):
            mc_distributions(g, QueryKind.RELIABILITY, [(0, 0)], n_samples=5, seed=0)

    def test_default_units(self):
        g = generate_synthetic(10, 0.4, seed=1)
        assert default_units(g, QueryKind.PAGERANK) == list(range(10))
        # 50 pairs asked of a 10-vertex graph, which has only 45: all of them
        pairs = default_units(g, QueryKind.RELIABILITY, n_pairs=50, seed=1)
        assert pairs == [(u, v) for u in range(10) for v in range(u + 1, 10)]

    def test_default_units_are_distinct_pairs(self):
        g = generate_synthetic(100, 0.05, seed=1)
        pairs = default_units(g, QueryKind.RELIABILITY, n_pairs=1000, seed=3)
        assert len(pairs) == 1000
        assert all(u != v for u, v in pairs)
        assert len({(min(u, v), max(u, v)) for u, v in pairs}) == 1000


class TestEarthMoversDistance:
    def test_identical_distributions(self):
        f = dist([0.1, 0.4, 0.4, 0.9])
        assert earth_movers_distance(f, f) == 0.0

    def test_point_masses_unit_transport(self):
        assert earth_movers_distance(dist([0.0]), dist([1.0])) == pytest.approx(1.0)

    def test_three_point_hand_evaluation(self):
        # merged support {0, .5, 1, 2, 3}; |F1-F2| integrates to 1/6 + 1/3
        f1 = dist([0.0, 1.0, 2.0])
        f2 = dist([0.5, 1.0, 3.0])
        assert earth_movers_distance(f1, f2) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        f1 = dist([0.2, 0.7, 0.7, 1.3])
        f2 = dist([0.1, 0.9])
        assert earth_movers_distance(f1, f2) == pytest.approx(
            earth_movers_distance(f2, f1), abs=1e-15
        )

    def test_empty_rejected(self):
        empty = QueryDistribution(QueryKind.PAGERANK, 0, np.asarray([]), 10)
        with pytest.raises(ValueError):
            earth_movers_distance(empty, dist([1.0]))

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_independent_transport(self, xs, ys):
        got = earth_movers_distance(dist(xs), dist(ys))
        assert got == pytest.approx(transport_cost(xs, ys), abs=1e-9)
        assert got >= 0.0

    def test_fixed_corpus_against_transport(self):
        corpus = [
            ([0.0], [1.0]),
            ([0.0, 1.0], [0.5]),
            ([1.0, 2.0, 3.0], [1.5, 2.5]),
            ([0.1, 0.1, 0.9], [0.2, 0.8, 0.8]),
            ([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, 1.0, 1.0]),
            ([-1.0, 0.0, 1.0], [-2.0, 2.0]),
            ([0.3, 0.3, 0.3], [0.3, 0.3]),
        ]
        for xs, ys in corpus:
            assert earth_movers_distance(dist(xs), dist(ys)) == pytest.approx(
                transport_cost(xs, ys), abs=1e-12
            )


class TestRelativeEntropy:
    def test_identity(self):
        g = generate_synthetic(10, 0.4, seed=5)
        assert quality(g, g)["relative_entropy"] == pytest.approx(1.0)

    def test_deterministic_sparsified(self):
        g = generate_synthetic(10, 0.4, seed=5)
        g2 = UncertainGraph(g.n, [(u, v, 1.0) for u, v, _ in g.edges])
        assert quality(g, g2)["relative_entropy"] == 0.0

    def test_halved_edge_set_is_mass_fraction(self):
        g = generate_synthetic(10, 0.5, seed=6)
        half = list(g.edges)[: g.m // 2]
        g2 = UncertainGraph(g.n, half)
        expected = graph_entropy(g2) / graph_entropy(g)
        assert quality(g, g2)["relative_entropy"] == pytest.approx(expected)

    def test_zero_entropy_original_is_none(self):
        g = UncertainGraph(3, [(0, 1, 1.0)])
        assert quality(g, g)["relative_entropy"] is None


class TestEmdReport:
    def test_self_comparison_same_seed_is_zero(self):
        g = generate_synthetic(12, 0.4, seed=7)
        report = emd_report(g, g, QueryKind.PAGERANK, [0, 1, 2], n_samples=40, seed=3)
        assert report.mean == 0.0 and report.max == 0.0

    def test_self_comparison_different_worlds_noise_floor(self):
        g = generate_synthetic(12, 0.4, seed=7)
        left = mc_distributions(g, QueryKind.PAGERANK, [0], n_samples=60, seed=1)
        right = mc_distributions(g, QueryKind.PAGERANK, [0], n_samples=60, seed=2)
        noise = earth_movers_distance(left[0], right[0])
        assert noise > 0.0  # measured baseline, small but nonzero

    def test_mean_is_arithmetic_mean(self):
        g = generate_synthetic(12, 0.4, seed=8)
        g2 = UncertainGraph(g.n, [(u, v, min(1.0, p * 1.5)) for u, v, p in g.edges])
        units = [0, 1, 2, 3]
        report = emd_report(g, g2, QueryKind.PAGERANK, units, n_samples=30, seed=4)
        assert report.mean == pytest.approx(np.mean(list(report.per_unit.values())))

    def test_sp_empty_units_skipped_and_counted(self):
        g = UncertainGraph(4, [(0, 1, 0.9), (2, 3, 0.9)])
        g2 = UncertainGraph(4, [(0, 1, 0.9)])
        report = emd_report(
            g, g2, QueryKind.SHORTEST_PATH, [(0, 1), (2, 3)], n_samples=30, seed=5
        )
        assert (2, 3) in report.skipped_units
        assert (0, 1) in report.per_unit

    def test_vertex_count_mismatch(self):
        g = generate_synthetic(10, 0.4, seed=1)
        g2 = generate_synthetic(11, 0.4, seed=1)
        with pytest.raises(ValueError):
            emd_report(g, g2, QueryKind.PAGERANK, [0], n_samples=5, seed=0)


class TestVarianceProtocol:
    def test_deterministic_graph_zero_variance(self):
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        var = variance_protocol(g, QueryKind.RELIABILITY, [(0, 2)], n_samples=10, n_runs=5, seed=0)
        assert var[(0, 2)] == 0.0

    def test_matches_definitional_recomputation(self):
        g = UncertainGraph(2, [(0, 1, 0.5)])
        unit = (0, 1)
        n_runs, n_samples = 6, 20
        var = variance_protocol(g, QueryKind.RELIABILITY, [unit], n_samples, n_runs, seed=11)
        estimates = [
            mc_point_estimates(g, QueryKind.RELIABILITY, [unit], n_samples, 11, key=(r,))[unit]
            for r in range(n_runs)
        ]
        assert var[unit] == pytest.approx(np.var(estimates, ddof=1), abs=1e-15)

    def test_two_runs_formula(self):
        # with two runs the unbiased variance is (x0-x1)^2 / 2
        g = UncertainGraph(2, [(0, 1, 0.5)])
        unit = (0, 1)
        var = variance_protocol(g, QueryKind.RELIABILITY, [unit], 5, 2, seed=3)
        estimates = [
            mc_point_estimates(g, QueryKind.RELIABILITY, [unit], 5, 3, key=(r,))[unit]
            for r in range(2)
        ]
        assert var[unit] == pytest.approx((estimates[0] - estimates[1]) ** 2 / 2, abs=1e-15)

    def test_binomial_theory_band(self):
        g = UncertainGraph(2, [(0, 1, 0.5)])
        unit = (0, 1)
        theory = 0.25 / 100
        var = variance_protocol(g, QueryKind.RELIABILITY, [unit], n_samples=100, n_runs=100, seed=7)
        assert theory / 3 <= var[unit] <= 3 * theory

    @pytest.mark.parametrize("kind", list(QueryKind))
    def test_each_run_is_its_point_estimate(self, kind):
        # bit for bit: run r's estimate is mc_point_estimates on key (r,)
        g = oracle_graph(3)
        units = default_units(g, kind, n_pairs=30, seed=2)
        n_runs, n_samples = 20, 24
        var = variance_protocol(g, kind, units, n_samples, n_runs, seed=6)
        runs = [mc_point_estimates(g, kind, units, n_samples, 6, key=(r,)) for r in range(n_runs)]
        for unit in units:
            estimates = [run[unit] for run in runs]
            if any(math.isnan(e) for e in estimates):
                assert math.isnan(var[unit])
            else:
                assert var[unit] == float(np.var(estimates, ddof=1))

    def test_needs_two_runs(self):
        g = UncertainGraph(2, [(0, 1, 0.5)])
        with pytest.raises(ValueError):
            variance_protocol(g, QueryKind.RELIABILITY, [(0, 1)], 5, 1, seed=0)


class TestQueryValueBounds:
    @pytest.mark.parametrize("seed", range(3))
    def test_clustering_coefficient_in_unit_interval(self, seed):
        g = generate_synthetic(15, 0.4, seed=seed)
        values = kernel_values(g, QueryKind.CLUSTERING_COEFFICIENT, range(g.n),
                               sample_masks(g, seed, (), 20))
        assert np.all((values >= 0.0) & (values <= 1.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_pagerank_is_probability_vector(self, seed):
        g = generate_synthetic(15, 0.4, seed=seed)
        scores = pagerank_world(g, sample_masks(g, seed + 10, (), 20))
        assert np.all(scores >= 0)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    def test_reliability_estimates_in_unit_interval(self):
        g = generate_synthetic(10, 0.4, seed=1)
        est = mc_point_estimates(g, QueryKind.RELIABILITY, [(0, 5), (1, 2)], 50, seed=4)
        assert all(0.0 <= v <= 1.0 for v in est.values())


# ---------------------------------------------------------------------------
# The batched engine against networkx, one rebuilt world at a time
# ---------------------------------------------------------------------------


def oracle_graph(seed, n=16, m=34):
    """Random graph with three isolated vertices and p = 0, p = 1 and interior edges."""
    rng = derive_rng(seed, 0x0AC)
    pairs = list(combinations(range(n - 3), 2))
    edges = []
    for i in rng.choice(len(pairs), size=m, replace=False):
        kind = int(rng.integers(0, 4))
        p = 0.0 if kind == 0 else 1.0 if kind == 1 else 0.1 + 0.8 * float(rng.random())
        edges.append((*pairs[i], p))
    return UncertainGraph(n, edges, allow_zero=True)


def networkx_values(g, kind, units, mask):
    world = nx.Graph()
    world.add_nodes_from(range(g.n))
    world.add_edges_from(e for e, present in zip(g.edge_pairs, mask) if present)
    if kind is QueryKind.PAGERANK:
        scores = nx.pagerank(world, alpha=0.85, tol=1e-13, max_iter=1000)
        return [scores[u] for u in units]
    if kind is QueryKind.CLUSTERING_COEFFICIENT:
        coefficients = nx.clustering(world)
        return [coefficients[u] for u in units]
    if kind is QueryKind.RELIABILITY:
        return [1.0 if nx.has_path(world, u, v) else 0.0 for u, v in units]
    lengths = {u: nx.single_source_shortest_path_length(world, u) for u, _ in units}
    return [float(lengths[u].get(v, math.nan)) for u, v in units]


class TestEngineMatchesNetworkx:
    @pytest.mark.parametrize("kind", list(QueryKind))
    @pytest.mark.parametrize("seed", range(3))
    def test_every_world_matches(self, kind, seed, monkeypatch):
        g = oracle_graph(seed)
        units = default_units(g, kind, n_pairs=60, seed=seed)
        n_worlds = 25
        # the sampled worlds, then the empty world
        masks = np.vstack([sample_masks(g, seed, (), n_worlds), np.zeros((1, g.m), dtype=bool)])
        expected = np.array([networkx_values(g, kind, units, row) for row in masks])
        atol = 1e-8 if kind is QueryKind.PAGERANK else 0.0
        got = kernel_values(g, kind, units, masks)
        np.testing.assert_allclose(got, expected, rtol=0, atol=atol)
        # mc_distributions reads the same worlds, one chunk per world
        monkeypatch.setattr(evaluation, "CHUNK_CELLS", 1)
        dists = mc_distributions(g, kind, units, n_worlds, seed)
        for unit, column in zip(units, got[:n_worlds].T):
            assert np.array_equal(dists[unit].values, np.sort(column[~np.isnan(column)]))

    @pytest.mark.parametrize("kind", list(QueryKind))
    def test_chunking_keeps_every_bit(self, kind, monkeypatch):
        g = oracle_graph(7)
        units = default_units(g, kind, n_pairs=40, seed=1)

        def run():
            dists = mc_distributions(g, kind, units, 9, seed=4)
            var = variance_protocol(g, kind, units, n_samples=5, n_runs=4, seed=4)
            return [dists[u].values.tolist() for u in units], [var[u] for u in units]

        whole_values, whole_var = run()
        # one world per chunk, runs split over chunks, and one chunk per run
        for cells in (1, 200, 2000):
            monkeypatch.setattr(evaluation, "CHUNK_CELLS", cells)
            values, var = run()
            assert values == whole_values
            np.testing.assert_array_equal(var, whole_var)

    @pytest.mark.parametrize("kind", [QueryKind.SHORTEST_PATH, QueryKind.RELIABILITY])
    def test_chunks_bound_the_unit_values(self, kind, monkeypatch):
        # a sparse graph with many pairs: the (B, U) values are a chunk's widest array
        g = generate_synthetic(60, 2 / 59, seed=3)
        units = default_units(g, kind, n_pairs=1000, seed=2)
        rows = []

        def recording_sample_masks(*args, **kwargs):
            masks = sample_masks(*args, **kwargs)
            rows.append(len(masks))
            return masks

        monkeypatch.setattr(evaluation, "sample_masks", recording_sample_masks)
        monkeypatch.setattr(evaluation, "CHUNK_CELLS", 8000)
        assert 2 * (g.m + g.n) < 1000
        mc_distributions(g, kind, units, 20, seed=1)
        assert sum(rows) == 20
        assert max(rows) * len(units) <= 8000
