"""Tests for the Monte-Carlo query harness and distribution comparison."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usparse.evaluation import (
    EmdReport,
    QueryDistribution,
    QueryKind,
    clustering_coefficient_world,
    default_units,
    earth_movers_distance,
    emd_report,
    mc_distributions,
    mc_point_estimates,
    pagerank_world,
    quality,
    variance_protocol,
)
from usparse.graph import (
    DeterministicWorld,
    UncertainGraph,
    exact_query_probability,
    generate_synthetic,
    graph_entropy,
)


def dist(values, kind=QueryKind.PAGERANK, unit=0):
    arr = np.sort(np.asarray(values, dtype=float))
    return QueryDistribution(kind, unit, arr, len(arr))


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
        w = DeterministicWorld(5, [])
        assert np.allclose(pagerank_world(w), 0.2)

    def test_scores_sum_to_one(self):
        g = generate_synthetic(30, 0.2, seed=1)
        w = DeterministicWorld(g.n, [(u, v) for u, v, _ in g.edges])
        assert pagerank_world(w).sum() == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_pair_equal_scores(self):
        w = DeterministicWorld(4, [(0, 1), (2, 3)])
        scores = pagerank_world(w)
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)
        assert scores[0] == pytest.approx(scores[2], abs=1e-10)

    def test_matches_linear_system_solution(self):
        # stationary equations solved directly as an independent oracle
        w = DeterministicWorld(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])
        n, d = 6, 0.85
        A = np.zeros((n, n))
        deg = [0] * n
        for u, v in w.edges:
            deg[u] += 1
            deg[v] += 1
        for u, v in w.edges:
            A[v, u] += 1 / deg[u]
            A[u, v] += 1 / deg[v]
        for x in range(n):
            if deg[x] == 0:
                A[:, x] = 1 / n
        expected = np.linalg.solve(np.eye(n) - d * A, np.full(n, (1 - d) / n))
        assert np.allclose(pagerank_world(w), expected, atol=1e-9)


class TestClusteringCoefficient:
    def test_triangle_vertex(self):
        w = DeterministicWorld(3, [(0, 1), (0, 2), (1, 2)])
        assert clustering_coefficient_world(w, 0) == 1.0

    def test_star_center(self):
        w = DeterministicWorld(4, [(0, 1), (0, 2), (0, 3)])
        assert clustering_coefficient_world(w, 0) == 0.0

    def test_four_clique(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        w = DeterministicWorld(4, edges)
        assert clustering_coefficient_world(w, 2) == 1.0

    def test_low_degree_is_zero(self):
        w = DeterministicWorld(3, [(0, 1)])
        assert clustering_coefficient_world(w, 0) == 0.0
        assert clustering_coefficient_world(w, 2) == 0.0

    def test_half_connected_neighborhood(self):
        w = DeterministicWorld(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert clustering_coefficient_world(w, 0) == pytest.approx(1 / 3)


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

    def test_needs_two_runs(self):
        g = UncertainGraph(2, [(0, 1, 0.5)])
        with pytest.raises(ValueError):
            variance_protocol(g, QueryKind.RELIABILITY, [(0, 1)], 5, 1, seed=0)


class TestQueryValueBounds:
    @pytest.mark.parametrize("seed", range(3))
    def test_clustering_coefficient_in_unit_interval(self, seed):
        from usparse.graph import derive_rng, sample_world

        g = generate_synthetic(15, 0.4, seed=seed)
        w = sample_world(g, derive_rng(seed))
        for u in range(g.n):
            assert 0.0 <= clustering_coefficient_world(w, u) <= 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_pagerank_is_probability_vector(self, seed):
        from usparse.graph import derive_rng, sample_world

        g = generate_synthetic(15, 0.4, seed=seed)
        w = sample_world(g, derive_rng(seed + 10))
        scores = pagerank_world(w)
        assert np.all(scores >= 0)
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)

    def test_reliability_estimates_in_unit_interval(self):
        g = generate_synthetic(10, 0.4, seed=1)
        est = mc_point_estimates(g, QueryKind.RELIABILITY, [(0, 5), (1, 2)], 50, seed=4)
        assert all(0.0 <= v <= 1.0 for v in est.values())
