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
from usparse.config import RunConfig
from usparse.dispatch import sparsify
from usparse.evaluation import (
    Answers,
    CutProfile,
    QueryKind,
    component_labels,
    default_units,
    earth_movers_distance,
    emd_report,
    pagerank_world,
    quality,
    sample_answers,
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


def columns(answers):
    """Each unit's sorted defined values: the Answers columns with NaNs dropped."""
    return {unit: np.sort(column[~np.isnan(column)])
            for unit, column in zip(answers.units, answers.values.T)}


def point_estimates(g, kind, units, n_samples, seed, key):
    """Each unit's Monte-Carlo point estimate over worlds 0..n_samples-1 of stream
    (seed, *key): the mean of its sorted defined values, NaN for a shortest-path
    unit connected in no world."""
    values = kernel_values(g, kind, units, sample_masks(g, seed, key, n_samples))
    dists = columns(Answers(units, values, None))
    return {unit: float(np.mean(d)) if len(d) else math.nan for unit, d in dists.items()}


def answers_report(g, g2, kind, units, n_samples, seed):
    """The EMD report of g2 against g, each sampled once on the same stream."""
    return emd_report(sample_answers(g, kind, units, n_samples, seed),
                      sample_answers(g2, kind, units, n_samples, seed))


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
        dists = columns(sample_answers(g, QueryKind.PAGERANK, [0, 1], n_samples=20, seed=0))
        for d in dists.values():
            assert len(np.unique(d)) == 1

    def test_reliability_single_edge_frequency(self):
        g = UncertainGraph(2, [(0, 1, 0.3)])
        n = 20_000
        dists = columns(sample_answers(g, QueryKind.RELIABILITY, [(0, 1)], n_samples=n, seed=3))
        freq = dists[(0, 1)].mean()

        def reaches(masks):
            labels = component_labels(g, masks)
            return labels[:, 0] == labels[:, 1]

        assert freq == np.count_nonzero(reaches(sample_masks(g, 3, (), n))) / n
        exact = exact_query_probability(g, reaches)
        assert exact == pytest.approx(0.3, abs=1e-12)
        assert abs(freq - exact) <= 5 * math.sqrt(0.3 * 0.7 / n)

    def test_shortest_path_conditional_on_connected(self):
        # end-to-end distance on a 3-vertex path is 2 in every connected world
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 0.5)])
        dists = columns(sample_answers(g, QueryKind.SHORTEST_PATH, [(0, 2)], n_samples=400,
                                       seed=1))
        d = dists[(0, 2)]
        assert len(d) > 0
        assert np.all(d == 2.0)
        assert len(d) < 400  # disconnected worlds contribute nothing

    def test_shortest_path_never_connected_is_empty(self):
        g = UncertainGraph(3, [(0, 1, 0.9)])
        dists = columns(sample_answers(g, QueryKind.SHORTEST_PATH, [(0, 2)], n_samples=50,
                                       seed=2))
        assert len(dists[(0, 2)]) == 0

    def test_deterministic_given_seed(self):
        g = generate_synthetic(12, 0.4, seed=4)
        a = columns(sample_answers(g, QueryKind.PAGERANK, [0, 3], n_samples=30, seed=9))
        b = columns(sample_answers(g, QueryKind.PAGERANK, [0, 3], n_samples=30, seed=9))
        for u in (0, 3):
            assert np.array_equal(a[u], b[u])

    def test_invalid_units_rejected(self):
        g = generate_synthetic(10, 0.4, seed=1)
        with pytest.raises(ValueError):
            sample_answers(g, QueryKind.PAGERANK, [99], n_samples=5, seed=0)
        with pytest.raises(ValueError):
            sample_answers(g, QueryKind.RELIABILITY, [(0, 0)], n_samples=5, seed=0)

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
        f = [0.1, 0.4, 0.4, 0.9]
        assert earth_movers_distance(f, f) == 0.0

    def test_point_masses_unit_transport(self):
        assert earth_movers_distance([0.0], [1.0]) == pytest.approx(1.0)

    def test_three_point_hand_evaluation(self):
        # merged support {0, .5, 1, 2, 3}; |F1-F2| integrates to 1/6 + 1/3
        f1 = [0.0, 1.0, 2.0]
        f2 = [0.5, 1.0, 3.0]
        assert earth_movers_distance(f1, f2) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        f1 = [0.2, 0.7, 0.7, 1.3]
        f2 = [0.1, 0.9]
        assert earth_movers_distance(f1, f2) == pytest.approx(
            earth_movers_distance(f2, f1), abs=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            earth_movers_distance([], [1.0])
        with pytest.raises(ValueError):
            earth_movers_distance([1.0], [math.nan, math.nan])

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_independent_transport(self, xs, ys):
        got = earth_movers_distance(xs, ys)
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
            assert earth_movers_distance(xs, ys) == pytest.approx(
                transport_cost(xs, ys), abs=1e-12
            )


def per_unit_emd(xs, ys):
    """Bit reference: the per-unit formula eval scored each unit with before the
    column-wise form (a merged support, two searchsorted CDFs, one sum)."""
    v1, v2 = np.sort(xs), np.sort(ys)
    support = np.union1d(v1, v2)
    if len(support) == 1:
        return 0.0
    cdf1 = np.searchsorted(v1, support[:-1], side="right") / len(v1)
    cdf2 = np.searchsorted(v2, support[:-1], side="right") / len(v2)
    return float(np.sum(np.abs(cdf1 - cdf2) * np.diff(support)))


# a few atoms that tie across the sides, signed zeros among them
atoms = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), st.floats(-5, 5, allow_nan=False))


@st.composite
def padded_matrices(draw):
    """Two (B, U) matrices whose columns hold 0..B defined values at random rows."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 5))

    def side():
        matrix = np.full((rows, cols), np.nan)
        for j in range(cols):
            count = draw(st.integers(0, rows))
            where = draw(st.permutations(range(rows)))[:count]
            matrix[where, j] = draw(st.lists(atoms, min_size=count, max_size=count))
        return matrix

    return side(), side()


def defined(column):
    return column[~np.isnan(column)]


class TestTransportCosts:
    def check(self, left, right):
        costs = evaluation._transport_costs(left, right)
        assert costs.shape == (left.shape[1],)
        for j, cost in enumerate(costs):
            xs, ys = defined(left[:, j]), defined(right[:, j])
            if len(xs) == 0 or len(ys) == 0:
                assert math.isnan(cost)
                continue
            assert cost == per_unit_emd(xs, ys)
            assert cost == pytest.approx(transport_cost(xs, ys), abs=1e-9)

    @given(padded_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_transport_and_the_per_unit_bits(self, matrices):
        self.check(*matrices)

    def test_fixed_corner_cases(self):
        nan = math.nan
        # columns: no value anywhere, none on the left, none on the right,
        # one shared point, signed zeros only, ties across the sides, and
        # unequal defined counts with the NaNs spread over the rows
        left = np.array([[nan, nan, 1.0, 0.5, -0.0, 1.0, nan],
                         [nan, nan, 2.0, 0.5, 0.0, 2.0, 3.0],
                         [nan, nan, nan, nan, -0.0, 2.0, nan],
                         [nan, nan, 1.0, 0.5, nan, 1.0, -1.0]])
        right = np.array([[nan, 1.0, nan, 0.5, 0.0, 2.0, nan],
                          [nan, 2.0, nan, nan, 0.0, 1.0, nan],
                          [nan, nan, nan, 0.5, -0.0, 2.0, 0.0],
                          [nan, nan, nan, 0.5, nan, 3.0, nan]])
        costs = evaluation._transport_costs(left, right)
        assert np.isnan(costs[:3]).all()
        assert costs[3] == 0.0 and costs[4] == 0.0
        self.check(left, right)

    @pytest.mark.parametrize("decimals", [1, 3, None])
    def test_wide_supports_keep_the_per_unit_bits(self, decimals):
        # supports past numpy's 8- and 128-element summation blocks
        rng = np.random.default_rng(5)
        left, right = (rng.normal(size=(300, 40)) for _ in range(2))
        if decimals is not None:
            left, right = left.round(decimals), right.round(decimals)
        left[rng.random(left.shape) < 0.3] = np.nan
        right[:, ::7] = np.nan
        self.check(left, right)
        for matrix in (left, right):
            means = evaluation._sorted_means(matrix)
            for j, mean in enumerate(means):
                column = defined(matrix[:, j])
                assert (math.isnan(mean) if len(column) == 0
                        else mean == float(np.sort(column).mean()))

    def test_report_scores_each_unit_like_the_pair_of_samples(self):
        g = oracle_graph(4)
        g2 = UncertainGraph(g.n, [(u, v, p / 2) for u, v, p in g.edges], allow_zero=True)
        units = default_units(g, QueryKind.SHORTEST_PATH, n_pairs=60, seed=1)
        report = answers_report(g, g2, QueryKind.SHORTEST_PATH, units, n_samples=40, seed=2)
        left = columns(sample_answers(g, QueryKind.SHORTEST_PATH, units, 40, 2))
        right = columns(sample_answers(g2, QueryKind.SHORTEST_PATH, units, 40, 2))
        assert np.isnan(report.emd).any() and not np.isnan(report.emd).all()
        for j, unit in enumerate(units):
            xs, ys = left[unit], right[unit]
            if len(xs) and len(ys):
                assert report.emd[j] == per_unit_emd(xs, ys)
            else:
                assert math.isnan(report.emd[j])
            for mean, samples in ((report.mean_left[j], xs), (report.mean_right[j], ys)):
                assert math.isnan(mean) if len(samples) == 0 else mean == samples.mean()


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


class TestCutProfile:
    # CutProfile(g, 200, 3).mae on the README graph's outputs at alpha 0.3, sparsify seed 7
    PINNED_MAE = {
        "gdb": "0x1.02cfeb6a35d25p+5",
        "ni": "0x1.2193e4aafe796p+5",
        "ss": "0x1.3fd9c1327633bp+5",
    }

    def test_readme_graph_bits_pinned(self):
        g = generate_synthetic(100, 0.15, seed=1)
        profile = CutProfile(g, 200, 3)
        for method, pinned in self.PINNED_MAE.items():
            out, _ = sparsify(g, RunConfig(method=method, alpha=0.3, seed=7))
            assert profile.mae(out) == float.fromhex(pinned), method


class TestEmdReport:
    def test_self_comparison_same_seed_is_zero(self):
        g = generate_synthetic(12, 0.4, seed=7)
        report = answers_report(g, g, QueryKind.PAGERANK, [0, 1, 2], n_samples=40, seed=3)
        assert report.mean == 0.0 and report.max == 0.0

    def test_self_comparison_different_worlds_noise_floor(self):
        g = generate_synthetic(12, 0.4, seed=7)
        left = columns(sample_answers(g, QueryKind.PAGERANK, [0], n_samples=60, seed=1))
        right = columns(sample_answers(g, QueryKind.PAGERANK, [0], n_samples=60, seed=2))
        noise = earth_movers_distance(left[0], right[0])
        assert noise > 0.0  # measured baseline, small but nonzero

    def test_mean_is_arithmetic_mean(self):
        g = generate_synthetic(12, 0.4, seed=8)
        g2 = UncertainGraph(g.n, [(u, v, min(1.0, p * 1.5)) for u, v, p in g.edges])
        units = [0, 1, 2, 3]
        report = answers_report(g, g2, QueryKind.PAGERANK, units, n_samples=30, seed=4)
        assert not np.isnan(report.emd).any()
        assert report.mean == pytest.approx(np.mean(report.emd))

    def test_sp_empty_units_skipped_and_counted(self):
        g = UncertainGraph(4, [(0, 1, 0.9), (2, 3, 0.9)])
        g2 = UncertainGraph(4, [(0, 1, 0.9)])
        report = answers_report(
            g, g2, QueryKind.SHORTEST_PATH, [(0, 1), (2, 3)], n_samples=30, seed=5
        )
        assert report.units == [(0, 1), (2, 3)]
        assert math.isnan(report.emd[1]) and math.isnan(report.mean_right[1])
        assert not math.isnan(report.emd[0])
        assert report.mean == report.max == report.emd[0]

    def test_vertex_count_mismatch(self):
        # each graph's answers are over its own vertices: a units mismatch
        g = generate_synthetic(10, 0.4, seed=1)
        g2 = generate_synthetic(11, 0.4, seed=1)
        left, right = (sample_answers(graph, QueryKind.PAGERANK,
                                      default_units(graph, QueryKind.PAGERANK), 5, seed=0)
                       for graph in (g, g2))
        with pytest.raises(ValueError, match="different units"):
            emd_report(left, right)

    def test_units_mismatch(self):
        # answers over other units, or the same units in another order
        g = generate_synthetic(10, 0.4, seed=1)
        left = sample_answers(g, QueryKind.PAGERANK, [0, 1], n_samples=5, seed=0)
        for units in ([0], [0, 2], [1, 0]):
            right = sample_answers(g, QueryKind.PAGERANK, units, n_samples=5, seed=0)
            with pytest.raises(ValueError, match="different units"):
                emd_report(left, right)

    def test_scoring_samples_nothing(self, monkeypatch):
        g = generate_synthetic(10, 0.4, seed=1)
        left, right = (sample_answers(g, QueryKind.PAGERANK, [0, 1], n_samples=5, seed=seed)
                       for seed in (0, 1))
        monkeypatch.setattr(evaluation, "sample_masks", None)
        assert emd_report(left, right).mean > 0.0


class TestVarianceProtocol:
    def test_deterministic_graph_zero_variance(self):
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        var = variance_protocol(g, QueryKind.RELIABILITY, [(0, 2)], n_samples=10, n_runs=5, seed=0)
        assert var.tolist() == [0.0]

    def test_matches_definitional_recomputation(self):
        g = UncertainGraph(2, [(0, 1, 0.5)])
        unit = (0, 1)
        n_runs, n_samples = 6, 20
        var = variance_protocol(g, QueryKind.RELIABILITY, [unit], n_samples, n_runs, seed=11)
        estimates = [
            point_estimates(g, QueryKind.RELIABILITY, [unit], n_samples, 11, key=(r,))[unit]
            for r in range(n_runs)
        ]
        assert var[0] == pytest.approx(np.var(estimates, ddof=1), abs=1e-15)

    def test_two_runs_formula(self):
        # with two runs the unbiased variance is (x0-x1)^2 / 2
        g = UncertainGraph(2, [(0, 1, 0.5)])
        unit = (0, 1)
        var = variance_protocol(g, QueryKind.RELIABILITY, [unit], 5, 2, seed=3)
        estimates = [
            point_estimates(g, QueryKind.RELIABILITY, [unit], 5, 3, key=(r,))[unit]
            for r in range(2)
        ]
        assert var[0] == pytest.approx((estimates[0] - estimates[1]) ** 2 / 2, abs=1e-15)

    def test_binomial_theory_band(self):
        g = UncertainGraph(2, [(0, 1, 0.5)])
        unit = (0, 1)
        theory = 0.25 / 100
        var = variance_protocol(g, QueryKind.RELIABILITY, [unit], n_samples=100, n_runs=100, seed=7)
        assert theory / 3 <= var[0] <= 3 * theory

    @pytest.mark.parametrize("kind", list(QueryKind))
    def test_each_run_is_its_point_estimate(self, kind):
        # bit for bit: run r's estimate is the mean of stream (r,)'s defined values
        g = oracle_graph(3)
        units = default_units(g, kind, n_pairs=30, seed=2)
        n_runs, n_samples = 20, 24
        var = variance_protocol(g, kind, units, n_samples, n_runs, seed=6)
        assert var.shape == (len(units),)
        runs = [point_estimates(g, kind, units, n_samples, 6, key=(r,)) for r in range(n_runs)]
        for j, unit in enumerate(units):
            estimates = [run[unit] for run in runs]
            if any(math.isnan(e) for e in estimates):
                assert math.isnan(var[j])
            else:
                assert var[j] == float(np.var(estimates, ddof=1))

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
        answers = sample_answers(g, QueryKind.RELIABILITY, [(0, 5), (1, 2)], 50, seed=4)
        assert all(0.0 <= d.mean() <= 1.0 for d in columns(answers).values())


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
        # sample_answers reads the same worlds, one chunk per world
        monkeypatch.setattr(evaluation, "CHUNK_CELLS", 1)
        dists = columns(sample_answers(g, kind, units, n_worlds, seed))
        for unit, column in zip(units, got[:n_worlds].T):
            assert np.array_equal(dists[unit], np.sort(column[~np.isnan(column)]))

    @pytest.mark.parametrize("kind", list(QueryKind))
    def test_chunking_keeps_every_bit(self, kind, monkeypatch):
        g = oracle_graph(7)
        units = default_units(g, kind, n_pairs=40, seed=1)

        def run():
            dists = columns(sample_answers(g, kind, units, 9, seed=4))
            var = variance_protocol(g, kind, units, n_samples=5, n_runs=4, seed=4)
            return [dists[u].tolist() for u in units], var

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
        sample_answers(g, kind, units, 20, seed=1)
        assert sum(rows) == 20
        assert max(rows) * len(units) <= 8000
