"""Tests for the uncertain-graph data model, worlds and the exact oracle."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usparse.evaluation import (
    QueryKind,
    component_labels,
    mc_distributions,
    quality,
    sample_masks,
)
from usparse.graph import (
    DeterministicWorld,
    GraphFormatError,
    UncertainGraph,
    derive_rng,
    edge_entropy,
    exact_query_probability,
    expected_cut_size,
    generate_synthetic,
    graph_entropy,
    load_graph,
    sample_k_subset,
    sampled_k_discrepancy_mae,
    save_graph,
)


def world_frequency(g, predicate, n_samples, seed):
    """Share of the evaluation sampler's worlds 0..n_samples-1 where predicate holds.

    The predicate maps the (n_samples, |E|) edge-mask matrix to one bool per world.
    """
    return float(np.mean(predicate(sample_masks(g, seed, (), n_samples))))


def triangle(p=0.5):
    return UncertainGraph(3, [(0, 1, p), (0, 2, p), (1, 2, p)])


def random_graph(n, m, seed, low=0.05, high=1.0):
    rng = derive_rng(seed)
    pairs = list(combinations(range(n), 2))
    idx = rng.choice(len(pairs), size=m, replace=False)
    return UncertainGraph(
        n, [(pairs[i][0], pairs[i][1], float(low + (high - low) * rng.random())) for i in idx]
    )


# ---------------------------------------------------------------------------
# Construction and invariants
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_canonical_sorted_edges(self):
        g = UncertainGraph(4, [(3, 1, 0.5), (2, 0, 0.25)])
        assert g.edges == ((0, 2, 0.25), (1, 3, 0.5))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            UncertainGraph(2, [(0, 0, 0.5)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            UncertainGraph(3, [(0, 1, 0.5), (1, 0, 0.25)])

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            UncertainGraph(3, [(0, 1, 1.5)])
        with pytest.raises(ValueError, match="probability"):
            UncertainGraph(3, [(0, 1, 0.0)])

    def test_allow_zero_for_sparsified(self):
        g = UncertainGraph(3, [(0, 1, 0.0), (1, 2, 1.0)], allow_zero=True)
        assert g.m == 2

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            UncertainGraph(2, [(0, 5, 0.5)])

    def test_isolated_vertices_are_legal(self):
        g = UncertainGraph(10, [(0, 1, 0.5)])
        assert g.n == 10 and g.degree_vector()[9] == 0.0


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


class TestEntropy:
    def test_half_is_one_bit(self):
        assert edge_entropy(0.5) == 1.0

    def test_deterministic_edge(self):
        assert edge_entropy(1.0) == 0.0
        assert edge_entropy(0.0) == 0.0

    def test_value_at_point_two(self):
        # frozen from direct evaluation of -p log2 p - (1-p) log2 (1-p)
        assert edge_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-15)

    def test_graph_entropy_all_certain(self):
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert graph_entropy(g) == 0.0

    def test_graph_entropy_additive(self):
        g = UncertainGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        assert graph_entropy(g) == pytest.approx(3.0, abs=1e-12)

    def test_graph_entropy_mixed(self):
        g = UncertainGraph(3, [(0, 1, 0.2), (1, 2, 0.8)])
        assert graph_entropy(g) == pytest.approx(1.4438561897747246, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_entropy_bounds(self, p):
        h = edge_entropy(p)
        assert 0.0 <= h <= 1.0

    def test_zero_iff_all_probabilities_one(self):
        g = random_graph(12, 20, seed=3, low=0.05, high=0.95)
        assert graph_entropy(g) > 0.0
        certain = UncertainGraph(g.n, [(u, v, 1.0) for u, v, _ in g.edges])
        assert graph_entropy(certain) == 0.0


# ---------------------------------------------------------------------------
# Degrees, cuts, discrepancies
# ---------------------------------------------------------------------------


class TestDegreesAndCuts:
    def test_star_degree(self):
        g = UncertainGraph(4, [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)])
        assert g.degree_vector()[0] == pytest.approx(0.6, abs=1e-15)

    def test_degree_out_of_range(self):
        # a vertex's degree is its singleton cut, which refuses foreign vertices
        g = triangle()
        with pytest.raises(ValueError, match="out of range"):
            expected_cut_size(g, [3])

    def test_cut_empty_and_full(self):
        g = triangle()
        assert expected_cut_size(g, []) == 0.0
        assert expected_cut_size(g, [0, 1, 2]) == 0.0

    def test_cut_singleton_triangle(self):
        assert expected_cut_size(triangle(0.5), [0]) == pytest.approx(1.0)

    def test_cut_path_ends(self):
        g = UncertainGraph(3, [(0, 1, 0.3), (1, 2, 0.7)])
        # hand enumeration: both edges cross S={0,2}
        assert expected_cut_size(g, [0, 2]) == pytest.approx(1.0)

    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_degree_equals_singleton_cut(self, u):
        g = random_graph(10, 18, seed=7)
        assert g.degree_vector()[u] == pytest.approx(expected_cut_size(g, [u]), abs=1e-12)

    def test_degree_sum_is_twice_mass(self):
        g = random_graph(15, 40, seed=11)
        assert g.degree_vector().sum() == pytest.approx(2.0 * g.probabilities.sum(), abs=1e-9)

    def test_discrepancy_identity_graph(self):
        g = random_graph(8, 12, seed=5)
        assert quality(g, g)["degree_objective"] == 0.0
        for size in (1, 3):
            assert sampled_k_discrepancy_mae(g, g, size, 20, seed=0) == 0.0

    def test_discrepancy_values(self):
        # vertex 0's degree 2 vs 1.5: absolute difference 0.5, relative 0.25;
        # vertices 1 and 2 each lose 0.25, so the squared sum is 0.375
        g = UncertainGraph(3, [(0, 1, 1.0), (0, 2, 1.0)])
        g2 = UncertainGraph(3, [(0, 1, 0.75), (0, 2, 0.75)])
        delta = g.degree_vector() - g2.degree_vector()
        assert delta[0] == pytest.approx(0.5)
        assert delta[0] / g.degree_vector()[0] == pytest.approx(0.25)
        assert quality(g, g2)["degree_objective"] == pytest.approx(0.375)


class TestSampledDiscrepancyMae:
    def test_zero_for_identical(self):
        g = random_graph(12, 25, seed=2)
        assert sampled_k_discrepancy_mae(g, g, 3, 50, seed=1) == 0.0

    def test_k_out_of_range(self):
        g = triangle()
        with pytest.raises(ValueError):
            sampled_k_discrepancy_mae(g, g, 0, 10, seed=1)
        with pytest.raises(ValueError):
            sampled_k_discrepancy_mae(g, g, 4, 10, seed=1)

    def test_singleton_cuts_equal_degree_mae_when_uniform(self):
        # all singleton discrepancies equal, so any sample mean matches exactly
        g = UncertainGraph(4, [(u, v, 0.6) for u, v in combinations(range(4), 2)])
        g2 = UncertainGraph(4, [(u, v, 0.3) for u, v in combinations(range(4), 2)])
        mae = sampled_k_discrepancy_mae(g, g2, 1, 4, seed=9)
        assert mae == pytest.approx(3 * 0.3, abs=1e-12)

    def test_k2_matches_exhaustive_on_symmetric_instance(self):
        # complete K4: every 2-subset has 4 crossing edges, delta = 4 * 0.3 = 1.2
        g = UncertainGraph(4, [(u, v, 0.6) for u, v in combinations(range(4), 2)])
        g2 = UncertainGraph(4, [(u, v, 0.3) for u, v in combinations(range(4), 2)])
        exhaustive = np.mean(
            [abs(expected_cut_size(g, s) - expected_cut_size(g2, s)) for s in combinations(range(4), 2)]
        )
        assert exhaustive == pytest.approx(1.2, abs=1e-12)
        assert sampled_k_discrepancy_mae(g, g2, 2, 30, seed=4) == pytest.approx(1.2, abs=1e-12)

    def test_k2_converges_to_exhaustive_mean(self):
        g = random_graph(6, 10, seed=21)
        g2 = UncertainGraph(6, [(u, v, p / 2) for u, v, p in g.edges])
        values = [
            abs(expected_cut_size(g, s) - expected_cut_size(g2, s))
            for s in combinations(range(6), 2)
        ]
        mean, sd = np.mean(values), np.std(values)
        n_cuts = 4000
        mae = sampled_k_discrepancy_mae(g, g2, 2, n_cuts, seed=8)
        assert abs(mae - mean) < 5 * sd / math.sqrt(n_cuts) + 1e-12

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_floyd_sampler_is_uniform_sized(self, k, seed):
        subset = sample_k_subset(derive_rng(seed), 8, k)
        assert len(subset) == k and len(set(subset)) == k
        assert all(0 <= x < 8 for x in subset)


# ---------------------------------------------------------------------------
# Possible worlds
# ---------------------------------------------------------------------------


class TestWorlds:
    def test_all_certain_edges_present(self):
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert sample_masks(g, 0, (), 4).tolist() == [[True, True]] * 4

    def test_tiny_probability_world_mostly_empty(self):
        g = UncertainGraph(2, [(0, 1, 0.000001)])
        freq = world_frequency(g, lambda masks: ~masks.any(axis=1), 100_000, seed=5)
        # binomial 5-sigma band around q = (1 - 1e-6)
        q = 1.0 - 1e-6
        assert abs(freq - q) <= 5 * math.sqrt(q * (1 - q) / 100_000) + 1e-9

    def test_inclusion_frequency_binomial_bound(self):
        g = UncertainGraph(2, [(0, 1, 0.3)])
        n = 100_000
        freq = world_frequency(g, lambda masks: masks[:, 0], n, seed=17)
        assert abs(freq - 0.3) <= 5 * math.sqrt(0.3 * 0.7 / n)

    def test_sampling_deterministic_given_seed(self):
        g = random_graph(10, 20, seed=1)
        assert np.array_equal(sample_masks(g, 42, (3,), 6), sample_masks(g, 42, (3,), 6))

    def test_row_i_is_world_i_of_its_stream(self):
        g = random_graph(10, 20, seed=1)
        masks = sample_masks(g, 42, (3,), 6)
        for i, row in enumerate(masks):
            assert np.array_equal(row, derive_rng(42, 3, i).random(g.m) < g.probabilities)
        # a block of rows drawn on its own holds the same worlds
        assert np.array_equal(sample_masks(g, 42, (3,), 3, start=2), masks[2:5])

    def test_world_reachability_and_components(self):
        w = DeterministicWorld(5, [(0, 1), (1, 2), (3, 4)])
        assert w.reachable(0, 2) and not w.reachable(0, 3)
        labels = w.component_labels()
        assert labels[0] == labels[2] != labels[3] == labels[4]
        assert not w.is_connected()

    def test_engine_components_of_the_one_world(self):
        # every p = 1, so each sampled world is the whole edge set
        g = UncertainGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        for labels in component_labels(g, sample_masks(g, 0, (), 3)):
            assert labels[0] == labels[1] == labels[2] != labels[3] == labels[4]

    def test_world_hop_distances_match_the_engine(self):
        g = UncertainGraph(4, [(0, 1, 1.0), (1, 2, 1.0)])
        world = DeterministicWorld(g.n, g.edge_pairs)
        assert world.hop_distances(0) == [0, 1, 2, math.inf]
        dists = mc_distributions(g, QueryKind.SHORTEST_PATH, [(0, 2), (0, 3)], n_samples=1, seed=0)
        assert [d.values.tolist() for d in dists.values()] == [[2.0], []]

    def test_hop_distances(self):
        g = UncertainGraph(4, [(0, 1, 1.0), (1, 2, 1.0)])
        units = [(0, 1), (0, 2), (0, 3), (2, 0)]
        dists = mc_distributions(g, QueryKind.SHORTEST_PATH, units, n_samples=3, seed=0)
        assert [dists[u].values.tolist() for u in units] == [[1.0] * 3, [2.0] * 3, [], [2.0] * 3]


class TestExactOracle:
    def test_single_edge_presence(self):
        g = UncertainGraph(2, [(0, 1, 0.3)])
        assert exact_query_probability(g, lambda w: w.m == 1) == pytest.approx(0.3, abs=1e-12)

    def test_triangle_connected(self):
        # brute force over the 8 worlds: 4 connected worlds at p=0.5 each -> 0.5
        assert exact_query_probability(triangle(0.5), lambda w: w.is_connected()) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_constant_true_totals_one(self):
        g = random_graph(8, 12, seed=13)
        assert exact_query_probability(g, lambda w: True) == pytest.approx(1.0, abs=1e-12)

    def test_edge_cap(self):
        g = random_graph(10, 26, seed=1)
        with pytest.raises(ValueError, match="enumeration"):
            exact_query_probability(g, lambda w: True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mc_within_five_sigma_of_exact(self, seed):
        g = random_graph(7, 10, seed=seed, low=0.2, high=0.9)
        pair = (0, g.n - 1)
        q = exact_query_probability(g, lambda w: w.reachable(*pair))
        n = 100_000
        freq = mc_distributions(g, QueryKind.RELIABILITY, [pair], n, seed=seed + 100)[pair].mean()
        assert abs(freq - q) <= 5 * math.sqrt(q * (1 - q) / n) + 1e-12


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


class TestGenerateSynthetic:
    def test_density_one_gives_complete_graph(self):
        g = generate_synthetic(8, 1.0, seed=0)
        assert g.m == 28

    def test_edge_count_formula(self):
        g = generate_synthetic(100, 0.15, seed=1)
        assert g.m == 743  # ceil(0.15 * 4950)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_always_connected(self, seed):
        g = generate_synthetic(40, 0.08, seed=seed)
        world = DeterministicWorld(g.n, [(u, v) for u, v, _ in g.edges])
        assert world.is_connected()

    def test_density_below_connectivity_threshold(self):
        with pytest.raises(ValueError, match="connectivity"):
            generate_synthetic(100, 0.001, seed=0)

    def test_deterministic(self):
        g1 = generate_synthetic(30, 0.2, seed=9)
        g2 = generate_synthetic(30, 0.2, seed=9)
        assert g1.edges == g2.edges


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


class TestFileFormat:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1 0.5\n1 2 0.25\n")
        g = load_graph(path)
        assert g.n == 3 and g.m == 2

    def test_header_overrides_n(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# n=7\n0 1 0.5\n")
        assert load_graph(path).n == 7

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# a comment\n\n0 1 0.5 # trailing note\n")
        g = load_graph(path)
        assert g.m == 1

    def test_self_loop_reports_line(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1 0.5\n0 0 0.5\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)

    def test_probability_range_reports_line(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1 1.5\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph(path)

    def test_duplicate_edge_reports_line(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1 0.5\n1 0 0.5\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph(path)

    def test_bad_last_line_of_large_file_reported_in_log_time(self, tmp_path, monkeypatch):
        import usparse.graph as graph_mod

        m = 20_000
        lines = [f"{i} {i + 1} 0.5" for i in range(m - 1)] + ["1 0 0.5"]
        path = tmp_path / "big.el"
        path.write_text("\n".join(lines) + "\n")
        built = []

        class CountingGraph(UncertainGraph):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(graph_mod, "UncertainGraph", CountingGraph)
        with pytest.raises(GraphFormatError, match=f"line {m}: duplicate edge \\(0, 1\\)"):
            load_graph(path)
        assert len(built) <= 2 * math.log2(m) + 2

    def test_zero_probability_only_for_sparsified(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1 0.0\n1 2 0.5\n")
        with pytest.raises(GraphFormatError):
            load_graph(path)
        assert load_graph(path, allow_zero=True).m == 2

    def test_round_trip(self, tmp_path):
        g = random_graph(12, 30, seed=6)
        path = tmp_path / "g.el"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.n == g.n and g2.edges == g.edges

    def test_round_trip_bytes_identical(self, tmp_path):
        g = random_graph(9, 14, seed=8)
        p1, p2 = tmp_path / "a.el", tmp_path / "b.el"
        save_graph(g, p1)
        save_graph(load_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
