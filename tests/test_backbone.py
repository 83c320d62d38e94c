"""Tests for backbone construction (spanning-forest and random variants)."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usparse.backbone import (
    BackboneGraph,
    build_backbone,
    default_alpha_prime,
    iterated_spanning_forests,
    max_spanning_forest,
    random_backbone,
    target_edge_count,
)
from usparse.graph import DeterministicWorld, UncertainGraph, generate_synthetic


def complete_graph(n, p=0.5):
    return UncertainGraph(n, [(u, v, p) for u, v in combinations(range(n), 2)])


class TestMaxSpanningForest:
    def test_tree_input_returns_itself(self):
        edges = [(0, 1, 0.4), (1, 2, 0.9), (2, 3, 0.1)]
        assert sorted(max_spanning_forest(4, edges)) == [(0, 1), (1, 2), (2, 3)]

    def test_triangle_keeps_two_heaviest(self):
        edges = [(0, 1, 0.9), (0, 2, 0.5), (1, 2, 0.1)]
        assert sorted(max_spanning_forest(3, edges)) == [(0, 1), (0, 2)]

    def test_equal_weights_tie_break_lexicographic(self):
        # 4-cycle with equal p: keeps the 3 lexicographically smallest edges
        edges = [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5)]
        assert sorted(max_spanning_forest(4, edges)) == [(0, 1), (0, 3), (1, 2)]

    def test_disconnected_input_gives_forest(self):
        edges = [(0, 1, 0.5), (2, 3, 0.5)]
        assert sorted(max_spanning_forest(4, edges)) == [(0, 1), (2, 3)]


class TestIteratedForests:
    def test_forests_are_edge_disjoint(self):
        g = generate_synthetic(20, 0.4, seed=3)
        forests = list(iterated_spanning_forests(g))
        seen = set()
        for f in forests:
            for e in f:
                assert e not in seen
                seen.add(e)
        assert len(seen) == g.m  # exhaustion partitions the edge set

    def test_tree_exhausts_in_one_round(self):
        g = UncertainGraph(4, [(0, 1, 0.2), (1, 2, 0.4), (2, 3, 0.9)])
        forests = list(iterated_spanning_forests(g))
        assert len(forests) == 1 and len(forests[0]) == 3


class TestDefaultAlphaPrime:
    def test_complete_graph(self):
        g = complete_graph(100)
        # independent count of the first six forests: repeated Kruskal with the
        # same ordering rule peels lexicographic stars of 99, 98, ... edges
        remaining = {(u, v) for u, v, _ in g.edges}
        six = 0
        for _ in range(6):
            parent = list(range(100))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            forest = []
            for u, v in sorted(remaining):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    forest.append((u, v))
            six += len(forest)
            remaining -= set(forest)
        assert six == sum(99 - i for i in range(6))
        got = default_alpha_prime(g, 0.5)
        assert got == pytest.approx(min(0.25, six / 4950))
        assert 0.11 < got < 0.125  # close to the idealized 6*99/4950 = 0.12

    def test_single_tree(self):
        g = UncertainGraph(5, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)])
        # forests exhaust all edges in one round: fraction 1.0, so 0.45 wins
        assert default_alpha_prime(g, 0.9) == pytest.approx(0.45)

    def test_positive_for_connected_graphs(self):
        g = generate_synthetic(30, 0.3, seed=5)
        assert default_alpha_prime(g, 0.4) > 0.0


class TestBuildBackbone:
    def test_default_alpha_prime_shares_the_forest_peel(self, monkeypatch):
        import usparse.backbone as backbone_mod

        g = generate_synthetic(40, 0.5, seed=2)  # at least ten forests deep
        calls = []
        original = backbone_mod.max_spanning_forest

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(backbone_mod, "max_spanning_forest", counting)
        for alpha in (0.2, 0.5):
            calls.clear()
            shared = build_backbone(g, alpha, seed=4)
            with_default = len(calls)
            alpha_prime = default_alpha_prime(g, alpha)
            calls.clear()
            explicit = build_backbone(g, alpha, alpha_prime=alpha_prime, seed=4)
            # a separate six-forest peel used to come on top of the quota loop
            assert with_default == len(calls) < 6 + len(calls)
            assert shared.edges == explicit.edges

    def test_alpha_at_floor_gives_one_spanning_tree(self):
        g = generate_synthetic(25, 0.3, seed=1)
        alpha = (g.n - 1) / g.m
        b = build_backbone(g, alpha, seed=0)
        assert b.m == g.n - 1
        assert DeterministicWorld(b.vertex_count, b.edges).is_connected()
        tree = max_spanning_forest(g.n, list(g.edges))
        assert sorted(b.edges) == sorted(tree)

    def test_alpha_one_keeps_everything(self):
        g = generate_synthetic(15, 0.5, seed=2)
        b = build_backbone(g, 1.0, seed=0)
        assert set(b.edges) == {(u, v) for u, v, _ in g.edges}

    @pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 0.77])
    def test_exact_cardinality_and_connected(self, alpha):
        g = generate_synthetic(50, 0.35, seed=7)
        b = build_backbone(g, alpha, seed=4)
        assert b.m == target_edge_count(g.m, alpha)
        assert DeterministicWorld(b.vertex_count, b.edges).is_connected()
        assert set(b.edges) <= {(u, v) for u, v, _ in g.edges}

    def test_alpha_below_floor_rejected(self):
        g = generate_synthetic(40, 0.1, seed=1)
        with pytest.raises(ValueError, match="connectivity floor"):
            build_backbone(g, 0.001)

    def test_alpha_prime_above_alpha_rejected(self):
        g = generate_synthetic(20, 0.4, seed=1)
        with pytest.raises(ValueError, match="alpha_prime"):
            build_backbone(g, 0.3, alpha_prime=0.5)

    def test_explicit_alpha_prime_equal_alpha_still_exact(self):
        g = generate_synthetic(30, 0.3, seed=9)
        alpha = 0.5
        b = build_backbone(g, alpha, alpha_prime=alpha, seed=0)
        assert b.m == target_edge_count(g.m, alpha)

    def test_deterministic_given_seed(self):
        g = generate_synthetic(40, 0.2, seed=3)
        assert build_backbone(g, 0.3, seed=11).edges == build_backbone(g, 0.3, seed=11).edges

    def test_source_tag(self):
        g = generate_synthetic(20, 0.4, seed=1)
        assert build_backbone(g, 0.5, seed=0).source == "spanning"


class TestRandomBackbone:
    def test_alpha_one_keeps_everything(self):
        g = generate_synthetic(12, 0.6, seed=2)
        b = random_backbone(g, 1.0, seed=0)
        assert set(b.edges) == {(u, v) for u, v, _ in g.edges}

    def test_exact_cardinality(self):
        g = generate_synthetic(40, 0.3, seed=6)
        for alpha in (0.2, 0.45):
            assert random_backbone(g, alpha, seed=1).m == target_edge_count(g.m, alpha)

    def test_deterministic_given_seed(self):
        g = generate_synthetic(25, 0.3, seed=6)
        assert random_backbone(g, 0.4, seed=5).edges == random_backbone(g, 0.4, seed=5).edges

    def test_tiny_probabilities_still_terminate(self):
        g = UncertainGraph(6, [(u, v, 1e-9) for u, v in combinations(range(6), 2)])
        b = random_backbone(g, 0.5, seed=0)
        assert b.m == target_edge_count(g.m, 0.5)

    def test_source_tag(self):
        g = generate_synthetic(20, 0.4, seed=1)
        assert random_backbone(g, 0.5, seed=0).source == "random"


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.25, 0.35, 0.6, 0.9]))
@settings(max_examples=25, deadline=None)
def test_backbone_size_property(seed, alpha):
    g = generate_synthetic(24, 0.5, seed=seed % 7)
    b = build_backbone(g, alpha, seed=seed)
    assert b.m == target_edge_count(g.m, alpha)
    assert DeterministicWorld(b.vertex_count, b.edges).is_connected()
