"""Tests for backbone construction (spanning-forest and random variants)."""

from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import usparse.backbone as backbone_mod
from usparse.backbone import (
    MAX_TOPUP_PASSES,
    _probability_topup,
    build_backbone,
    check_backbone,
    default_alpha_prime,
    iterated_spanning_forests,
    random_backbone,
    target_edge_count,
)
from usparse.graph import UncertainGraph, derive_rng, generate_synthetic


def backbone_pairs(g, b):
    """The (u, v) pairs the backbone mask b keeps, in canonical order."""
    pairs = g.edge_pairs
    return [pairs[i] for i in np.flatnonzero(b)]


def pair_mask(g, pairs):
    """The backbone mask keeping the given (u, v) pairs of g."""
    pairs = set(pairs)
    return np.array([e in pairs for e in g.edge_pairs], dtype=bool)


def spans_all_vertices(g, b):
    """networkx connectivity of the backbone on all of g's vertices."""
    world = nx.Graph()
    world.add_nodes_from(range(g.n))
    world.add_edges_from(backbone_pairs(g, b))
    return nx.is_connected(world)


def complete_graph(n, p=0.5):
    return UncertainGraph(n, [(u, v, p) for u, v in combinations(range(n), 2)])


def count_peeled_forests(monkeypatch):
    """Record the size of every forest the backbone's peel yields."""
    peeled = []
    original = backbone_mod.iterated_spanning_forests

    def counting(g):
        for forest in original(g):
            peeled.append(len(forest))
            yield forest

    monkeypatch.setattr(backbone_mod, "iterated_spanning_forests", counting)
    return peeled


def topup(rng, g, taken, need):
    """The runtime top-up as (u, v, p) triples, for the candidates outside `taken`."""
    edges = g.edges
    free = [(u, v) not in taken for u, v, _ in edges]
    return [edges[i] for i in _probability_topup(rng, g, free, need).tolist()]


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def kruskal(n, weighted_edges):
    """Oracle forest: Kruskal over the (-w, u, v) order, in that order."""
    uf = UnionFind(n)
    ordered = sorted(weighted_edges, key=lambda e: (-e[2], e[0], e[1]))
    return [(u, v) for u, v, _ in ordered if uf.union(u, v)]


def first_forest(n, weighted_edges):
    """The maximum spanning forest: the peel's first forest, as (u, v) pairs in rank order."""
    g = UncertainGraph(n, weighted_edges)
    pairs = g.edge_pairs
    return [pairs[i] for i in next(iterated_spanning_forests(g), [])]


def peeled_pairs(g):
    """The runtime peel's forests as (u, v) pair lists."""
    pairs = g.edge_pairs
    return [[pairs[i] for i in forest.tolist()] for forest in iterated_spanning_forests(g)]


def resorting_peel(g):
    """Oracle peel: a fresh Kruskal forest of the remaining edges each time."""
    remaining = list(g.edges)
    while remaining:
        forest = kruskal(g.n, remaining)
        yield forest
        taken = set(forest)
        remaining = [e for e in remaining if (e[0], e[1]) not in taken]


def scalar_topup(rng, g, taken, need):
    """Oracle top-up: one scalar draw per candidate, none once `need` is met."""
    admitted = []
    pool = [e for e in g.edges if (e[0], e[1]) not in taken]
    idle = 0
    while len(admitted) < need:
        kept = []
        before = len(admitted)
        for e in pool:
            if len(admitted) < need and rng.random() < e[2]:
                admitted.append(e)
            else:
                kept.append(e)
        pool = kept
        if len(admitted) > before:
            idle = 0
        else:
            idle += 1
            if idle >= MAX_TOPUP_PASSES:
                pool.sort(key=lambda e: (-e[2], e[0], e[1]))
                admitted.extend(pool[: need - len(admitted)])
                break
    return admitted


class TestMaxSpanningForest:
    def test_tree_input_returns_itself(self):
        edges = [(0, 1, 0.4), (1, 2, 0.9), (2, 3, 0.1)]
        assert sorted(first_forest(4, edges)) == [(0, 1), (1, 2), (2, 3)]

    def test_triangle_keeps_two_heaviest(self):
        edges = [(0, 1, 0.9), (0, 2, 0.5), (1, 2, 0.1)]
        assert sorted(first_forest(3, edges)) == [(0, 1), (0, 2)]

    def test_equal_weights_tie_break_lexicographic(self):
        # 4-cycle with equal p: keeps the 3 lexicographically smallest edges
        edges = [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5)]
        assert sorted(first_forest(4, edges)) == [(0, 1), (0, 3), (1, 2)]

    def test_disconnected_input_gives_forest(self):
        edges = [(0, 1, 0.5), (2, 3, 0.5)]
        assert sorted(first_forest(4, edges)) == [(0, 1), (2, 3)]



def disconnected_graph():
    """Two random blocks side by side, plus two isolated vertices."""
    a = generate_synthetic(10, 0.5, seed=1)
    b = generate_synthetic(8, 0.6, seed=2)
    return UncertainGraph(20, list(a.edges) + [(u + 10, v + 10, p) for u, v, p in b.edges])


ORACLE_GRAPHS = {
    "complete-ties": lambda: complete_graph(12, p=0.5),
    "const-0.5": lambda: generate_synthetic(
        40, 0.3, prob_sampler=lambda rng, k: np.full(k, 0.5), seed=3
    ),
    "disconnected": disconnected_graph,
    "single-edge": lambda: UncertainGraph(5, [(1, 3, 0.7)]),
    **{f"n300-seed{s}": (lambda s=s: generate_synthetic(300, 0.05, seed=s)) for s in range(4)},
}


class TestMaxSpanningForestOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_kruskal(self, name):
        g = ORACLE_GRAPHS[name]()
        assert first_forest(g.n, g.edges) == kruskal(g.n, g.edges)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_peel_matches_kruskal_peel(self, name):
        g = ORACLE_GRAPHS[name]()
        assert peeled_pairs(g) == list(resorting_peel(g))

    def test_rank_order_breaks_probability_ties_by_pair(self):
        edges = [(0, 1, 0.6), (1, 2, 0.1), (0, 2, 0.6), (2, 3, 0.2), (1, 3, 0.9)]
        assert first_forest(4, edges) == kruskal(4, edges) == [(1, 3), (0, 1), (0, 2)]

    def test_empty_input(self):
        assert first_forest(3, []) == []


class TestIteratedForests:
    def test_forests_are_edge_disjoint(self):
        g = generate_synthetic(20, 0.4, seed=3)
        forests = peeled_pairs(g)
        seen = set()
        for f in forests:
            for e in f:
                assert e not in seen
                seen.add(e)
        assert len(seen) == g.m  # exhaustion partitions the edge set

    def test_tree_exhausts_in_one_round(self):
        g = UncertainGraph(4, [(0, 1, 0.2), (1, 2, 0.4), (2, 3, 0.9)])
        forests = peeled_pairs(g)
        assert len(forests) == 1 and len(forests[0]) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_resorting_peel_on_random_graphs(self, seed):
        g = generate_synthetic(30, 0.3, seed=seed)
        assert peeled_pairs(g) == list(resorting_peel(g))

    def test_matches_resorting_peel_on_ties(self):
        g = complete_graph(12, p=0.5)
        assert peeled_pairs(g) == list(resorting_peel(g))

    def test_matches_resorting_peel_on_disconnected_graph(self):
        g = disconnected_graph()  # two components and two isolated vertices
        forests = peeled_pairs(g)
        assert forests == list(resorting_peel(g))
        assert len(forests[0]) == 20 - 4

    def test_forests_come_out_most_probable_first(self):
        g = generate_synthetic(25, 0.4, seed=8)
        prob = {(u, v): p for u, v, p in g.edges}
        for forest in peeled_pairs(g):
            assert forest == sorted(forest, key=lambda e: (-prob[e], e))


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

    def test_empty_graph_rejected(self):
        # the quota is a fraction of |E|, so an edgeless graph has none
        with pytest.raises(ValueError, match="cannot sparsify an empty graph"):
            default_alpha_prime(UncertainGraph(3, []), 0.5)


class TestProbabilityTopup:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scale", [1.0, 0.05])  # 0.05: several passes first
    def test_matches_scalar_draws_when_need_is_met_mid_pass(self, seed, scale):
        g = generate_synthetic(20, 0.4, seed=seed)
        g = UncertainGraph(g.n, [(u, v, p * scale) for u, v, p in g.edges])
        taken = {(u, v) for u, v, _ in g.edges[::3]}
        for need in (1, 5, 17):
            got = topup(derive_rng(seed), g, taken, need)
            assert got == scalar_topup(derive_rng(seed), g, taken, need)
            assert len(got) == need and not {(u, v) for u, v, _ in got} & taken

    def test_matches_scalar_draws_through_the_pass_limit(self):
        g = UncertainGraph(5, [(u, v, 1e-12 * (1 + u + v)) for u, v in combinations(range(5), 2)])
        got = topup(derive_rng(3), g, {(3, 4)}, 4)
        assert got == scalar_topup(derive_rng(3), g, {(3, 4)}, 4)
        # nothing is drawn in time, so the most probable remaining edges win
        assert [(u, v) for u, v, _ in got] == [(2, 4), (1, 4), (2, 3), (0, 4)]

    def test_too_few_candidates_rejected(self):
        g = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        with pytest.raises(ValueError, match="not enough"):
            topup(derive_rng(0), g, {(0, 1)}, 2)


class TestBuildBackbone:
    def test_default_alpha_prime_shares_the_forest_peel(self, monkeypatch):
        g = generate_synthetic(40, 0.5, seed=2)  # at least ten forests deep
        peeled = count_peeled_forests(monkeypatch)
        for alpha in (0.2, 0.5):
            peeled.clear()
            shared = build_backbone(g, alpha, seed=4)
            with_default = len(peeled)
            alpha_prime = default_alpha_prime(g, alpha)
            peeled.clear()
            explicit = build_backbone(g, alpha, alpha_prime=alpha_prime, seed=4)
            # the default quota reads the quota loop's own forests, so it adds none
            assert with_default == len(peeled) > 0
            assert np.array_equal(shared, explicit)

    def test_default_quota_peels_at_most_six_forests(self, monkeypatch):
        # six forests of 41 cover 246/775 < 0.4 of the edges, so the quota is
        # 246/775; as a count, 246/775 * 775 rounds up past 246
        g = generate_synthetic(42, 0.9, seed=1)
        peeled = count_peeled_forests(monkeypatch)
        assert default_alpha_prime(g, 0.8) * g.m > 246
        peeled.clear()
        b = build_backbone(g, 0.8, seed=7)
        assert peeled == [41] * 6
        assert np.count_nonzero(b) == target_edge_count(g.m, 0.8)

    def test_alpha_at_floor_gives_one_spanning_tree(self):
        g = generate_synthetic(25, 0.3, seed=1)
        alpha = (g.n - 1) / g.m
        b = build_backbone(g, alpha, seed=0)
        assert np.count_nonzero(b) == g.n - 1
        assert spans_all_vertices(g, b)
        assert backbone_pairs(g, b) == sorted(kruskal(g.n, g.edges))

    def test_alpha_one_keeps_everything(self):
        g = generate_synthetic(15, 0.5, seed=2)
        assert build_backbone(g, 1.0, seed=0).all()

    @pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 0.77])
    def test_exact_cardinality_and_connected(self, alpha):
        g = generate_synthetic(50, 0.35, seed=7)
        b = build_backbone(g, alpha, seed=4)
        assert b.dtype == bool and b.shape == (g.m,)
        assert np.count_nonzero(b) == target_edge_count(g.m, alpha)
        assert spans_all_vertices(g, b)

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
        assert np.count_nonzero(b) == target_edge_count(g.m, alpha)

    def test_deterministic_given_seed(self):
        g = generate_synthetic(40, 0.2, seed=3)
        assert np.array_equal(build_backbone(g, 0.3, seed=11), build_backbone(g, 0.3, seed=11))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="cannot sparsify an empty graph"):
            build_backbone(UncertainGraph(3, []), 0.5)


class TestRandomBackbone:
    def test_alpha_one_keeps_everything(self):
        g = generate_synthetic(12, 0.6, seed=2)
        assert random_backbone(g, 1.0, seed=0).all()

    def test_exact_cardinality(self):
        g = generate_synthetic(40, 0.3, seed=6)
        for alpha in (0.2, 0.45):
            b = random_backbone(g, alpha, seed=1)
            assert b.dtype == bool and b.shape == (g.m,)
            assert np.count_nonzero(b) == target_edge_count(g.m, alpha)

    def test_deterministic_given_seed(self):
        g = generate_synthetic(25, 0.3, seed=6)
        assert np.array_equal(random_backbone(g, 0.4, seed=5), random_backbone(g, 0.4, seed=5))

    def test_tiny_probabilities_still_terminate(self):
        g = UncertainGraph(6, [(u, v, 1e-9) for u, v in combinations(range(6), 2)])
        b = random_backbone(g, 0.5, seed=0)
        assert np.count_nonzero(b) == target_edge_count(g.m, 0.5)


class TestCheckBackbone:
    def test_builders_pass_it(self):
        g = generate_synthetic(20, 0.4, seed=1)
        check_backbone(g, build_backbone(g, 0.5, seed=0))
        check_backbone(g, random_backbone(g, 0.5, seed=0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda m: np.ones(m + 1, dtype=bool),  # one position past the graph's edges
            lambda m: np.ones(m - 1, dtype=bool),
            lambda m: np.ones((1, m), dtype=bool),
            lambda m: np.ones(m, dtype=np.int64),  # positions or 0/1 ints, not a mask
            lambda m: [True] * m,
        ],
        ids=["longer", "shorter", "2-d", "int", "list"],
    )
    def test_refuses_anything_but_a_bool_mask_over_the_edges(self, make):
        g = generate_synthetic(20, 0.4, seed=1)
        with pytest.raises(ValueError, match=rf"bool mask of shape \({g.m},\)"):
            check_backbone(g, make(g.m))


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.25, 0.35, 0.6, 0.9]))
@settings(max_examples=25, deadline=None)
def test_backbone_size_property(seed, alpha):
    g = generate_synthetic(24, 0.5, seed=seed % 7)
    b = build_backbone(g, alpha, seed=seed)
    assert np.count_nonzero(b) == target_edge_count(g.m, alpha)
    assert spans_all_vertices(g, b)
