"""Tests for the adapted deterministic benchmarks (cut-based and spanner-based)."""

import hashlib
import json
import math
from collections import Counter, defaultdict

import networkx as nx
import numpy as np
import pytest

import usparse.benchmarks as benchmarks
from usparse.backbone import target_edge_count
from usparse.benchmarks import (
    MAX_CALIBRATION_STEPS,
    CalibrationError,
    contiguous_forest_rounds,
    forest_round_sampler,
    ni_sparsify,
    ss_core,
    ss_sparsify,
    to_ni_weights,
    to_ss_weights,
    _solve_stretch_parameter,
)
from usparse.graph import UncertainGraph, derive_rng, generate_synthetic, save_graph

from test_backbone import UnionFind, kruskal


def lightest_distances(n, edges, source):
    """Dijkstra distances from source by networkx; math.inf where unreachable."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_weighted_edges_from(edges)
    found = nx.single_source_dijkstra_path_length(graph, source)
    return [found.get(x, math.inf) for x in range(n)]


def ss_rows(g):
    """(u, v, w) rows of g's ss weights, for the oracles that read rows."""
    return list(zip(*(a.tolist() for a in g.endpoint_arrays), to_ss_weights(g).tolist()))


ZERO_EDGE = UncertainGraph(4, [(0, 1, 0.0), (1, 2, 0.5), (2, 3, 0.9), (0, 3, 0.4)], allow_zero=True)


def columns(rows):
    """The (us, vs, w) columns of hand-written (u, v, w) rows."""
    return tuple(map(list, zip(*rows)))


def ni_columns(g):
    """n and g's ni columns (us, vs, w)."""
    us, vs = g.endpoint_arrays
    return g.n, us.tolist(), vs.tolist(), to_ni_weights(g)


class TestNiWeights:
    def test_transform_examples(self):
        g = UncertainGraph(4, [(0, 1, 0.2), (1, 2, 0.4), (2, 3, 1.0)])
        assert to_ni_weights(g) == [1, 2, 5]

    def test_all_equal_probabilities(self):
        g = UncertainGraph(3, [(0, 1, 0.77), (1, 2, 0.77)])
        assert to_ni_weights(g) == [1, 1]

    def test_round_half_up(self):
        g = UncertainGraph(3, [(0, 1, 0.1), (1, 2, 0.349)])
        # 0.349/0.1 = 3.49 rounds down to 3
        assert to_ni_weights(g) == [1, 3]

    def test_weight_floor(self):
        g = generate_synthetic(15, 0.4, seed=0)
        w = to_ni_weights(g)
        assert len(w) == g.m and all(type(x) is int for x in w)
        assert min(w) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            to_ni_weights(UncertainGraph(3, []))

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError, match="ni needs every edge probability above 0"):
            to_ni_weights(ZERO_EDGE)


def per_round(death, join):
    """The per-round trace rebuilt from join and death rounds: round r's forest
    holds every position i with join[i] < r <= death[i]."""
    return [
        sorted(i for i in death if join[i] < r <= death[i])
        for r in range(1, max(death.values()) + 1)
    ]


def one_round_at_a_time(n, us, vs, w):
    """Independent oracle: every round rebuilt, one unit of weight per round."""
    residual = dict(enumerate(w))
    prev, death, trace, r = [], {}, [], 0
    while residual:
        r += 1
        uf = UnionFind(n)
        kept = [i for i in prev if i in residual and uf.union(us[i], vs[i])]
        rest = sorted((i for i in residual if i not in prev), key=lambda i: (-residual[i], us[i], vs[i]))
        forest = sorted(kept + [i for i in rest if uf.union(us[i], vs[i])])
        for i in forest:
            residual[i] -= 1
            if residual[i] == 0:
                death[i] = r
                del residual[i]
        prev = forest
        trace.append(forest)
    return death, trace


def random_ni(seed):
    """n and ni columns of a random 14-vertex graph."""
    return ni_columns(generate_synthetic(14, 0.4, seed=seed))


def disconnected(seed):
    """n and ni columns of two random blocks side by side, plus two isolated vertices."""
    a = generate_synthetic(8, 0.5, seed=seed)
    b = generate_synthetic(6, 0.6, seed=seed + 10)
    edges = list(a.edges) + [(u + 8, v + 8, p) for u, v, p in b.edges]
    return ni_columns(UncertainGraph(16, edges))


def tied(seed):
    """Integer weights 1-3, so one round kills several forest edges at once."""
    rng = derive_rng(seed)
    n, us, vs, _ = ni_columns(generate_synthetic(14, 0.4, seed=seed))
    return n, us, vs, [int(rng.integers(1, 4)) for _ in us]


def all_equal(seed):
    """A dense 14-vertex graph with every weight 1: each round's whole forest
    dies at once, and its replacements interact."""
    n, us, vs, _ = ni_columns(generate_synthetic(14, 0.9, seed=seed))
    return n, us, vs, [1] * len(us)


ORACLE_CASES = (
    [pytest.param(random_ni, s, id=str(s)) for s in range(4)]
    + [pytest.param(disconnected, s, id=f"disconnected-{s}") for s in range(4)]
    + [pytest.param(tied, s, id=f"tied-{s}") for s in range(4)]
    + [pytest.param(all_equal, s, id=f"all-equal-{s}") for s in range(2)]
)


class TestForestRounds:
    def test_three_edge_hand_trace(self):
        # triangle weights [1, 2, 1]: round 1 takes (0,2) [residual 2] and
        # (0,1); (0,1) dies.  Round 2 must retain (0,2) and adds (1,2); both die.
        death, join = contiguous_forest_rounds(3, *columns([(0, 1, 1), (0, 2, 2), (1, 2, 1)]))
        assert join == {0: 0, 1: 0, 2: 1}
        assert per_round(death, join) == [[0, 1], [1, 2]]
        assert death == {0: 1, 1: 2, 2: 2}

    def test_forest_held_until_its_lightest_member_dies(self):
        # a path is its own forest every round: built once, held 3 rounds
        death, join = contiguous_forest_rounds(3, *columns([(0, 1, 3), (1, 2, 5)]))
        assert join == {0: 0, 1: 0}
        assert per_round(death, join) == [[0, 1]] * 3 + [[1]] * 2
        assert death == {0: 3, 1: 5}

    def test_edge_with_weight_w_spans_w_rounds(self):
        death, join = contiguous_forest_rounds(3, *columns([(0, 1, 1), (0, 2, 3), (1, 2, 1)]))
        rounds_02 = [r for r, f in enumerate(per_round(death, join), start=1) if 1 in f]
        assert len(rounds_02) == 3 and death[1] == rounds_02[-1]

    def test_single_tree_all_die_round_one(self):
        death, join = contiguous_forest_rounds(4, *columns([(0, 1, 1), (1, 2, 1), (2, 3, 1)]))
        assert set(death.values()) == {1} and set(join.values()) == {0}
        assert per_round(death, join) == [[0, 1, 2]]

    @pytest.mark.parametrize("seed", range(4))
    def test_forest_membership_contiguous_until_death(self, seed):
        rng = derive_rng(seed)
        n, us, vs, _ = ni_columns(generate_synthetic(15, 0.3, seed=seed))
        w = [int(rng.integers(1, 5)) for _ in us]
        death, join = contiguous_forest_rounds(n, us, vs, w)
        appearances = defaultdict(list)
        for r, forest in enumerate(per_round(death, join), start=1):
            for i in forest:
                appearances[i].append(r)
        assert set(appearances) == set(range(len(w)))
        for i, rounds in appearances.items():
            assert rounds == list(range(rounds[0], rounds[0] + len(rounds)))
            assert rounds[-1] == death[i] and len(rounds) == w[i]

    def test_alive_prior_forest_edges_persist(self):
        rng = derive_rng(9)
        n, us, vs, _ = ni_columns(generate_synthetic(12, 0.4, seed=9))
        w = [int(rng.integers(1, 4)) for _ in us]
        death, join = contiguous_forest_rounds(n, us, vs, w)
        trace = per_round(death, join)
        for r in range(1, len(trace)):
            survivors = {i for i in trace[r - 1] if death[i] > r}
            assert survivors <= set(trace[r])

    @pytest.mark.parametrize("build, seed", ORACLE_CASES)
    def test_matches_one_round_at_a_time(self, build, seed):
        cols = build(seed)
        death, join = contiguous_forest_rounds(*cols)
        assert (death, per_round(death, join)) == one_round_at_a_time(*cols)

    def test_tied_cases_kill_several_forest_edges_in_one_round(self):
        for seed in range(4):
            death, _ = contiguous_forest_rounds(*tied(seed))
            assert max(Counter(death.values()).values()) >= 2

    def test_all_equal_cases_kill_a_whole_forest_in_one_round(self):
        for seed in range(2):
            n, *cols = all_equal(seed)
            death, _ = contiguous_forest_rounds(n, *cols)
            assert Counter(death.values())[1] == n - 1

    def test_tiny_p_min_builds_at_most_m_forests(self):
        # weights reach 1/p_min, far beyond int64 at 1e-300, so one Kruskal
        # pass per round would never finish
        g = generate_synthetic(30, 0.3, seed=5)
        for p_min, last_round in [(1e-9, 10**9), (1e-300, 10**299)]:
            edges = [(u, v, p_min if i == 0 else p) for i, (u, v, p) in enumerate(g.edges)]
            tiny = UncertainGraph(g.n, edges)
            n, us, vs, w = ni_columns(tiny)
            death, join = contiguous_forest_rounds(n, us, vs, w)
            assert len(set(death.values())) <= g.m
            assert all(type(r) is int for r in [*death.values(), *join.values()])
            assert all(death[i] - join[i] == w[i] for i in range(g.m))
            assert max(death.values()) > last_round
            assert ni_sparsify(tiny, 0.3, seed=1)[0].m == target_edge_count(g.m, 0.3)


class TestNiCore:
    def test_tiny_epsilon_keeps_everything_at_original_weight(self):
        g = generate_synthetic(12, 0.4, seed=1)
        _, sample = forest_round_sampler(*ni_columns(g), 3)
        kept, weights = sample(1e-6)
        assert kept.tolist() == [True] * g.m
        assert weights.tolist() == to_ni_weights(g)

    def test_single_tree_sampled_at_round_one_probability(self):
        eps = 2.0
        keep_p = min(math.log(4) / eps**2, 1.0)
        uniforms = derive_rng(11).random(3)
        # edges out of canonical order: the mask is over the positions given
        _, sample = forest_round_sampler(4, *columns([(2, 3, 1), (0, 1, 1), (1, 2, 1)]), 11)
        kept, weights = sample(eps)
        assert kept.tolist() == [u < keep_p for u in uniforms]
        assert weights.tolist() == [1 / keep_p] * int(kept.sum())

    def test_kept_weight_is_original_over_keep_probability(self):
        us, vs, w = columns([(0, 1, 1), (0, 2, 2), (1, 2, 1)])
        eps = 1.0
        _, sample = forest_round_sampler(3, us, vs, w, 0)
        kept, weights = sample(eps)
        death, _ = contiguous_forest_rounds(3, us, vs, w)
        kept_positions = [i for i, k in enumerate(kept) if k]
        assert len(kept_positions) == len(weights)
        for i, weight in zip(kept_positions, weights):
            keep_p = min(math.log(3) / (eps**2 * death[i]), 1.0)
            assert weight == pytest.approx(w[i] / keep_p)

    def test_count_is_the_sample_size(self):
        count, sample = forest_round_sampler(*ni_columns(generate_synthetic(20, 0.4, seed=2)), 5)
        for eps in (0.05, 0.3, 0.7, 1.5, 4.0):
            kept, weights = sample(eps)
            assert count(eps) == np.count_nonzero(kept) == len(weights)


class TestNiSparsify:
    @pytest.mark.parametrize("alpha", [0.15, 0.3, 0.55])
    def test_exact_size_and_probability_range(self, alpha):
        g = generate_synthetic(60, 0.25, seed=2)
        out, info = ni_sparsify(g, alpha, seed=5)
        assert out.m == target_edge_count(g.m, alpha)
        assert all(0.0 < p <= 1.0 for _, _, p in out.edges)
        assert info["epsilon"] > 0

    def test_inverse_transform_caps_at_one(self):
        g = generate_synthetic(40, 0.3, seed=3)
        out, _ = ni_sparsify(g, 0.3, seed=3)
        assert max(p for _, _, p in out.edges) <= 1.0

    def test_deterministic(self):
        g = generate_synthetic(40, 0.3, seed=4)
        assert ni_sparsify(g, 0.3, seed=9)[0].edges == ni_sparsify(g, 0.3, seed=9)[0].edges

    def test_output_edges_subset_of_original(self):
        g = generate_synthetic(30, 0.4, seed=5)
        out, _ = ni_sparsify(g, 0.4, seed=1)
        assert {(u, v) for u, v, _ in out.edges} <= {(u, v) for u, v, _ in g.edges}

    def test_theta_must_exceed_one(self):
        g = generate_synthetic(20, 0.4, seed=1)
        for theta in (0.9, float("nan")):
            with pytest.raises(ValueError, match="theta must exceed 1"):
                ni_sparsify(g, 0.3, theta=theta)

    def test_alpha_one_returns_the_graph_itself(self):
        g = generate_synthetic(15, 0.4, seed=9)
        out, info = ni_sparsify(g, 1.0, seed=0)
        assert out is g
        assert info == {"epsilon": None, "calibration_steps": 0, "core_edges": g.m, "topped_up": 0}

    @pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
    def test_alpha_outside_the_unit_interval_is_refused(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
            ni_sparsify(generate_synthetic(15, 0.4, seed=9), alpha)

    def test_zero_probability_edge_is_refused(self):
        with pytest.raises(ValueError, match="ni needs every edge probability above 0"):
            ni_sparsify(ZERO_EDGE, 0.5)


class TestNiPinned:
    # sha256 of the saved edge list and of the sorted-key JSON of info for
    # ni_sparsify on the README's `generate -n 100 -d 0.15 --seed 1` graph at
    # alpha 0.3 and seed 7, recorded at commit 95ca917 (one Kruskal pass per
    # forest), and that graph's 717 forests held for 19,039 rounds in all: a
    # new forest starts after each distinct death round.
    PINNED_EDGES = "466b4446779cf9f35d70471584a5a05bf1a7c588c0642160beb31b8254cee282"
    PINNED_INFO = "4eb93559c2b5ff9d8b7d63d41fd7eaca6015b0d682cc313ee124a0e1cfbee92b"

    @pytest.fixture(scope="class")
    def graph(self):
        return generate_synthetic(100, 0.15, seed=1)

    def test_paper_graph_keeps_its_bytes(self, graph, tmp_path):
        out, info = ni_sparsify(graph, 0.3, seed=7)
        save_graph(out, tmp_path / "ni.el")
        assert hashlib.sha256((tmp_path / "ni.el").read_bytes()).hexdigest() == self.PINNED_EDGES
        assert hashlib.sha256(json.dumps(info, sort_keys=True).encode()).hexdigest() == self.PINNED_INFO

    def test_paper_graph_forest_count(self, graph):
        death, _ = contiguous_forest_rounds(*ni_columns(graph))
        assert len(set(death.values())) == 717
        assert max(death.values()) == 19039


class TestSsWeights:
    def test_certain_edge_weight_zero(self):
        g = UncertainGraph(2, [(0, 1, 1.0)])
        assert to_ss_weights(g).tolist() == [0.0]

    def test_inverse_e(self):
        g = UncertainGraph(2, [(0, 1, math.exp(-1))])
        assert to_ss_weights(g)[0] == pytest.approx(1.0)

    def test_one_float64_column_of_math_log_bits(self):
        g = generate_synthetic(30, 0.3, seed=3)
        w = to_ss_weights(g)
        assert w.dtype == np.float64 and w.shape == (g.m,)
        assert w.tolist() == [-math.log(p) for p in g.probabilities.tolist()]

    def test_most_probable_path_is_lightest(self):
        # two routes 0->3: probability products 0.9*0.9=0.81 vs direct 0.5
        g = UncertainGraph(4, [(0, 1, 0.9), (1, 3, 0.9), (0, 3, 0.5), (1, 2, 0.2)])
        dist = lightest_distances(4, ss_rows(g), 0)
        assert dist[3] == pytest.approx(-math.log(0.81))
        assert math.exp(-dist[3]) > 0.5


def synchronous_ss_oracle(n, rows, t, seed):
    """ss_core's rounds as a plain per-vertex dict loop: every vertex reads the
    arcs and clusters its round started with, and the round's drops apply
    after the last vertex.  Returns the kept edge positions, ascending."""
    if t == 1:
        return list(range(len(rows)))
    rng = derive_rng(seed)
    adj = [dict() for _ in range(n)]  # neighbor -> (w, edge position)
    for e, (u, v, w) in enumerate(rows):
        adj[u][v] = (w, e)
        adj[v][u] = (w, e)
    cluster = list(range(n))
    kept = set()
    sample_p = n ** (-1.0 / t)

    def buckets(v):
        # adjacent cluster -> (w, neighbor, edge) of the lightest connecting edge
        found = {}
        for x, (w, e) in adj[v].items():
            c = cluster[x]
            if c not in found or (w, x) < found[c][:2]:
                found[c] = (w, x, e)
        return found

    for _ in range(t - 1):
        ids = sorted({c for c in cluster if c is not None})
        sampled = {c for c in ids if rng.random() < sample_p}
        next_cluster = list(cluster)
        dropped = set()
        for v in range(n):
            if cluster[v] is None or cluster[v] in sampled:
                continue
            found = buckets(v)
            candidates = [(w, x, c) for c, (w, x, _) in found.items() if c in sampled]
            w_join, _, c_join = min(candidates) if candidates else (math.inf, None, None)
            next_cluster[v] = c_join
            for c, (w, _, e) in found.items():
                if c == c_join or w < w_join:
                    kept.add(e)
                    dropped.update(f for x, (_, f) in adj[v].items() if cluster[x] == c)
        for e in dropped:
            u, v, _ = rows[e]
            del adj[u][v], adj[v][u]
        cluster = next_cluster
    for v in range(n):
        kept.update(e for _, _, e in buckets(v).values())
    return sorted(kept)


# ten small random graphs, the last with all-equal probabilities (ties in w)
ORACLE_GRAPHS = [generate_synthetic(n, d, seed=k) for k, (n, d) in enumerate(
    [(6, 0.6), (10, 0.4), (12, 0.9), (20, 0.3), (25, 0.5), (30, 0.2), (30, 0.6), (40, 0.25), (50, 0.15)])]
ORACLE_GRAPHS.append(UncertainGraph(30, [(u, v, 0.5) for u, v, _ in generate_synthetic(30, 0.4, seed=9).edges]))


class TestSsCore:
    def test_t1_returns_all_edges(self):
        g = generate_synthetic(20, 0.3, seed=6)
        spanner = ss_core(g.n, *g.endpoint_arrays, to_ss_weights(g), 1, seed=0)
        assert spanner.tolist() == list(range(g.m))

    @pytest.mark.parametrize("t", [2, 3])
    def test_tree_is_preserved(self, t):
        edges = [(i, i + 1, 0.5 + 0.4 * (i % 2)) for i in range(9)]
        g = UncertainGraph(10, edges)
        spanner = ss_core(g.n, *g.endpoint_arrays, to_ss_weights(g), t, seed=7)
        assert spanner.tolist() == list(range(g.m))

    @pytest.mark.parametrize("t", [2, 3, 5, 99])
    @pytest.mark.parametrize("k", range(10))
    def test_matches_synchronous_round_oracle(self, k, t):
        g = ORACLE_GRAPHS[k]
        rows, w = ss_rows(g), to_ss_weights(g)
        for seed in (0, 1):
            spanner = ss_core(g.n, *g.endpoint_arrays, w, t, seed)
            assert spanner.dtype.kind == "i"
            assert spanner.tolist() == synchronous_ss_oracle(g.n, rows, t, seed)

    def test_one_vector_draw_equals_scalar_draws(self):
        for seed, k in [(0, 1), (7, 40), (123, 1001)]:
            rng = derive_rng(seed)
            scalars = [rng.random() for _ in range(k)]
            assert derive_rng(seed).random(k).tolist() == scalars

    @pytest.mark.parametrize("seed,t", [(0, 2), (1, 2), (2, 3), (3, 4)])
    def test_stretch_property_on_sampled_pairs(self, seed, t):
        g = generate_synthetic(50, 0.15, seed=seed)
        rows = ss_rows(g)
        spanner = ss_core(g.n, *g.endpoint_arrays, to_ss_weights(g), t, seed=seed + 50)
        sp_edges = [rows[i] for i in spanner]
        rng = derive_rng(seed)
        for _ in range(60):
            a, b = rng.integers(0, g.n, size=2)
            if a == b:
                continue
            d_orig = lightest_distances(g.n, rows, int(a))[int(b)]
            d_span = lightest_distances(g.n, sp_edges, int(a))[int(b)]
            if math.isinf(d_orig):
                assert math.isinf(d_span)
            else:
                assert d_span <= (2 * t - 1) * d_orig + 1e-9

    @staticmethod
    def assert_discarded_edges_stretch(g, t, seed):
        rows = ss_rows(g)
        spanner = set(ss_core(g.n, *g.endpoint_arrays, to_ss_weights(g), t, seed=seed).tolist())
        sp_edges = [rows[i] for i in sorted(spanner)]
        by_source = defaultdict(list)
        for i, (u, v, w) in enumerate(rows):
            if i not in spanner:
                by_source[u].append((v, w))
        for u, targets in by_source.items():
            dist = lightest_distances(g.n, sp_edges, u)
            for v, w in targets:
                assert dist[v] <= (2 * t - 1) * w + 1e-9
        return len(by_source)

    @pytest.mark.parametrize("seed", range(3))
    def test_per_edge_stretch_for_discarded_edges(self, seed):
        self.assert_discarded_edges_stretch(generate_synthetic(40, 0.2, seed=seed + 20), 2, seed)

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_every_discarded_edge_within_stretch_at_n100(self, t):
        g = generate_synthetic(120, 0.12, seed=t)
        assert self.assert_discarded_edges_stretch(g, t, seed=11) > 0

    def test_deterministic(self):
        g = generate_synthetic(30, 0.3, seed=8)
        us, vs = g.endpoint_arrays
        w = to_ss_weights(g)
        assert np.array_equal(ss_core(g.n, us, vs, w, 3, seed=4), ss_core(g.n, us, vs, w, 3, seed=4))


class TestStretchParameter:
    def test_worked_minimization(self):
        # n=100, alpha|E| = 1000: no integer t satisfies t*100^(1+1/t) <= 1000,
        # so the minimizer wins; scan shows it is t=5
        values = {t: t * 100 ** (1 + 1 / t) for t in range(1, 51)}
        assert all(v > 1000 for v in values.values())
        assert min(values, key=values.get) == 5
        assert _solve_stretch_parameter(100, 1000.0) == 5

    def test_feasible_target_picks_smallest(self):
        # generous target: smallest t whose expected size fits
        target = 2 * 100 ** 1.5 + 1
        assert _solve_stretch_parameter(100, target) == 2


class TestSsSparsify:
    def test_alpha_one_returns_everything_unchanged(self):
        g = generate_synthetic(15, 0.4, seed=9)
        out, _ = ss_sparsify(g, 1.0, seed=0)
        assert out is g

    def test_zero_probability_edge_is_refused(self):
        with pytest.raises(ValueError, match="ss needs every edge probability above 0"):
            ss_sparsify(ZERO_EDGE, 0.5)

    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.7])
    def test_exact_size(self, alpha):
        g = generate_synthetic(50, 0.3, seed=10)
        out, info = ss_sparsify(g, alpha, seed=2)
        assert out.m == target_edge_count(g.m, alpha)

    def test_probabilities_unchanged_on_retained_edges(self):
        g = generate_synthetic(40, 0.35, seed=11)
        out, _ = ss_sparsify(g, 0.5, seed=3)
        prob = {(u, v): p for u, v, p in g.edges}
        assert all(p == prob[(u, v)] for u, v, p in out.edges)

    def test_deterministic(self):
        g = generate_synthetic(35, 0.3, seed=12)
        assert ss_sparsify(g, 0.4, seed=7)[0].edges == ss_sparsify(g, 0.4, seed=7)[0].edges

    def test_small_alpha_trims_down_to_target(self):
        # near the connectivity floor the spanner cannot shrink enough by
        # raising t alone; deterministic trimming must close the gap
        g = generate_synthetic(30, 0.5, seed=13)
        alpha = 0.15
        out, info = ss_sparsify(g, alpha, seed=1)
        assert out.m == target_edge_count(g.m, alpha)


class TestSsScan:
    """The stretch-parameter scan, on spanners of scripted sizes."""

    ALPHA = 0.3

    @pytest.fixture
    def graph(self):
        return generate_synthetic(40, 0.5, seed=1)

    def scan(self, monkeypatch, g, size_at):
        """Run ss_sparsify with ss_core replaced by size_at(t - t0) edges of g,
        rotated by t so spanners of equal size differ; returns the offsets
        tried, the info, the output's edge positions in g and the scripted
        spanners' position sets."""
        t0 = _solve_stretch_parameter(g.n, self.ALPHA * g.m)
        tried = []

        def spanner_at(t):
            return frozenset(np.roll(np.arange(g.m), -t)[: size_at(t - t0)].tolist())

        def scripted(n, us, vs, w, t, seed):
            tried.append(t - t0)
            return np.array(sorted(spanner_at(t)), dtype=np.int64)

        monkeypatch.setattr(benchmarks, "ss_core", scripted)
        out, info = ss_sparsify(g, self.ALPHA, seed=7)
        position = {pair: i for i, pair in enumerate(g.edge_pairs)}
        return tried, info, {position[pair] for pair in out.edge_pairs}, spanner_at

    def test_step_doubles_after_each_spanner_that_is_not_smaller(self, monkeypatch, graph):
        target = target_edge_count(graph.m, self.ALPHA)
        sizes = {0: 300, 1: 280, 2: 290, 4: 270, 6: 275, 10: 275, 18: 200, 26: target - 17}
        tried, info, _, _ = self.scan(monkeypatch, graph, sizes.__getitem__)
        assert tried == [0, 1, 2, 4, 6, 10, 18, 26]
        assert info["attempts"] == len(tried) - 1
        assert info["t"] - _solve_stretch_parameter(graph.n, self.ALPHA * graph.m) == 26
        assert (info["spanner_edges"], info["trimmed"], info["topped_up"]) == (target - 17, 0, 17)

    @pytest.mark.parametrize("size_at", [
        lambda k: 200,
        lambda k: 300 - k,
        lambda k: 150 + k,
        lambda k: 200 + 40 * (k % 3),
    ], ids=["flat", "shrinking", "growing", "bouncing"])
    def test_last_step_is_tried_when_nothing_fits(self, monkeypatch, graph, size_at):
        tried, info, _, _ = self.scan(monkeypatch, graph, size_at)
        assert tried[-1] == MAX_CALIBRATION_STEPS
        assert tried == sorted(set(tried))
        assert info["spanner_edges"] == min(size_at(k) for k in tried)

    def test_flat_sizes_double_every_step(self, monkeypatch, graph):
        tried, _, _, _ = self.scan(monkeypatch, graph, lambda k: 200)
        assert tried == [0, 1, 3, 7, 15, 31, 63, MAX_CALIBRATION_STEPS]

    def test_keeps_the_smallest_spanner_and_ties_go_to_the_smaller_t(self, monkeypatch, graph):
        sizes = {3: 150, 5: 150, 9: 180}
        tried, info, out_pairs, spanner_at = self.scan(monkeypatch, graph, lambda k: sizes.get(k, 200))
        assert tried == [0, 1, 3, 5, 9, 17, 33, 65, MAX_CALIBRATION_STEPS]
        t0 = _solve_stretch_parameter(graph.n, self.ALPHA * graph.m)
        target = target_edge_count(graph.m, self.ALPHA)
        assert info["t"] == t0 + 3
        assert (info["spanner_edges"], info["trimmed"], info["topped_up"]) == (150, 150 - target, 0)
        assert out_pairs <= spanner_at(t0 + 3)
        assert not out_pairs <= spanner_at(t0 + 5)

    def test_trim_drops_least_probable_edges_outside_the_forest_first(self, monkeypatch, graph):
        _, info, out_positions, spanner_at = self.scan(monkeypatch, graph, lambda k: 200)
        spanner = sorted(spanner_at(info["t"]))
        edges = graph.edges
        forest = set(kruskal(graph.n, [edges[i] for i in spanner]))
        ranked = sorted(spanner, key=lambda i: (edges[i][:2] in forest, edges[i][2], i))
        assert info["trimmed"] == 200 - target_edge_count(graph.m, self.ALPHA) > 0
        assert out_positions == set(ranked[info["trimmed"]:])


class TestSsPinned:
    # sha256 of the saved edge list and of the sorted-key JSON of method_info,
    # recorded when ss_core moved to synchronous rounds, for
    # generate_synthetic(250, 0.3, seed=1) at alpha 0.2 and seed 7.  There the
    # spanner shrinks at every step (2637, 2026, 1857 edges) and fits at
    # t0 + 2 untrimmed, so the doubling scan must reproduce it.
    PINNED_EDGES = "91f23d4c5763250ce2c1afce3f4ca7bfcca55d32d013dc9d324a711456d1a520"
    PINNED_INFO = "7e2c2355edede64d1a9c3632583fc98258d7eae4c526de65c40f998fd5879f02"

    def test_shrinking_scan_keeps_its_bytes(self, tmp_path):
        g = generate_synthetic(250, 0.3, seed=1)
        out, info = ss_sparsify(g, 0.2, seed=7)
        save_graph(out, tmp_path / "ss.el")
        assert hashlib.sha256((tmp_path / "ss.el").read_bytes()).hexdigest() == self.PINNED_EDGES
        assert hashlib.sha256(json.dumps(info, sort_keys=True).encode()).hexdigest() == self.PINNED_INFO

    def test_paper_graph_builds_ten_spanners_and_keeps_the_smallest(self, monkeypatch):
        # the README's `generate -n 100 -d 0.15 --seed 1` graph, where no
        # spanner fits the target of 223 edges
        g = generate_synthetic(100, 0.15, seed=1)
        built = []
        original = benchmarks.ss_core

        def counted(n, us, vs, w, t, seed):
            spanner = original(n, us, vs, w, t, seed)
            built.append((len(spanner), t))
            return spanner

        monkeypatch.setattr(benchmarks, "ss_core", counted)
        out, info = ss_sparsify(g, 0.3, seed=7)
        target = target_edge_count(g.m, 0.3)
        assert len(built) == 10
        assert (info["spanner_edges"], info["t"]) == min(built)
        assert info["spanner_edges"] - info["trimmed"] + info["topped_up"] == target
        assert out.m == target
