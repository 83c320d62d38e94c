"""Tests for the uncertain-graph data model, worlds and the exact oracle."""

import math
from itertools import combinations
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import usparse.graph
from usparse.evaluation import (
    CutProfile,
    QueryKind,
    _crossing_mass,
    _floyd_k_subset,
    component_labels,
    quality,
    sample_answers,
    sample_masks,
)
from usparse.graph import (
    DRAW_BLOCK,
    EXACT_CHUNK_CELLS,
    MAX_VERTICES,
    EdgeError,
    GraphFormatError,
    UncertainGraph,
    derive_rng,
    draw_rows,
    exact_query_probability,
    generate_synthetic,
    graph_entropy,
    load_graph,
    save_graph,
)


def world_frequency(g, predicate, n_samples, seed):
    """Share of the evaluation sampler's worlds 0..n_samples-1 where predicate holds.

    The predicate maps the (n_samples, |E|) edge-mask matrix to one bool per world.
    """
    return float(np.mean(predicate(sample_masks(g, seed, (), n_samples))))


def defined_sorted(column):
    """One Answers column with its NaNs dropped and its values sorted."""
    return np.sort(column[~np.isnan(column)]).tolist()


def connected(g):
    """Mask predicate: the world connects all of g's vertices."""
    def holds(masks):
        labels = component_labels(g, masks)
        return (labels == labels[:, :1]).all(axis=1)

    return holds


def reaches(g, s, t):
    """Mask predicate: the world joins s and t."""
    def holds(masks):
        labels = component_labels(g, masks)
        return labels[:, s] == labels[:, t]

    return holds


def networkx_probability(g, holds):
    """Exact probability of a networkx world predicate, rebuilding each of the 2^|E| worlds."""
    weights = []
    for w in range(1 << g.m):
        world = nx.Graph()
        world.add_nodes_from(range(g.n))
        prob = 1.0
        for i, (u, v, p) in enumerate(g.edges):
            if w >> i & 1:
                world.add_edge(u, v)
                prob *= p
            else:
                prob *= 1.0 - p
        if holds(world):
            weights.append(prob)
    return math.fsum(weights)


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


def per_edge_canonical(n, edges, allow_zero=False):
    """Reference constructor: one pass over the edges in input order, raising
    at the first bad edge; returns the canonical edge tuple."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    n = int(n)
    canon, seen = [], set()
    for u, v, p in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex id out of range: ({u}, {v}) with n={n}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        p = float(p)
        ok = (0.0 <= p <= 1.0) if allow_zero else (0.0 < p <= 1.0)
        if not ok:
            rng_txt = "[0,1]" if allow_zero else "(0,1]"
            raise ValueError(f"probability {p} of edge ({u}, {v}) outside {rng_txt}")
        canon.append((u, v, p))
    return tuple(sorted(canon, key=lambda e: (e[0], e[1])))


def outcome(build):
    """What a construction gives: the repr of its edges, or its error's builtin type and text."""
    kinds = (TypeError, ValueError, OverflowError)
    try:
        return "ok", repr(build())
    except kinds as exc:
        return next(k.__name__ for k in kinds if isinstance(exc, k)), str(exc)


def same_as_per_edge(n, edges, allow_zero=False):
    rows = list(edges)
    got = outcome(lambda: UncertainGraph(n, rows, allow_zero=allow_zero).edges)
    want = outcome(lambda: per_edge_canonical(n, rows, allow_zero=allow_zero))
    assert got == want
    return got


class TestConstructorMatchesPerEdgePass:
    GOOD = [(0, 1, 0.5), (3, 1, 0.25), (2, 4, 1.0), (4, 0, 0.75)]
    DEFECTS = [(2, 2, 0.5), (0, 9, 0.5), (-1, 3, 0.5), (1, 3, 0.5), (1, 0, 0.5), (0, 2, 1.5),
               (0, 3, 0.0), (3, 4, float("nan")), (2, 3, float("inf")), (1, 2, -0.5)]

    @pytest.mark.parametrize("seed", range(40))
    def test_first_bad_row_in_input_order_wins(self, seed):
        rng = derive_rng(seed)
        picked = rng.choice(len(self.DEFECTS), 3, replace=False)
        rows = self.GOOD + [self.DEFECTS[i] for i in picked]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        kind, text = same_as_per_edge(5, rows)
        assert kind == "ValueError", text

    def test_each_defect_alone(self):
        for defect in self.DEFECTS:
            for allow_zero in (False, True):
                same_as_per_edge(5, self.GOOD + [defect], allow_zero)

    def test_out_of_range_pair_aliasing_a_valid_key(self):
        # with n=5, (0, 7) and (-1, 8) would share the key u*n+v of (1, 2) and (0, 3)
        for rows in ([(1, 2, 0.5), (0, 7, 0.5)], [(0, 7, 0.5), (1, 2, 0.5)],
                     [(0, 3, 0.5), (-1, 8, 0.5)], [(0, 7, 0.5), (1, 2, 0.5), (2, 1, 0.5)]):
            assert same_as_per_edge(5, rows)[0] == "ValueError"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_probabilities(self, bad):
        for allow_zero in (False, True):
            kind, text = same_as_per_edge(4, [(0, 1, 0.5), (1, 2, bad)], allow_zero)
            assert kind == "ValueError" and "of edge (1, 2) outside" in text

    def test_negative_zero_kept_with_allow_zero(self):
        kind, text = same_as_per_edge(3, [(1, 2, -0.0), (0, 1, 0.5)], allow_zero=True)
        assert kind == "ok" and "-0.0" in text
        assert same_as_per_edge(3, [(1, 2, -0.0)])[0] == "ValueError"

    def test_numpy_scalar_fields(self):
        rows = [(np.int32(3), np.uint64(1), np.float32(0.1)),
                (np.int64(0), np.int8(2), np.float64(0.7)),
                (np.uint8(2), np.int16(3), np.float16(0.3)),
                (0.9, True, 1)]
        kind, text = same_as_per_edge(4, rows)
        assert kind == "ok"
        assert all(type(x) in (int, float) for e in UncertainGraph(4, rows).edges for x in e)
        repeat = (np.int64(1), np.int64(3), np.float32(0.2))
        assert same_as_per_edge(4, rows + [repeat])[0] == "ValueError"

    def test_unconvertible_fields(self):
        for row in [("x", 1, 0.5), (0, None, 0.5), (0, 1, "p"), (float("nan"), 1, 0.5),
                    (2**70, 1, 0.5), (0, 1, 10**400), ("3", "1", "0.25")]:
            same_as_per_edge(4, [(0, 2, 0.5), row])
            same_as_per_edge(4, [(1, 1, 0.5), row])  # the earlier self-loop wins

    def test_rows_that_do_not_unpack(self):
        for row in [(0, 1), (0, 1, 0.5, 9), 7]:
            kind, _ = same_as_per_edge(4, [(0, 2, 0.5), row])
            assert kind in ("TypeError", "ValueError")
            same_as_per_edge(4, [(2, 2, 0.5), row])  # the earlier self-loop wins

    def test_generator_input(self):
        rows = [(3, 0, 0.5), (1, 2, 0.5)]
        g = UncertainGraph(4, (r for r in rows))
        assert g.edges == per_edge_canonical(4, rows)
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 3\)"):
            UncertainGraph(4, (r for r in rows + [(0, 3, 0.1)]))

    def test_empty_input(self):
        for edges in ([], (), iter([])):
            g = UncertainGraph(3, edges)
            assert g.edges == () and g.probabilities.shape == (0,)
            assert g.endpoint_arrays[0].dtype == np.int64
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            UncertainGraph(-1, [])

    def test_vertex_count_whose_pair_keys_overflow_is_refused(self, tmp_path):
        assert UncertainGraph(MAX_VERTICES, [(0, MAX_VERTICES - 1, 0.5)]).m == 1
        with pytest.raises(ValueError, match="vertex count"):
            UncertainGraph(MAX_VERTICES + 1, [(0, 1, 0.5)])
        path = tmp_path / "g.el"
        path.write_text("0 1 0.5\n1 2 0.5\n2 18446744073709551615 0.5\n")
        too_many = "line 1: vertex count 18446744073709551616 exceeds"
        with pytest.raises(GraphFormatError, match=too_many):
            load_graph(path)

    def test_arrays_agree_with_edges_and_are_read_only(self):
        g = random_graph(12, 30, seed=2)
        us, vs = g.endpoint_arrays
        assert list(zip(us.tolist(), vs.tolist(), g.probabilities.tolist())) == list(g.edges)
        with pytest.raises(ValueError):
            g.probabilities[0] = 0.5

    def test_from_columns_matches_rows(self):
        rows = [(3, 0, 0.5), (1, 2, 0.25), (2, 0, 1.0)]
        us, vs, ps = zip(*rows)
        assert UncertainGraph.from_columns(4, us, vs, ps).edges == UncertainGraph(4, rows).edges
        with pytest.raises(EdgeError, match=r"duplicate edge \(0, 3\)") as info:
            UncertainGraph.from_columns(4, [0, 1, 3], [3, 2, 0], [0.5, 0.5, 0.5])
        assert info.value.row == 2

    @pytest.mark.parametrize(
        "us, vs, ps",
        [([0], [1], [0.5, 0.7]), ([0, 1], [1, 2], [0.5]), ([0, 1, 2], [1, 2], [0.5, 0.5])],
        ids=["extra-p", "short-p", "short-v"],
    )
    def test_from_columns_refuses_columns_of_unequal_length(self, us, vs, ps):
        lengths = rf"{len(us)} u, {len(vs)} v and {len(ps)} p values"
        with pytest.raises(ValueError, match=f"edge columns differ in length: {lengths}"):
            UncertainGraph.from_columns(4, us, vs, ps)


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def one_edge(p):
    """The two-vertex graph whose one edge has probability p."""
    return UncertainGraph(2, [(0, 1, p)], allow_zero=True)


class TestEntropy:
    def test_half_is_one_bit(self):
        assert graph_entropy(one_edge(0.5)) == 1.0

    def test_deterministic_edge(self):
        assert graph_entropy(one_edge(1.0)) == 0.0
        assert graph_entropy(one_edge(0.0)) == 0.0

    def test_value_at_point_two(self):
        # frozen from direct evaluation of -p log2 p - (1-p) log2 (1-p)
        assert graph_entropy(one_edge(0.2)) == pytest.approx(0.7219280948873623, abs=1e-15)

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
        h = graph_entropy(one_edge(p))
        assert 0.0 <= h <= 1.0

    def test_zero_iff_all_probabilities_one(self):
        g = random_graph(12, 20, seed=3, low=0.05, high=0.95)
        assert graph_entropy(g) > 0.0
        certain = UncertainGraph(g.n, [(u, v, 1.0) for u, v, _ in g.edges])
        assert graph_entropy(certain) == 0.0


# ---------------------------------------------------------------------------
# Degrees, cuts, discrepancies
# ---------------------------------------------------------------------------


def cut_sum(g, members):
    """Brute-force expected cut: the probabilities of g's edges with one end in members."""
    members = set(members)
    return sum(p for u, v, p in g.edges if (u in members) != (v in members))


def vertex_mask(n, members):
    inside = np.zeros(n, dtype=bool)
    inside[list(members)] = True
    return inside


def ladder(n):
    """The cut cardinalities CutProfile samples, for n >= 4."""
    return sorted({1, 2, n // 4, n // 2, (3 * n) // 4, n})


class TestDegreesAndCuts:
    def test_star_degree(self):
        g = UncertainGraph(4, [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)])
        assert g.degree_vector()[0] == pytest.approx(0.6, abs=1e-15)

    def test_degree_out_of_range(self):
        # the degree vector holds one entry per vertex and no more
        g = triangle()
        assert len(g.degree_vector()) == 3
        with pytest.raises(IndexError):
            g.degree_vector()[3]

    def test_cut_empty_and_full(self):
        g = triangle()
        assert _crossing_mass(g, vertex_mask(3, [])) == 0.0
        assert _crossing_mass(g, vertex_mask(3, [0, 1, 2])) == 0.0

    def test_cut_singleton_triangle(self):
        assert _crossing_mass(triangle(0.5), vertex_mask(3, [0])) == pytest.approx(1.0)

    def test_cut_path_ends(self):
        g = UncertainGraph(3, [(0, 1, 0.3), (1, 2, 0.7)])
        # hand enumeration: both edges cross S={0,2}
        assert _crossing_mass(g, vertex_mask(3, [0, 2])) == pytest.approx(1.0)

    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_degree_equals_singleton_cut(self, u):
        g = random_graph(10, 18, seed=7)
        assert g.degree_vector()[u] == pytest.approx(cut_sum(g, [u]), abs=1e-12)

    def test_degree_sum_is_twice_mass(self):
        g = random_graph(15, 40, seed=11)
        assert g.degree_vector().sum() == pytest.approx(2.0 * g.probabilities.sum(), abs=1e-9)

    def test_discrepancy_identity_graph(self):
        g = random_graph(8, 12, seed=5)
        assert quality(g, g)["degree_objective"] == 0.0
        assert CutProfile(g, 20, seed=0).mae(g) == 0.0

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
    """evaluation.CutProfile, the sampled-cut MAE that compare and density_sweep.py report."""

    def test_zero_for_identical(self):
        g = random_graph(12, 25, seed=2)
        assert CutProfile(g, 50, seed=1).mae(g) == 0.0

    def test_k_out_of_range(self):
        # below 2 vertices the ladder's k=2 (and at n=0 its k=0) is no subset size
        for n in (0, 1):
            g = UncertainGraph(n, [])
            with pytest.raises(ValueError, match="out of range"):
                CutProfile(g, 10, seed=1).mae(g)

    @pytest.mark.parametrize("n_cuts", [0, -1])
    def test_n_cuts_below_one_refused_at_construction(self, n_cuts):
        with pytest.raises(ValueError, match="n_cuts must be at least 1"):
            CutProfile(triangle(), n_cuts, seed=1)

    def test_singleton_cuts_equal_degree_mae_when_uniform(self):
        # all singleton discrepancies equal, so the k=1 rung's sample mean matches exactly
        g = UncertainGraph(4, [(u, v, 0.6) for u, v in combinations(range(4), 2)])
        g2 = UncertainGraph(4, [(u, v, 0.3) for u, v in combinations(range(4), 2)])
        inside, masses = CutProfile(g, 4, seed=9).cuts[0]
        assert inside.sum(axis=1).tolist() == [1] * 4
        vertices = inside.argmax(axis=1)
        assert masses == pytest.approx(g.degree_vector()[vertices].tolist(), abs=1e-12)
        rung = np.mean([abs(mass - cut_sum(g2, [u])) for mass, u in zip(masses, vertices)])
        assert rung == pytest.approx(quality(g, g2)["degree_mae"], abs=1e-12)
        assert rung == pytest.approx(3 * 0.3, abs=1e-12)

    def test_k2_matches_exhaustive_on_symmetric_instance(self):
        # complete K4: every k-subset of one size has the same cut, so every
        # rung's sample mean is its exhaustive mean; the k=2 rung's is 4 * 0.3
        g = UncertainGraph(4, [(u, v, 0.6) for u, v in combinations(range(4), 2)])
        g2 = UncertainGraph(4, [(u, v, 0.3) for u, v in combinations(range(4), 2)])
        exhaustive = {
            k: np.mean([abs(cut_sum(g, s) - cut_sum(g2, s)) for s in combinations(range(4), k)])
            for k in ladder(4)
        }
        assert exhaustive[2] == pytest.approx(1.2, abs=1e-12)
        expected = np.mean(list(exhaustive.values()))
        assert CutProfile(g, 30, seed=4).mae(g2) == pytest.approx(expected, abs=1e-12)

    def test_k2_converges_to_exhaustive_mean(self):
        g = random_graph(6, 10, seed=21)
        g2 = UncertainGraph(6, [(u, v, p / 2) for u, v, p in g.edges])
        means, variances = [], []
        for k in ladder(6):
            values = [abs(cut_sum(g, s) - cut_sum(g2, s)) for s in combinations(range(6), k)]
            means.append(np.mean(values))
            variances.append(np.var(values))
        n_cuts = 4000
        mae = CutProfile(g, n_cuts, seed=8).mae(g2)
        # the ladder mean of independent rung means: sd sqrt(sum var_k / n_cuts) / rungs
        sd = math.sqrt(sum(variances) / n_cuts) / len(means)
        assert abs(mae - np.mean(means)) < 5 * sd + 1e-12

    @staticmethod
    def per_subset_mae(g, g2, k, n_cuts, seed):
        # the one-pass form: draw each subset, score both graphs on it, move on
        rng = derive_rng(seed)
        us1, vs1 = g.endpoint_arrays
        us2, vs2 = g2.endpoint_arrays
        total = 0.0
        inside = np.zeros(g.n, dtype=bool)
        for _ in range(n_cuts):
            subset = _floyd_k_subset(rng, g.n, k)
            inside[subset] = True
            c1 = g.probabilities[inside[us1] ^ inside[vs1]].sum()
            c2 = g2.probabilities[inside[us2] ^ inside[vs2]].sum() if g2.m else 0.0
            total += abs(float(c1) - float(c2))
            inside[subset] = False
        return total / n_cuts

    @pytest.mark.parametrize("seed", [1, 2, 5, 12])
    def test_drawn_once_scores_many_graphs_bit_for_bit(self, seed):
        # every rung of the n=12 ladder (k = 1, 2, 3, 6, 9, 12) against the one-pass form
        g = random_graph(12, 30, seed=31)
        others = [UncertainGraph(12, [(u, v, p * f) for u, v, p in g.edges[::step]])
                  for f, step in [(0.5, 1), (0.9, 2), (1.0, 3)]] + [UncertainGraph(12, [])]
        profile = CutProfile(g, 40, seed=seed)
        ks = ladder(12)
        assert [inside.sum(axis=1).tolist() for inside, _ in profile.cuts] == [[k] * 40 for k in ks]
        for g2 in others:
            expected = np.mean([self.per_subset_mae(g, g2, k, 40, seed) for k in ks])
            assert profile.mae(g2) == expected

    def test_profile_drawn_once_equals_fresh_profiles(self):
        g = random_graph(20, 60, seed=32)
        profile = CutProfile(g, 15, seed=3)
        for f in (0.25, 0.5, 1.0):
            out = UncertainGraph(20, [(u, v, p * f) for u, v, p in g.edges[::2]])
            assert profile.mae(out) == CutProfile(g, 15, seed=3).mae(out)

    def test_other_vertex_set_rejected(self):
        g = random_graph(6, 10, seed=2)
        with pytest.raises(ValueError, match="same vertex set"):
            CutProfile(g, 5, seed=1).mae(random_graph(7, 10, seed=2))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_floyd_sampler_is_uniform_sized(self, k, seed):
        subset = _floyd_k_subset(derive_rng(seed), 8, k)
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

    def test_engine_components_of_the_one_world(self):
        # every p = 1, so each sampled world is the whole edge set
        g = UncertainGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        for labels in component_labels(g, sample_masks(g, 0, (), 3)):
            assert labels[0] == labels[1] == labels[2] != labels[3] == labels[4]

    def test_world_hop_distances_match_the_engine(self):
        g = UncertainGraph(4, [(0, 1, 1.0), (1, 2, 1.0)])
        values = sample_answers(g, QueryKind.SHORTEST_PATH, [(0, 2), (0, 3)], n_samples=1,
                                seed=0).values
        assert [defined_sorted(column) for column in values.T] == [[2.0], []]

    def test_hop_distances(self):
        g = UncertainGraph(4, [(0, 1, 1.0), (1, 2, 1.0)])
        units = [(0, 1), (0, 2), (0, 3), (2, 0)]
        values = sample_answers(g, QueryKind.SHORTEST_PATH, units, n_samples=3, seed=0).values
        assert [defined_sorted(column) for column in values.T] == [
            [1.0] * 3, [2.0] * 3, [], [2.0] * 3]


class TestExactOracle:
    def test_single_edge_presence(self):
        g = UncertainGraph(2, [(0, 1, 0.3)])
        exact = exact_query_probability(g, lambda masks: masks.sum(axis=1) == 1)
        assert exact == pytest.approx(0.3, abs=1e-12)

    def test_triangle_connected(self):
        # brute force over the 8 worlds: 4 connected worlds at p=0.5 each -> 0.5
        g = triangle(0.5)
        assert exact_query_probability(g, connected(g)) == pytest.approx(0.5, abs=1e-12)

    def test_constant_true_totals_one(self):
        g = random_graph(8, 12, seed=13)
        exact = exact_query_probability(g, lambda masks: np.ones(len(masks), dtype=bool))
        assert exact == pytest.approx(1.0, abs=1e-12)

    def test_edge_cap(self):
        g = random_graph(10, 26, seed=1)
        with pytest.raises(ValueError, match="enumeration"):
            exact_query_probability(g, lambda masks: np.ones(len(masks), dtype=bool))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_enumeration(self, seed):
        rng = derive_rng(seed, 12)
        touched = int(rng.integers(2, 8))
        n = touched + seed % 3  # the last seed % 3 vertices are isolated
        m = int(rng.integers(0, min(12, touched * (touched - 1) // 2) + 1))
        g = random_graph(touched, m, seed=seed, low=0.1, high=0.95)
        g = UncertainGraph(n, g.edges)
        cases = [(connected(g), nx.is_connected)]
        for s, t in ((0, touched - 1), (1, n - 1), (0, 0)):
            cases.append((reaches(g, s, t), lambda world, s=s, t=t: nx.has_path(world, s, t)))
        for holds, nx_holds in cases:
            expected = networkx_probability(g, nx_holds)
            assert abs(exact_query_probability(g, holds) - expected) <= 1e-12

    @staticmethod
    def check_path_chunks(n):
        """An 18-edge path in n vertices gives 2^18 worlds in chunks of
        EXACT_CHUNK_CELLS // max(|E|, n) rows, the last one shorter; only the
        all-edges world joins the path's two ends.  Returns the chunk sizes."""
        g = UncertainGraph(n, [(i, i + 1, 0.6 + 0.02 * i) for i in range(18)])
        rows = EXACT_CHUNK_CELLS // max(g.m, n)
        chunks = []

        def recording(masks):
            chunks.append(len(masks))
            return reaches(g, 0, 18)(masks)

        exact = exact_query_probability(g, recording)
        assert chunks == [min(rows, (1 << 18) - start) for start in range(0, 1 << 18, rows)]
        assert abs(exact - math.prod(g.probabilities.tolist())) <= 1e-15
        return chunks

    def test_chunk_boundaries(self):
        assert len(self.check_path_chunks(19)) == 5

    def test_chunk_rows_shrink_with_the_vertex_count(self):
        # a predicate builds (B, n) labels, so B * n stays within the budget
        chunks = self.check_path_chunks(200)
        assert len(chunks) == 51 and all(b * 200 <= EXACT_CHUNK_CELLS for b in chunks)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mc_within_five_sigma_of_exact(self, seed):
        g = random_graph(7, 10, seed=seed, low=0.2, high=0.9)
        pair = (0, g.n - 1)
        q = exact_query_probability(g, reaches(g, *pair))
        n = 100_000
        answers = sample_answers(g, QueryKind.RELIABILITY, [pair], n, seed=seed + 100)
        freq = np.mean(defined_sorted(answers.values[:, 0]))
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
        world = nx.Graph()
        world.add_nodes_from(range(g.n))
        world.add_edges_from(g.edge_pairs)
        assert nx.is_connected(world)

    def test_density_below_connectivity_threshold(self):
        with pytest.raises(ValueError, match="connectivity"):
            generate_synthetic(100, 0.001, seed=0)

    def test_deterministic(self):
        g1 = generate_synthetic(30, 0.2, seed=9)
        g2 = generate_synthetic(30, 0.2, seed=9)
        assert g1.edges == g2.edges

    def test_edge_cap_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(usparse.graph, "MAX_GENERATED_EDGES", 743)
        assert generate_synthetic(100, 0.15, seed=1).m == 743  # at the cap is fine
        monkeypatch.setattr(usparse.graph, "MAX_GENERATED_EDGES", 100)
        monkeypatch.setattr(usparse.graph, "derive_rng", lambda *key: pytest.fail("drew before the cap check"))
        with pytest.raises(ValueError, match="asks for 743 edges, above the 100"):
            generate_synthetic(100, 0.15, seed=1)


class TestArrayBoundIntegers:
    """numpy's Generator.integers with an array of bounds returns the numbers, and leaves
    the stream in the state, of one scalar call per bound; the generator's tree and
    pairs, default_units' pairs and CutProfile's Floyd draw keep their bytes by it."""

    @staticmethod
    def bounds(shape, n):
        if shape == "arange":  # the tree's parents; bound 1 draws nothing
            return np.arange(1, n)
        if shape == "constant":  # the generator's candidate pairs
            return np.full(51, n)
        if shape == "pair_tile":  # default_units' pairs
            return np.tile([n, n - 1], 25)
        # one Floyd subset per ladder k, ending at k = n, whose first bound is 1
        ladder = sorted({1, 2, max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n})
        return np.concatenate([np.arange(n - k + 1, n + 1) for k in ladder])

    @pytest.mark.parametrize("n", [2, 7, 100, 1000, 3000])
    @pytest.mark.parametrize("shape", ["arange", "constant", "pair_tile", "floyd"])
    def test_same_numbers_and_state_as_scalar_calls(self, shape, n):
        bounds = self.bounds(shape, n)
        scalar, batched = derive_rng(3, n), derive_rng(3, n)
        expected = [int(scalar.integers(0, b)) for b in bounds.tolist()]
        assert batched.integers(0, bounds).tolist() == expected
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert batched.random(3).tolist() == scalar.random(3).tolist()

    @pytest.mark.parametrize("stop", [1, 7, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 5])
    def test_draw_rows_gives_the_scalar_rows_and_leaves_their_state(self, stop):
        scalar, blocked = derive_rng(9), derive_rng(9)
        expected = [[int(scalar.integers(0, 10)), int(scalar.integers(0, 9))] for _ in range(stop)]
        rows = []
        draw_rows(blocked, (10, 9), lambda u, v: rows.append([u, v]) or len(rows) == stop)
        assert rows == expected
        assert blocked.bit_generator.state == scalar.bit_generator.state


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

    def test_non_utf8_line_reported(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_bytes(b"0 1 0.5\n1 2 0.5\n2 3 \xff0.5\n3 4 0.5\n")
        with pytest.raises(GraphFormatError, match=r"g\.el: line 3: not UTF-8 text$"):
            load_graph(path)

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

            @classmethod
            def from_columns(cls, *args, **kwargs):
                built.append(1)
                return super().from_columns(*args, **kwargs)

        monkeypatch.setattr(graph_mod, "UncertainGraph", CountingGraph)
        with pytest.raises(GraphFormatError, match=f"line {m}: duplicate edge \\(0, 1\\)"):
            load_graph(path)
        assert len(built) == 1

    def test_bad_edge_line_counts_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# n=5\n0 1 0.5\n\n# note\n1 2 0.5\n  \n2 3 0.5 # ok\n2 1 0.3\n")
        with pytest.raises(GraphFormatError, match=r"line 8: duplicate edge \(1, 2\)"):
            load_graph(path)
        path.write_text("# n=5\n\n0 1 0.5\n1 7 0.5\n")
        with pytest.raises(GraphFormatError, match=r"line 4: vertex id out of range: \(1, 7\)"):
            load_graph(path)

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


ODD_IDS = ["+1", "1_0", "\u0661", "1.0", "-1", "-0", "01", "0x1", "1e3",
           "9223372036854775807", "9223372036854775808", "18446744073709551616"]
ODD_PS = ["nan", "-nan", "inf", "-inf", "1e400", "1e-400", "0x1p-1", "1_0.5", ".5", "5e-1",
          "-0.0", "0", "1", "1.5", "\u0661", "0.5_"]
SEPARATORS = [" ", "\t", "\x0b", "\x1c", "\u2002", "\x0c", "\x85", "  "]
COMMENTS = ["# note", "# n=9", "#n=12", "# n=x", "# n=1_0", "# n=-2", "#", "# n=3 # twice"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text mixing well-formed edge lines with odd fields, separators,
    line endings, comments and headers anywhere in the file."""
    lines = []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["edge"] * 4 + ["repeat", "loop", "other", "blank", "comment"]))
        p = repr(draw(st.floats(0.0, 1.0)))
        if kind == "edge":
            fields = [str(i), str(i + 1), p]
            if draw(st.integers(0, 2)) == 0:
                j = draw(st.integers(0, 2))
                fields[j] = draw(st.sampled_from(ODD_PS if j == 2 else ODD_IDS))
        elif kind == "repeat":
            fields = [str(i), str(max(i - 1, 0)), p]
        elif kind == "loop":
            fields = [str(i), str(i), p]
        elif kind == "other":
            tokens = st.sampled_from([*ODD_IDS, *ODD_PS, "0", "1", "2"])
            fields = draw(st.lists(tokens, min_size=1, max_size=4))
        else:
            fields = []
        separator = draw(st.sampled_from(SEPARATORS))
        line = draw(st.sampled_from(["", " ", "\t"])) + separator.join(fields)
        if kind == "comment" or draw(st.integers(0, 4)) == 0:
            line += draw(st.sampled_from(["", " "])) + draw(st.sampled_from(COMMENTS))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def load_outcome(path, allow_zero):
    """The graph's vertex count and column bits, or the GraphFormatError text."""
    try:
        g = load_graph(path, allow_zero=allow_zero)
    except GraphFormatError as exc:
        return str(exc)
    us, vs = g.endpoint_arrays
    return g.n, us.tobytes(), vs.tobytes(), g.probabilities.tobytes()


class TestArrayParseMatchesLineLoop:
    """load_graph's numpy pass reads what the line loop reads, or refuses and leaves it to it."""

    @given(edge_list_texts(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_columns_or_same_error(self, tmp_path_factory, text, allow_zero):
        path = tmp_path_factory.getbasetemp() / "parse.el"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(usparse.graph, "_parse_array", lambda path, text: None):
            expected = load_outcome(path, allow_zero)
        assert load_outcome(path, allow_zero) == expected

    def test_plain_file_is_read_without_the_line_loop(self, tmp_path, monkeypatch):
        g = random_graph(9, 14, seed=8)
        path = tmp_path / "g.el"
        save_graph(g, path)
        header, *rows = path.read_text().splitlines()
        text = "".join([header + "\r\n", *(row + " # note\r\n" for row in rows)])
        path.write_bytes(text.encode())
        monkeypatch.setattr(usparse.graph, "_parse_lines", lambda *a: pytest.fail("line loop ran"))
        assert load_graph(path).edges == g.edges
