"""Tests for the coordinate-descent probability assignment."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from usparse import RunConfig, gdb, sparsify
from usparse.backbone import build_backbone
from usparse.emd import e_phase, emd_run
from usparse.evaluation import CutProfile, quality
from usparse.gdb import (
    ClassSweep,
    Rule,
    SparsifierState,
    apply_step,
    apply_steps,
    binomial_prefix_sum,
    cut_objective,
    cut_rule_coefficient,
    cut_step,
    degree_norms,
    degree_objective,
    degree_step,
    descend,
    gdb_run,
    greedy_edge_colouring,
    sweep,
)
from usparse.graph import (
    DiscrepancyMode,
    UncertainGraph,
    derive_rng,
    generate_synthetic,
)

from test_backbone import backbone_pairs, pair_mask


def bernoulli_entropy(p):
    """One edge's entropy in bits, with 0 log 0 = 0: the oracle for the entropy gate."""
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def full_backbone(g):
    return np.ones(g.m, dtype=bool)


class TestRule:
    def test_default_is_absolute_degree_rule(self):
        assert Rule() == Rule(1, DiscrepancyMode.ABSOLUTE)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_cardinality_below_one(self, k):
        with pytest.raises(ValueError, match="at least 1"):
            Rule(k)

    @pytest.mark.parametrize("k", [2, 5, None])
    def test_cut_rules_are_absolute_only(self, k):
        with pytest.raises(ValueError, match="absolute"):
            Rule(k, DiscrepancyMode.RELATIVE)
        assert Rule(k).mode is DiscrepancyMode.ABSOLUTE


class TestNormalizer:
    def test_absolute_is_one(self):
        g = UncertainGraph(3, [(0, 1, 0.5)])
        assert degree_norms(g, DiscrepancyMode.ABSOLUTE)[0] == 1.0

    def test_relative_is_expected_degree(self):
        g = UncertainGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 0.5)])
        assert degree_norms(g, DiscrepancyMode.RELATIVE)[0] == pytest.approx(2.0)

    def test_relative_isolated_falls_back_to_one(self):
        g = UncertainGraph(3, [(0, 1, 0.5)])
        assert degree_norms(g, DiscrepancyMode.RELATIVE)[2] == 1.0


class TestDegreeStep:
    def test_worked_single_edge_update(self):
        # 0.2 + (0.6 + 0)/2 = 0.5
        assert 0.2 + degree_step(0.6, 0.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_discrepancies_fixed_point(self):
        assert degree_step(0.0, 0.0) == 0.0

    def test_antisymmetric_discrepancies_cancel(self):
        assert degree_step(0.4, -0.4, 1.0, 1.0) == 0.0

    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 10), st.floats(0.01, 10)
    )
    def test_step_is_weighted_average(self, du, dv, nu, nv):
        stp = degree_step(du, dv, nu, nv)
        lo, hi = min(du, dv), max(du, dv)
        assert lo - 1e-9 <= stp <= hi + 1e-9


class TestBinomialPrefixSum:
    def test_examples(self):
        assert binomial_prefix_sum(5, 2) == 16  # 1 + 5 + 10
        assert binomial_prefix_sum(7, -1) == 0
        assert binomial_prefix_sum(4, 9) == 16  # saturates at 2^4
        assert binomial_prefix_sum(6, 0) == 1
        assert binomial_prefix_sum(-1, 3) == 0

    @given(st.integers(0, 20), st.integers(-3, 25))
    def test_against_pascal_triangle(self, n, k):
        # independent oracle: build Pascal's triangle row by row
        row = [1]
        for _ in range(n):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        expected = 0 if k < 0 else sum(row[: min(k, n) + 1])
        assert binomial_prefix_sum(n, k) == expected


class TestCutStep:
    def test_k1_reduces_to_degree_rule_exactly(self):
        rng = derive_rng(0)
        for _ in range(200):
            du, dv, gap = rng.normal(size=3)
            n = int(rng.integers(4, 50))
            assert cut_step(du, dv, gap, cut_rule_coefficient(n, 1)) == degree_step(du, dv, 1.0, 1.0)

    def test_coefficients_huge_n_do_not_overflow(self):
        assert 0.49 < cut_rule_coefficient(5000, 2500) < 0.51
        assert cut_rule_coefficient(5000, None) == 0.5


class TestApplyStep:
    def test_entropy_gate_with_full_h(self):
        assert apply_step(0.2, 0.3, 1.0) == pytest.approx(0.5)

    def test_entropy_gate_damps(self):
        # H(0.5) > H(0.2) so only h of the step is taken
        assert apply_step(0.2, 0.3, 0.1) == pytest.approx(0.2 + 0.1 * 0.3)

    def test_clamp_at_one_skips_gate(self):
        for h in (0.0, 0.3, 1.0):
            assert apply_step(0.9, 0.3, h) == 1.0

    def test_clamp_at_zero(self):
        assert apply_step(0.1, -0.5, 1.0) == 0.0

    def test_zero_step_fixed_point(self):
        assert apply_step(0.5, 0.0, 0.3) == 0.5

    def test_h_zero_blocks_entropy_increase(self):
        assert apply_step(0.2, 0.3, 0.0) == 0.2

    def test_entropy_decreasing_step_taken_fully(self):
        # moving toward 1 from 0.6 lowers entropy: full step regardless of h
        assert apply_step(0.6, 0.3, 0.0) == pytest.approx(0.9)

    @given(st.floats(0, 1), st.floats(-3, 3), st.floats(0, 1))
    def test_result_always_in_unit_interval(self, p, step, h):
        assert 0.0 <= apply_step(p, step, h) <= 1.0

    def test_gate_agrees_with_entropy_comparison(self):
        # oracle: the gate written with the entropy itself, as a rise in entropy
        def entropy_gated(p, step, h):
            cand = min(max(p + step, 0.0), 1.0)
            if bernoulli_entropy(cand) > bernoulli_entropy(p):
                return min(max(p + h * step, 0.0), 1.0)
            return cand

        rng = derive_rng(17)
        ps, steps, hs = rng.random(10**5), rng.uniform(-1.5, 1.5, 10**5), rng.random(10**5)
        compared = 0
        for p, step, h in zip(ps.tolist(), steps.tolist(), hs.tolist()):
            cand = min(max(p + step, 0.0), 1.0)
            if abs(bernoulli_entropy(cand) - bernoulli_entropy(p)) > 1e-12:
                assert apply_step(p, step, h) == entropy_gated(p, step, h), (p, step, h)
                compared += 1
        assert compared > 0.99 * 10**5

    @pytest.mark.parametrize("h", [0.0, 0.05, 0.5, 1.0])
    def test_array_form_matches_scalar_bit_for_bit(self, h):
        rng = derive_rng(18)
        p = rng.random(5000)
        p[::7] = 0.0
        p[3::7] = 1.0
        step = np.concatenate([rng.normal(0.0, 0.5, 4000), rng.normal(0.0, 1e-17, 1000)])
        expected = np.array([apply_step(a, b, h) for a, b in zip(p.tolist(), step.tolist())])
        assert apply_steps(p, step, h).tobytes() == expected.tobytes()


def recorded_steps(monkeypatch, state, rule):
    """Arguments of every step call one cut-rule sweep makes, backbone edge by edge.

    The recorder returns a zero step, so no probability moves and every call
    sees the state as it was.
    """
    calls = []

    def record(*args):
        calls.append(args)
        return 0.0

    monkeypatch.setattr(gdb, "cut_step", record)
    assert sweep(state, rule, h=1.0) == 0
    assert len(calls) == np.count_nonzero(state.in_backbone)
    return calls


def random_probs(state, seed, zero_share=0.0):
    """Give the backbone random working probabilities, a share of them 0, and resync."""
    r = derive_rng(seed, 1).random(np.count_nonzero(state.in_backbone))
    state.probs[state.in_backbone] = np.where(r < zero_share, 0.0, r)
    state.resync()
    return state


def brute_gaps(state, keep):
    """Sum of original minus working probability over the edges `keep` admits."""
    g = state.g
    return sum(p - state.probs[j] for j, (a, b, p) in enumerate(g.edges) if keep(j, a, b))


class TestStateBookkeeping:
    def make_state(self, seed=3):
        g = generate_synthetic(20, 0.4, seed=seed)
        backbone = build_backbone(g, 0.5, seed=seed)
        return g, SparsifierState(g, backbone)

    def test_initial_discrepancy_is_removed_mass(self):
        g, state = self.make_state()
        removed = np.zeros(g.n)
        for (u, v, p), kept in zip(g.edges, state.in_backbone.tolist()):
            if not kept:
                removed[[u, v]] += p
        assert np.allclose(state.disc, removed, atol=1e-12)
        assert state.probs.tolist() == [
            p if kept else 0.0 for (_, _, p), kept in zip(g.edges, state.in_backbone.tolist())
        ]

    def test_incremental_matches_scratch_after_many_updates(self):
        # cut-rule sweeps update the discrepancies incrementally; five of them
        # without a resync stay within drift of a from-scratch recompute
        for rule in (Rule(2), Rule(None)):
            g, state = self.make_state(seed=5)
            random_probs(state, 9)
            assert sum(sweep(state, rule, h=1.0) for _ in range(5)) > 0
            assert state.resync() < 1e-9

    def test_disjoint_mass_gap_brute_force(self, monkeypatch):
        g = UncertainGraph(
            6,
            [(0, 1, 0.5), (0, 2, 0.4), (1, 2, 0.3), (2, 3, 0.8), (3, 4, 0.6), (4, 5, 0.9)],
        )
        states = [SparsifierState(g, pair_mask(g, [(0, 1), (2, 3), (4, 5)])),
                  random_probs(SparsifierState(g, full_backbone(g)), 4)]
        states[0].probs[g.edge_pairs.index((0, 1))] = 0.2
        states[0].resync()
        for state in states:
            calls = recorded_steps(monkeypatch, state, Rule(2))
            pairs = g.edge_pairs
            for idx, (_, _, gap, *_) in zip(np.flatnonzero(state.in_backbone).tolist(), calls):
                u, v = pairs[idx]
                expected = brute_gaps(state, lambda j, a, b: not {a, b} & {u, v})
                assert gap == pytest.approx(expected, abs=1e-12)

    def test_disjoint_gap_two_disjoint_edges(self, monkeypatch):
        g = UncertainGraph(4, [(0, 1, 0.7), (2, 3, 0.4)])
        state = SparsifierState(g, pair_mask(g, [(0, 1)]))  # (2,3) removed at p=0.4
        [(_, _, gap, *_)] = recorded_steps(monkeypatch, state, Rule(2))
        assert gap == pytest.approx(0.4)

    def test_exclude_include_round_trip(self):
        # e_phase takes every backbone edge out and puts one in: the backbone
        # keeps its size and the discrepancies keep the global mass gap
        g, state = self.make_state(seed=7)
        random_probs(state, 7)
        size = np.count_nonzero(state.in_backbone)
        e_phase(state, h=0.05)
        assert np.count_nonzero(state.in_backbone) == size
        gap = g.probabilities.sum() - state.probs.sum()
        assert 0.5 * state.disc.sum() == pytest.approx(gap, abs=1e-9)
        assert state.resync() < 1e-9


def perturbed_state(g, alpha, seed, zero_share=0.0):
    """State on a random backbone with mixed probabilities; a share of them 0."""
    return random_probs(SparsifierState(g, build_backbone(g, alpha, seed=seed)), seed, zero_share)


def two_scatter_disc(state):
    """Discrepancies by the two np.add.at scatters over original minus working probabilities."""
    gaps = state.g.probabilities - state.probs
    d = np.zeros(state.g.n)
    us, vs = state.g.endpoint_arrays
    np.add.at(d, us, gaps)
    np.add.at(d, vs, gaps)
    return d


def reference_cut_sweep(state, rule, h):
    """A cut-rule pass on lists, with every sum and gap taken as its definition reads.

    The masses are Python sums in index order, taken once at the start of the
    pass; each step's gap is the global gap minus both endpoints'
    discrepancies plus the edge's own gap.  Returns (probs, disc) as lists.
    """
    g = state.g
    edges = g.edges
    orig = [p for _, _, p in edges]
    probs = state.probs.tolist()
    disc = state.disc.tolist()
    backbone = [i for i in range(g.m) if state.in_backbone[i]]
    total_orig = sum(orig)
    mass_in = sum(probs[i] for i in range(g.m))
    c = cut_rule_coefficient(g.n, rule.k)
    for idx in backbone:
        u, v, _ = edges[idx]
        own = orig[idx] - probs[idx]
        disjoint = (total_orig - mass_in) - disc[u] - disc[v] + own
        step = (disc[u] + disc[v]) / 2 + c * disjoint
        new_p = apply_step(probs[idx], step, h)
        change = new_p - probs[idx]
        probs[idx] = new_p
        disc[u] -= change
        disc[v] -= change
        mass_in += change
    return probs, disc


class TestExactBookkeeping:
    """Bookkeeping shortcuts give the same bits as the sums they replace."""

    @pytest.mark.parametrize("seed", range(4))
    def test_scratch_disc_matches_two_scatters(self, seed):
        g = generate_synthetic(40, 0.2, seed=seed)
        state = perturbed_state(g, 0.4, seed)
        assert state.disc.tobytes() == two_scatter_disc(state).tobytes()
        fresh = SparsifierState(g, state.in_backbone)
        assert fresh.disc.tobytes() == two_scatter_disc(fresh).tobytes()

    def test_scratch_disc_with_isolated_vertex_and_zero_backbone_edges(self):
        g = generate_synthetic(30, 0.3, seed=11)
        # vertex 30 has no edge at all
        g = UncertainGraph(31, g.edges)
        state = perturbed_state(g, 0.5, 11, zero_share=0.4)
        assert np.count_nonzero(state.probs == 0.0) > np.count_nonzero(~state.in_backbone)
        assert state.disc[30] == 0.0
        assert state.disc.tobytes() == two_scatter_disc(state).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_resync_sums_match_sequential_sums(self, seed):
        # a cut-rule pass sums the masses in index order at its start, so
        # after edges left and joined the backbone its bits match the reference
        g = generate_synthetic(40, 0.2, seed=seed)
        state = perturbed_state(g, 0.4, seed, zero_share=0.2)
        rng = derive_rng(seed, 2)
        state.in_backbone[np.flatnonzero(state.in_backbone)[::3]] = False
        joined = rng.choice(g.m, size=g.m // 10, replace=False)
        joined = joined[~state.in_backbone[joined]]
        state.in_backbone[joined] = True
        state.probs[~state.in_backbone] = 0.0
        state.probs[joined] = rng.random(len(joined))
        state.resync()
        for rule in (Rule(2), Rule(None)):
            probs, disc = reference_cut_sweep(state, rule, h=0.5)
            sweep(state, rule, h=0.5)
            assert state.probs.tobytes() == np.array(probs).tobytes()
            assert state.disc.tobytes() == np.array(disc).tobytes()

    @pytest.mark.parametrize(
        "rule", [Rule(1), Rule(1, DiscrepancyMode.RELATIVE), Rule(2)], ids=["abs", "rel", "k2"]
    )
    def test_descend_last_objective_is_from_scratch(self, rule):
        g = generate_synthetic(50, 0.2, seed=4)
        state = SparsifierState(g, build_backbone(g, 0.3, seed=4))
        info = descend(state, rule, h=0.05)
        assert info["sweeps"] >= 2
        c = cut_rule_coefficient(g.n, rule.k)
        assert info["objective_history"][-1] == cut_objective(state, c, degree_objective(state, rule.mode))
        assert info["objective_final"] == info["objective_history"][-1]

    def test_descend_rejects_negative_tau_accepts_zero(self):
        g = generate_synthetic(12, 0.4, seed=2)
        state = SparsifierState(g, build_backbone(g, 0.5, seed=2))
        with pytest.raises(ValueError, match="tau must be non-negative"):
            descend(state, Rule(), h=0.05, tau=-1e-9)
        assert descend(state, Rule(), h=0.05, tau=0.0, max_sweeps=3)["sweeps"] >= 1


    def test_descend_computes_the_cut_coefficient_once(self, monkeypatch):
        # at k = n/2 the coefficient is the slow part: one pair of prefix sums
        # per descent, however many sweeps it runs
        calls = []

        def counting_prefix_sum(n, k):
            calls.append((n, k))
            return binomial_prefix_sum(n, k)

        monkeypatch.setattr(gdb, "binomial_prefix_sum", counting_prefix_sum)
        g = generate_synthetic(60, 0.2, seed=5)
        backbone = build_backbone(g, 0.7, seed=5)
        counts = {}
        for max_sweeps in (1, 6):
            calls.clear()
            info = descend(SparsifierState(g, backbone), Rule(30), h=0.05, tau=0.0,
                           max_sweeps=max_sweeps)
            assert info["sweeps"] == max_sweeps
            counts[max_sweeps] = len(calls)
        assert counts[6] == counts[1] == 2

def subset_prefix_count(n, k):
    """Sum of C(n, i) for i = 0..k, counted from math.comb; 0 when n or k is negative."""
    return sum(math.comb(n, i) for i in range(min(k, n) + 1)) if min(n, k) >= 0 else 0


class TestCutRuleOracle:
    """The cut rules against every vertex set S with 1 <= |S| <= k, on small graphs.

    D(S) is S's cut mass gap: the original minus the working probability,
    summed over the edges with one end in S.  The k-cut objective is the sum
    of D(S)^2; its coordinate minimizer for edge e is the mean of D(S) over
    the sets e crosses, and the objective descend reports is that sum
    divided by S(n-2, k-1).
    """

    @staticmethod
    def small_state(seed):
        rng = derive_rng(seed, 6)
        n = int(rng.integers(2, 9))
        pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.6] or [(0, 1)]
        probs = rng.uniform(0.05, 1.0, len(pairs)).tolist()
        g = UncertainGraph(n, [(u, v, p) for (u, v), p in zip(pairs, probs)])
        backbone = rng.random(g.m) < 0.7
        backbone[int(rng.integers(g.m))] = True
        return random_probs(SparsifierState(g, backbone), seed)

    @pytest.mark.parametrize("seed", range(24))
    def test_step_and_objective_match_enumeration(self, seed, monkeypatch):
        state = self.small_state(seed)
        g = state.g
        n = g.n
        us, vs = (ends.tolist() for ends in g.endpoint_arrays)
        gaps = (g.probabilities - state.probs).tolist()
        backbone = np.flatnonzero(state.in_backbone).tolist()
        for k in sorted({1, 2, 3, n - 1, n} - {0}):
            subsets = [set(s) for size in range(1, k + 1) for s in combinations(range(n), size)]
            cut_gap = [sum(gap for u, v, gap in zip(us, vs, gaps) if (u in s) != (v in s))
                       for s in subsets]
            expected_objective = sum(d * d for d in cut_gap) / subset_prefix_count(n - 2, k - 1)
            exact_steps = []
            for idx in backbone:
                crossed = [d for s, d in zip(subsets, cut_gap) if (us[idx] in s) != (vs[idx] in s)]
                assert len(crossed) == 2 * subset_prefix_count(n - 2, k - 1)
                exact_steps.append(sum(crossed) / len(crossed))
            for rule in [Rule(k), Rule(None)] if k == n else [Rule(k)]:
                if rule.k == 1:  # the degree rule sweeps by classes, without cut_step
                    calls = [(state.disc[us[i]], state.disc[vs[i]],
                              brute_gaps(state, lambda j, a, b: not {a, b} & {us[i], vs[i]}),
                              cut_rule_coefficient(n, 1)) for i in backbone]
                else:
                    calls = recorded_steps(monkeypatch, state, rule)
                for args, exact in zip(calls, exact_steps):
                    assert cut_step(*args) == pytest.approx(exact, rel=1e-12, abs=1e-12), (n, rule)
                objective = descend(state, rule, h=0.05, max_sweeps=0)["objective_initial"]
                assert objective == pytest.approx(expected_objective, rel=1e-12, abs=1e-12), (n, rule)


class TestObjective:
    def test_zero_discrepancy(self):
        g = generate_synthetic(10, 0.5, seed=0)
        state = SparsifierState(g, full_backbone(g))
        assert degree_objective(state) == pytest.approx(0.0, abs=1e-18)

    def test_sum_of_squares(self):
        g = UncertainGraph(2, [(0, 1, 0.5)])
        g2 = UncertainGraph(2, [(0, 1, 0.35)], allow_zero=True)
        # both vertices have delta 0.15: objective = 2 * 0.15^2 = 0.045
        assert quality(g, g2)["degree_objective"] == pytest.approx(0.045, abs=1e-12)


class TestGdbRun:
    def test_full_backbone_is_fixed_point(self):
        g = generate_synthetic(15, 0.4, seed=2)
        out, info = gdb_run(g, full_backbone(g), h=1.0)
        assert out.edges == tuple((u, v, p) for u, v, p in g.edges)
        assert info["objective_final"] == pytest.approx(0.0, abs=1e-18)
        assert info["sweeps"] == 1

    def test_worked_four_vertex_single_edge_update(self):
        # backbone edge (0,3) at 0.2 with discrepancies 0.6 and 0 moves to 0.5
        g = UncertainGraph(
            4,
            [(0, 1, 0.3), (0, 2, 0.3), (0, 3, 0.2), (1, 3, 0.5), (2, 3, 0.5)],
        )
        state = SparsifierState(g, pair_mask(g, [(0, 3), (1, 3), (2, 3)]))
        idx = g.edge_pairs.index((0, 3))
        assert state.disc[0] == pytest.approx(0.6)
        assert state.disc[3] == pytest.approx(0.0)
        # the three edges share vertex 3: three classes, (0,3) first
        classes = ClassSweep(state, DiscrepancyMode.ABSOLUTE)
        assert len(classes.classes) == 3 and classes.order[0] == idx
        sweep(state, Rule(), h=1.0, classes=classes)
        assert state.probs[idx] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
    def test_objective_monotone_per_sweep(self, h):
        g = generate_synthetic(40, 0.3, seed=8)
        backbone = build_backbone(g, 0.4, seed=8)
        _, info = gdb_run(g, backbone, h=h)
        hist = info["objective_history"]
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_final_not_above_initial(self):
        g = generate_synthetic(50, 0.3, seed=12)
        backbone = build_backbone(g, 0.3, seed=12)
        _, info = gdb_run(g, backbone, h=0.05)
        assert info["objective_final"] <= info["objective_initial"] + 1e-9

    def test_output_edge_set_equals_backbone(self):
        g = generate_synthetic(30, 0.4, seed=3)
        backbone = build_backbone(g, 0.35, seed=3)
        out, _ = gdb_run(g, backbone, h=0.05)
        assert [(u, v) for u, v, _ in out.edges] == backbone_pairs(g, backbone)

    def test_probabilities_in_unit_interval(self):
        g = generate_synthetic(30, 0.4, seed=4)
        backbone = build_backbone(g, 0.3, seed=4)
        out, _ = gdb_run(g, backbone, h=1.0)
        assert all(0.0 <= p <= 1.0 for _, _, p in out.edges)

    def test_h_zero_keeps_entropy_raising_probabilities(self):
        g = generate_synthetic(25, 0.4, seed=6)
        backbone = build_backbone(g, 0.3, seed=6)
        out, _ = gdb_run(g, backbone, h=0.0)
        original = {(u, v): p for u, v, p in g.edges}
        for u, v, p in out.edges:
            if p != original[(u, v)]:
                # any change taken at h=0 cannot have raised entropy
                assert bernoulli_entropy(p) <= bernoulli_entropy(original[(u, v)]) + 1e-12

    def test_relative_mode_terminates_and_improves(self):
        g = generate_synthetic(30, 0.4, seed=13)
        backbone = build_backbone(g, 0.4, seed=13)
        _, info = gdb_run(g, backbone, h=0.05, rule=Rule(1, DiscrepancyMode.RELATIVE))
        assert info["objective_final"] <= info["objective_initial"] + 1e-9

    def test_cut2_run_respects_contracts(self):
        g = generate_synthetic(25, 0.5, seed=15)
        backbone = build_backbone(g, 0.4, seed=15)
        out, info = gdb_run(g, backbone, h=0.05, rule=Rule(2))
        assert [(u, v) for u, v, _ in out.edges] == backbone_pairs(g, backbone)
        assert all(0.0 <= p <= 1.0 for _, _, p in out.edges)
        assert info["sweeps"] >= 1

    def test_cut_rules_keep_sampled_cuts_on_the_readme_graph(self):
        # at alpha 0.6 the all-cuts rule (k = n) keeps the sampled cuts within
        # 10% of the degree rule, and the 2-cut rule keeps them no worse
        g = generate_synthetic(100, 0.15, seed=1)
        cuts = CutProfile(g, 200, 3)
        mae = {rule: cuts.mae(sparsify(g, RunConfig(method="gdb", alpha=0.6, rule=rule, seed=7))[0])
               for rule in ("1", "2", "all")}
        assert mae["all"] <= 1.1 * mae["1"] and mae["2"] <= mae["1"], mae

    def test_invalid_backbone_rejected(self):
        # a pair list, a mask one entry past g's edges and a 0/1 int array
        g = generate_synthetic(10, 0.5, seed=1)
        for bad in (
            g.edge_pairs[:5],
            np.ones(g.m + 1, dtype=bool),
            np.ones(g.m, dtype=np.int64),
        ):
            for run in (gdb_run, emd_run):
                with pytest.raises(ValueError, match=rf"bool mask of shape \({g.m},\)"):
                    run(g, bad)

    def test_h_out_of_range(self):
        g = generate_synthetic(10, 0.5, seed=1)
        with pytest.raises(ValueError, match="h must"):
            gdb_run(g, full_backbone(g), h=1.5)


def scalar_degree_update(pairs, probs, disc, idx, norms, h):
    """One degree-rule coordinate update on lists, through the scalar functions.

    pairs is g.edge_pairs, read once by the caller.
    """
    u, v = pairs[idx]
    new_p = apply_step(probs[idx], degree_step(disc[u], disc[v], norms[u], norms[v]), h)
    change = new_p - probs[idx]
    probs[idx] = new_p
    disc[u] -= change
    disc[v] -= change


def canonical_order_descend(state, mode, h, max_sweeps=100):
    """Reference descent: scalar updates edge by edge in canonical order."""
    g = state.g
    norms = degree_norms(g, mode).tolist()
    pairs = g.edge_pairs
    backbone = np.flatnonzero(state.in_backbone).tolist()
    previous = degree_objective(state, mode)
    tau = 1e-6 * previous
    for _ in range(max_sweeps):
        probs, disc = state.probs.tolist(), state.disc.tolist()
        for idx in backbone:
            scalar_degree_update(pairs, probs, disc, idx, norms, h)
        state.probs[:] = probs
        state.resync()
        current = degree_objective(state, mode)
        if abs(previous - current) <= tau:
            break
        previous = current
    return current


class TestClassSweep:
    @pytest.mark.parametrize("seed", range(5))
    def test_colouring_is_proper_and_covers_backbone_once(self, seed):
        g = generate_synthetic(60, 0.2, seed=seed)
        state = SparsifierState(g, build_backbone(g, 0.4, seed=seed))
        classes = ClassSweep(state, DiscrepancyMode.ABSOLUTE)
        assert sorted(classes.order.tolist()) == np.flatnonzero(state.in_backbone).tolist()
        us, vs = g.endpoint_arrays
        start = 0
        for ends, _, _, probs in classes.classes:
            stop = start + ends.shape[1]
            assert ends.shape[1] > 0 and len(set(ends.ravel().tolist())) == ends.size
            slots = classes.order[start:stop]
            assert ends.tolist() == [us[slots].tolist(), vs[slots].tolist()]
            assert probs.tolist() == state.probs[slots].tolist()
            start = stop
        assert start == len(classes.order)

    @pytest.mark.parametrize("seed", range(5))
    def test_colouring_bound_and_determinism(self, seed):
        g = generate_synthetic(80, 0.3, seed=seed)
        backbone = np.flatnonzero(build_backbone(g, 0.5, seed=seed))
        us, vs = (ends[backbone] for ends in g.endpoint_arrays)
        colours = greedy_edge_colouring(g.n, us, vs)
        max_degree = int(np.bincount(np.concatenate([us, vs])).max())
        assert colours.max() + 1 <= 2 * max_degree - 1
        assert set(colours.tolist()) == set(range(colours.max() + 1))
        assert greedy_edge_colouring(g.n, us, vs).tobytes() == colours.tobytes()
        for c in range(colours.max() + 1):
            ends = np.concatenate([us[colours == c], vs[colours == c]])
            assert len(np.unique(ends)) == len(ends)

    def test_greedy_needs_more_than_max_degree_on_a_path_order(self):
        # path 0-1-2-3 coloured as (0,1), (2,3), (1,2): the last edge sees
        # colour 0 at both ends, so it takes colour 1 (D = 2, 2D - 1 = 3)
        colours = greedy_edge_colouring(4, np.array([0, 2, 1]), np.array([1, 3, 2]))
        assert colours.tolist() == [0, 0, 1]
        triangle = greedy_edge_colouring(3, np.array([0, 0, 1]), np.array([1, 2, 2]))
        assert triangle.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("mode", list(DiscrepancyMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
    def test_class_updates_equal_sequential_scalar_updates(self, mode, h):
        # independent oracle: each class's edges updated one at a time through
        # degree_step and apply_step on lists, in a random order per class
        g = generate_synthetic(50, 0.25, seed=21)
        state = perturbed_state(g, 0.4, 21, zero_share=0.1)
        probs, disc = state.probs.tolist(), state.disc.tolist()
        classes = ClassSweep(state, mode)
        classes.sweep(h)
        norms = degree_norms(g, mode).tolist()
        pairs = g.edge_pairs
        rng = derive_rng(22)
        start = 0
        for ends, *_ in classes.classes:
            stop = start + ends.shape[1]
            for idx in rng.permutation(classes.order[start:stop]).tolist():
                scalar_degree_update(pairs, probs, disc, idx, norms, h)
            start = stop
        assert classes.probs.tobytes() == np.array(probs)[classes.order].tobytes()
        assert state.probs.tobytes() == np.array(probs).tobytes()
        assert state.disc.tobytes() == np.array(disc).tobytes()

    @pytest.mark.parametrize("mode", list(DiscrepancyMode), ids=lambda m: m.value)
    def test_objective_close_to_canonical_order_reference(self, mode):
        for seed in range(10):
            g = generate_synthetic(60, 0.2, seed=seed)
            backbone = build_backbone(g, 0.3, seed=seed)
            _, info = gdb_run(g, backbone, rule=Rule(1, mode))
            reference = canonical_order_descend(SparsifierState(g, backbone), mode, h=0.05)
            assert info["objective_final"] == pytest.approx(reference, rel=1e-4), seed

    def test_lone_sweep_stores_the_state_in_sync(self):
        # sweep without a ClassSweep colours the backbone by itself and leaves
        # every update in the state, its discrepancies within drift of scratch
        g = generate_synthetic(40, 0.3, seed=24)
        state = perturbed_state(g, 0.3, 24, zero_share=0.1)
        before = state.probs.copy()
        changed = sweep(state, Rule(), h=0.05)
        assert changed == np.count_nonzero(state.probs != before) > 0
        assert state.resync() < 1e-12

    def test_descend_writes_state_back_once_in_sync(self):
        g = generate_synthetic(40, 0.3, seed=23)
        state = SparsifierState(g, build_backbone(g, 0.3, seed=23))
        info = descend(state, Rule(), h=0.05)
        disc = state.disc.copy()
        assert state.resync() == 0.0
        assert state.disc.tobytes() == disc.tobytes()
        assert info["objective_final"] == degree_objective(state)
