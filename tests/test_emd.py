"""Tests for the expectation-maximization sparsifier and its vertex heap."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usparse import emd
from usparse.backbone import build_backbone
from usparse.emd import VertexHeap, e_phase, emd_run, gain_value
from usparse.evaluation import quality
from usparse.gdb import (
    SparsifierState,
    apply_step,
    degree_norms,
    degree_objective,
    degree_step,
    gdb_run,
)
from usparse.graph import DiscrepancyMode, UncertainGraph, derive_rng, generate_synthetic

from test_backbone import pair_mask


def full_backbone(g):
    return np.ones(g.m, dtype=bool)


class TestVertexHeap:
    def test_top_is_max_absolute_key(self):
        heap = VertexHeap([0.1, -0.9, 0.4])
        assert heap.top() == 1
        heap.update(2, -1.5)
        assert heap.top() == 2

    def test_update_restores_order(self):
        heap = VertexHeap([0.1, 0.9, 0.4])
        heap.update(1, 0.0)
        assert heap.top() == 2
        heap.update(0, -2.0)
        assert heap.top() == 0

    def test_tie_breaks_to_smaller_id(self):
        heap = VertexHeap([0.5, 0.5, 0.5])
        assert heap.top() == 0

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_top_matches_linear_scan_under_updates(self, keys, seed):
        heap = VertexHeap(keys)
        current = list(keys)
        rng = derive_rng(seed)
        for _ in range(20):
            u = int(rng.integers(0, len(keys)))
            value = float(rng.normal())
            current[u] = value
            heap.update(u, value)
            top = heap.top()
            assert abs(current[top]) == max(abs(k) for k in current)


class TestGain:
    def test_zero_candidate_is_noop(self):
        assert gain_value(0.7, -0.3, 0.0) == 0.0

    def test_worked_example(self):
        # (0.36 - 0.01) + (0.16 - 0.01) = 0.5
        assert gain_value(0.6, 0.4, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_matches_scratch_objective_difference(self):
        g = UncertainGraph(
            5, [(0, 1, 0.6), (0, 2, 0.5), (1, 2, 0.4), (2, 3, 0.7), (3, 4, 0.8)]
        )
        state = SparsifierState(g, pair_mask(g, [(0, 1), (2, 3), (3, 4)]))
        pairs = g.edge_pairs
        for idx in (1, 2):  # excluded edges (0,2) and (1,2)
            u, v = pairs[idx]
            du, dv = state.disc[u], state.disc[v]
            for w in (0.2, 0.5, 0.9):
                without = degree_objective(state)
                with_edge = objective_with(state, idx, w)
                assert gain_value(du, dv, w) == pytest.approx(without - with_edge, abs=1e-12)

    def test_weighted_gain_matches_relative_objective_difference(self):
        g = UncertainGraph(
            5, [(0, 1, 0.6), (0, 2, 0.5), (1, 2, 0.4), (2, 3, 0.7), (3, 4, 0.8)]
        )
        rel = DiscrepancyMode.RELATIVE
        norms = degree_norms(g, rel)
        state = SparsifierState(g, pair_mask(g, [(0, 1), (2, 3), (3, 4)]))
        pairs = g.edge_pairs
        for idx in (1, 2):
            u, v = pairs[idx]
            du, dv = state.disc[u], state.disc[v]
            for w in (0.2, 0.5, 0.9):
                without = degree_objective(state, rel)
                with_edge = objective_with(state, idx, w, rel)
                assert gain_value(du, dv, w, norms[u] ** 2, norms[v] ** 2) == pytest.approx(
                    without - with_edge, abs=1e-12
                )

    def test_rule_optimal_probability_maximizes_gain(self):
        # gain is concave in the inserted mass, maximized at the clamped full step
        rng = derive_rng(4)
        for _ in range(300):
            du, dv = rng.normal(size=2)
            stp = degree_step(du, dv)
            w_star = apply_step(0.0, stp, 1.0)
            g_star = gain_value(du, dv, w_star)
            for w in rng.random(5):
                assert g_star >= gain_value(du, dv, float(w)) - 1e-12


class TestEPhase:
    def test_fixed_point_when_discrepancies_zero(self):
        g = generate_synthetic(12, 0.5, seed=1)
        state = SparsifierState(g, full_backbone(g))
        swaps = e_phase(state, h=0.05)
        assert swaps == 0
        assert state.probs.tolist() == [p for _, _, p in g.edges]
        assert state.in_backbone.all() and not state.disc.any()

    def test_backbone_cardinality_invariant(self):
        g = generate_synthetic(25, 0.4, seed=2)
        backbone = build_backbone(g, 0.4, seed=2)
        state = SparsifierState(g, backbone)
        size_before = np.count_nonzero(state.in_backbone)
        swaps = e_phase(state, h=0.05)
        assert np.count_nonzero(state.in_backbone) == size_before
        assert not state.probs[~state.in_backbone].any()
        assert 0 <= swaps <= size_before

    def test_objective_not_increased(self):
        for seed in range(5):
            g = generate_synthetic(20, 0.45, seed=seed)
            backbone = build_backbone(g, 0.35, seed=seed)
            state = SparsifierState(g, backbone)
            before = degree_objective(state)
            e_phase(state, h=0.05)
            assert degree_objective(state) <= before + 1e-9

    def test_bookkeeping_consistent_after_phase(self):
        g = generate_synthetic(18, 0.5, seed=3)
        backbone = build_backbone(g, 0.4, seed=3)
        state = SparsifierState(g, backbone)
        e_phase(state, h=0.05)
        assert state.resync() < 1e-9


def reference_e_phase(state, h, mode):
    """The swap pass as its docstring states it: one call per candidate.

    Works on list copies of the state and writes them back.  Returns (swaps,
    counts).  counts["ties"] counts candidates whose gain equalled the best
    entry's, so a test can tell that the tie-break decided something;
    counts["saturated"] the steps whose top vertex and excluded neighbors all
    have discrepancy >= 1 (e_phase's one-max steps), and counts["interior"]
    the steps where some candidate competed at a probability below 1 (the 0
    or h*step branch).
    """
    g = state.g
    norms = degree_norms(g, mode).tolist()
    sq_norms = [norm**2 for norm in norms]
    probs, disc = state.probs.tolist(), state.disc.tolist()
    in_backbone = state.in_backbone.tolist()
    pairs = g.edge_pairs

    def set_prob(idx, value):
        u, v = pairs[idx]
        change = value - probs[idx]
        probs[idx] = value
        disc[u] -= change
        disc[v] -= change

    heap = VertexHeap(disc)
    swaps = 0
    counts = Counter()
    for idx in [i for i in range(g.m) if in_backbone[i]]:
        u, v = pairs[idx]
        prior = probs[idx]
        set_prob(idx, 0.0)
        in_backbone[idx] = False
        heap.update(u, disc[u])
        heap.update(v, disc[v])
        top = heap.top()
        best = (-gain_value(disc[u], disc[v], prior, sq_norms[u], sq_norms[v]), 0, (u, v), idx, prior)
        saturated, interior = disc[top] >= 1.0, False
        for x, eidx in g.neighbors(top):
            if in_backbone[eidx]:
                continue
            a, b = pairs[eidx]
            w = apply_step(0.0, degree_step(disc[a], disc[b], norms[a], norms[b]), h)
            entry = (-gain_value(disc[a], disc[b], w, sq_norms[a], sq_norms[b]), 1, (a, b), eidx, w)
            counts["ties"] += entry[0] == best[0]
            best = min(best, entry)
            saturated = saturated and disc[x] >= 1.0
            interior = interior or w < 1.0
        counts["saturated"] += saturated
        counts["interior"] += interior
        _, _, (a, b), chosen, w = best
        in_backbone[chosen] = True
        set_prob(chosen, w)
        heap.update(a, disc[a])
        heap.update(b, disc[b])
        swaps += chosen != idx
    state.probs[:] = probs
    state.in_backbone[:] = in_backbone
    state.disc[:] = disc
    return swaps, counts


def objective_with(state, idx, w, mode=DiscrepancyMode.ABSOLUTE):
    """degree_objective with excluded edge idx admitted at w, the state left as it was."""
    state.probs[idx] = w
    try:
        return degree_objective(state, mode)
    finally:
        state.probs[idx] = 0.0


class TestEPhaseReference:
    """e_phase's inline scan picks the reference's winner with the same bits."""

    @staticmethod
    def assert_same_passes(g, alpha, seed, h, mode, shuffle=False, passes=2, backbone=None,
                           probs=None):
        if backbone is None:
            backbone = build_backbone(g, alpha, seed=seed)
        fast = SparsifierState(g, backbone)
        slow = SparsifierState(g, backbone)
        if shuffle:
            # Random probabilities give discrepancies of both signs, so the
            # closed form's 0, h*step and 1 branches all win some slots.
            probs = derive_rng(seed, 1).random(np.count_nonzero(backbone))
        if probs is not None:
            for state in (fast, slow):
                state.probs[backbone] = probs
                state.resync()
        total = Counter()
        for _ in range(passes):
            swaps = e_phase(fast, h, mode)
            ref_swaps, counts = reference_e_phase(slow, h, mode)
            total += counts
            assert swaps == ref_swaps
            assert fast.in_backbone.tobytes() == slow.in_backbone.tobytes()
            assert fast.probs.tobytes() == slow.probs.tobytes()
            assert fast.disc.tobytes() == slow.disc.tobytes()
        return total

    @pytest.mark.parametrize("start", ["backbone", "shuffled"])
    @pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("mode", list(DiscrepancyMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed, mode, h, start):
        g = generate_synthetic(24 + 4 * seed, 0.3, seed=seed)
        if start == "backbone":
            self.assert_same_passes(g, 0.3, seed, h, mode)
        else:
            counts = self.assert_same_passes(g, 0.6, seed, h, mode, shuffle=True)
            # the per-candidate fallback decides steps where 0 or h*step competes
            assert counts["interior"] > 0

    @pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("mode", list(DiscrepancyMode), ids=lambda m: m.value)
    def test_readme_graph_saturated_steps(self, mode, h):
        # the README graph at alpha 0.3: most steps are one max over the
        # cached terms, since every candidate saturates at probability 1
        g = generate_synthetic(100, 0.15, seed=1)
        counts = self.assert_same_passes(g, 0.3, 7, h, mode)
        assert counts["saturated"] > counts["interior"]

    @pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("mode", list(DiscrepancyMode), ids=lambda m: m.value)
    def test_equal_probabilities_ties_decide(self, mode, h):
        edges = [(u, v, 0.5) for u, v, _ in generate_synthetic(30, 0.4, seed=3).edges]
        g = UncertainGraph(30, edges)
        counts = self.assert_same_passes(g, 0.3, 3, h, mode)
        assert counts["ties"] > 0

    def test_negative_top_is_scored_per_candidate(self):
        # Vertex 2 keeps five edges at 0.9 against an original 0.1, so its
        # discrepancy is -3.4 and it tops the heap once the first backbone
        # edge, (0, 1) at 0.9, is taken out.  Its one excluded neighbor, 8,
        # has discrepancy 1.2 and a finite cached term, but the step toward
        # it is negative: the candidate competes at probability 0, with gain
        # 0, and beats putting (0, 1) back (gain -1.26).
        edges = [(0, 1, 0.1), (2, 8, 0.6), (8, 9, 0.6)]
        edges += [(2, leaf, 0.1) for leaf in range(3, 8)]
        g = UncertainGraph(10, edges)
        backbone = np.array([p == 0.1 for _, _, p in g.edges])
        probs = np.full(np.count_nonzero(backbone), 0.9)
        counts = self.assert_same_passes(g, 0.0, 0, 0.05, DiscrepancyMode.ABSOLUTE,
                                         backbone=backbone, probs=probs, passes=1)
        assert counts["interior"] >= 1

    def test_rounding_collapse_keeps_the_first_candidate(self):
        # Vertex 0 loses 20 unit edges to leaves and two 0.75 edges, to 1 and
        # 2; vertices 1 and 2 each lose a further edge, 2's heavier by two
        # ulps of 0.75, so 2's discrepancy is one ulp above 1's 1.5.  The
        # backbone is the one edge (3, 4).  With it taken out, vertex 0
        # (discrepancy 21.5) tops the heap and every candidate saturates.
        # Vertex 2's term at probability 1 is larger than 1's, but both sum
        # with 0's term to one float, so the first candidate in canonical
        # order, edge (0, 1), must win.
        heavy = 0.75 + 2**-52
        edges = [(0, 1, 0.75), (0, 2, 0.75), (1, 3, 0.75), (2, 4, heavy), (3, 4, 0.5)]
        edges += [(0, leaf, 1.0) for leaf in range(5, 25)]
        g = UncertainGraph(25, edges)
        backbone = np.array([pair == (3, 4) for pair in g.edge_pairs])
        state = SparsifierState(g, backbone)
        disc = state.disc.tolist()
        assert disc[:3] == [21.5, 1.5, math.nextafter(1.5, 2.0)]
        top_term, term_1, term_2 = ((d**2 - (d - 1.0) ** 2) for d in disc[:3])
        assert term_1 < term_2 and top_term + term_1 == top_term + term_2
        counts = self.assert_same_passes(g, 0.0, 0, 0.05, DiscrepancyMode.ABSOLUTE,
                                         backbone=backbone, passes=1)
        assert counts["saturated"] == 1
        e_phase(state, 0.05)
        assert [pair for pair, kept in zip(g.edge_pairs, state.in_backbone) if kept] == [(0, 1)]

    @pytest.mark.parametrize(
        "step",
        [-2.0, -0.0, 0.0, 5e-324, 0.3, math.nextafter(1.0, 0.0), 1.0, 1.5],
    )
    @pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
    def test_closed_form_candidate_probability(self, step, h):
        # e_phase inlines this form of apply_step(0.0, step, h): entropy at 0
        # is 0 and positive inside (0, 1), so only interior steps are damped.
        closed = 0.0 if step <= 0.0 else 1.0 if step >= 1.0 else h * step
        assert closed.hex() == apply_step(0.0, step, h).hex()


class TestEmdRun:
    def test_negative_tau_rejected_before_any_swap_pass(self, monkeypatch):
        calls = []

        def counting_e_phase(*args, **kwargs):
            calls.append(args)
            return e_phase(*args, **kwargs)

        monkeypatch.setattr(emd, "e_phase", counting_e_phase)
        g = generate_synthetic(20, 0.4, seed=1)
        with pytest.raises(ValueError, match="tau must be non-negative"):
            emd_run(g, build_backbone(g, 0.3, seed=1), tau=-1.0)
        assert calls == []
        emd_run(g, build_backbone(g, 0.3, seed=1), tau=0.0, max_iters=1)
        assert len(calls) == 1

    def test_full_backbone_immediate_convergence(self):
        g = generate_synthetic(15, 0.4, seed=4)
        out, info = emd_run(g, full_backbone(g), h=0.05)
        assert out.edges == g.edges
        assert info["iterations"] == 1
        assert info["objective_final"] == pytest.approx(0.0, abs=1e-15)

    def test_output_size_invariant(self):
        g = generate_synthetic(30, 0.4, seed=5)
        backbone = build_backbone(g, 0.3, seed=5)
        out, info = emd_run(g, backbone, h=0.05)
        assert out.m == np.count_nonzero(backbone)
        assert all(0.0 <= p <= 1.0 for _, _, p in out.edges)
        assert set((u, v) for u, v, _ in out.edges) <= {(u, v) for u, v, _ in g.edges}

    def test_objective_monotone_per_iteration(self):
        g = generate_synthetic(30, 0.4, seed=6)
        backbone = build_backbone(g, 0.35, seed=6)
        _, info = emd_run(g, backbone, h=0.05)
        hist = info["objective_history"]
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_objective_monotone_per_iteration_relative(self):
        g = generate_synthetic(30, 0.4, seed=6)
        backbone = build_backbone(g, 0.35, seed=6)
        _, info = emd_run(g, backbone, h=0.05, mode=DiscrepancyMode.RELATIVE)
        hist = info["objective_history"]
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("seed", range(12))
    def test_relative_objective_never_rises(self, seed):
        g = generate_synthetic(60, 0.2, seed=seed)
        backbone = build_backbone(g, 0.3, seed=seed)
        _, info = emd_run(g, backbone, mode=DiscrepancyMode.RELATIVE)
        hist = info["objective_history"]
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_usually_no_worse_than_descent_alone(self):
        wins = 0
        trials = 10
        for seed in range(trials):
            g = generate_synthetic(30, 0.35, seed=100 + seed)
            backbone = build_backbone(g, 0.3, seed=seed)
            got_emd, _ = emd_run(g, backbone, h=0.05)
            got_gdb, _ = gdb_run(g, backbone, h=0.05)
            d_emd = quality(g, got_emd)["degree_objective"]
            d_gdb = quality(g, got_gdb)["degree_objective"]
            if d_emd <= d_gdb + 1e-12:
                wins += 1
        assert wins >= trials // 2

    def test_relative_mode_runs(self):
        g = generate_synthetic(20, 0.5, seed=7)
        backbone = build_backbone(g, 0.4, seed=7)
        out, info = emd_run(g, backbone, h=0.05, mode=DiscrepancyMode.RELATIVE)
        assert out.m == np.count_nonzero(backbone)
        assert info["objective_final"] <= info["objective_initial"] + 1e-9

    def test_deterministic(self):
        g = generate_synthetic(25, 0.4, seed=8)
        backbone = build_backbone(g, 0.35, seed=8)
        out1, _ = emd_run(g, backbone, h=0.05)
        out2, _ = emd_run(g, backbone, h=0.05)
        assert out1.edges == out2.edges
