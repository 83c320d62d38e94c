"""Tests for the expectation-maximization sparsifier and its swap pass."""

import heapq
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usparse import emd
from usparse.backbone import build_backbone
from usparse.emd import e_phase, emd_run, gain_value
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
    have discrepancy >= 1 (e_phase's one-max steps); counts["interior"] the
    steps where some candidate competed at a probability below 1 (the 0 or
    h*step branch); counts["empty"] the steps whose top vertex has no
    excluded edge, so that e goes back; counts["reentered"] the steps where e
    wins its own slot at a probability other than its prior; and
    counts["inexact"] the endpoints whose discrepancy, with e put back at its
    prior, does not compare equal to its value before the step, because
    (d + p) - p rounded.  The top vertex comes from a linear
    scan over every vertex, and its edges from lists built here in canonical
    order, so the oracle shares no structure with e_phase.
    """
    g = state.g
    norms = degree_norms(g, mode).tolist()
    sq_norms = [norm**2 for norm in norms]
    probs, disc = state.probs.tolist(), state.disc.tolist()
    in_backbone = state.in_backbone.tolist()
    pairs = g.edge_pairs
    incident = [[] for _ in range(g.n)]
    for eidx, (a, b) in enumerate(pairs):
        incident[a].append(eidx)
        incident[b].append(eidx)

    def set_prob(idx, value):
        u, v = pairs[idx]
        change = value - probs[idx]
        probs[idx] = value
        disc[u] -= change
        disc[v] -= change

    swaps = 0
    counts = Counter()
    for idx in [i for i in range(g.m) if in_backbone[i]]:
        u, v = pairs[idx]
        prior = probs[idx]
        before = disc[u], disc[v]
        set_prob(idx, 0.0)
        in_backbone[idx] = False
        # the largest |discrepancy|, ties to the smallest vertex id
        top = max(range(g.n), key=lambda x: (abs(disc[x]), -x))
        best = (-gain_value(disc[u], disc[v], prior, sq_norms[u], sq_norms[v]), 0, idx, prior)
        saturated, interior, empty = disc[top] >= 1.0, False, True
        for eidx in incident[top]:
            if in_backbone[eidx]:
                continue
            a, b = pairs[eidx]
            x = b if a == top else a
            w = apply_step(0.0, degree_step(disc[a], disc[b], norms[a], norms[b]), h)
            entry = (-gain_value(disc[a], disc[b], w, sq_norms[a], sq_norms[b]), 1, eidx, w)
            counts["ties"] += entry[0] == best[0]
            best = min(best, entry)
            saturated = saturated and disc[x] >= 1.0
            interior = interior or w < 1.0
            empty = False
        counts["saturated"] += saturated
        counts["interior"] += interior
        counts["empty"] += empty
        _, _, chosen, w = best
        in_backbone[chosen] = True
        set_prob(chosen, w)
        swaps += chosen != idx
        if chosen == idx:
            counts["reentered"] += w != prior
            if w == prior:
                counts["inexact"] += (disc[u] != before[0]) + (disc[v] != before[1])
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
        # e's own scan wins its slot back off its prior, and a put-back at
        # the prior fails to round-trip: both push a final key
        assert counts["reentered"] > 0 and counts["inexact"] > 0

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

    @pytest.mark.parametrize("mode", list(DiscrepancyMode), ids=lambda m: m.value)
    def test_trailing_isolated_vertices_and_a_top_with_no_excluded_edge(self, mode):
        # The generated graph rebuilt with three more vertices, which have no
        # edges, so the last adjacency slices are empty.  The backbone holds
        # every edge of the busiest vertex, at probability 0.05, so that
        # vertex tops the heap with no excluded edge while e lies elsewhere.
        base = generate_synthetic(30, 0.3, seed=5)
        us, vs = base.endpoint_arrays
        g = UncertainGraph.from_columns(base.n + 3, us, vs, base.probabilities)
        hub = int(np.argmax(np.bincount(np.concatenate((us, vs)))))
        at_hub = (us == hub) | (vs == hub)
        backbone = build_backbone(base, 0.3, seed=5) | at_hub
        probs = np.where(at_hub, 0.05, g.probabilities)[backbone]
        pairs = g.edge_pairs
        for t, (ids, at_neighbors, at_edges) in enumerate(emd.neighbor_gathers(g)):
            assert ids == tuple(i for i, pair in enumerate(pairs) if t in pair)
            assert at_edges(range(g.m)) == ids
            assert at_neighbors(range(g.n)) == tuple(sum(pairs[i]) - t for i in ids)
        assert t == g.n - 1 and ids == ()
        counts = self.assert_same_passes(g, 0.0, 0, 0.05, mode, backbone=backbone, probs=probs)
        assert counts["empty"] > 0

    @pytest.mark.parametrize("mode", list(DiscrepancyMode), ids=lambda m: m.value)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_quarter_probabilities_recur_heap_keys(self, mode, data):
        # Sums of quarters are exact, so |discrepancy| values recur and a
        # stale heap entry's key becomes its vertex's current key again.  At
        # n = 2 the lookup can pop both endpoints' entries and empty the heap.
        quarters = st.sampled_from([0.25, 0.5, 0.75, 1.0])
        n = data.draw(st.integers(2, 9), label="n")
        all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        pairs = data.draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True),
                          label="pairs")
        g = UncertainGraph(n, [(a, b, data.draw(quarters)) for a, b in pairs])
        backbone = np.array(data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)))
        size = int(np.count_nonzero(backbone))
        probs = np.array(data.draw(st.lists(quarters, min_size=size, max_size=size)), dtype=float)
        h = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="h")
        self.assert_same_passes(g, 0.0, 0, h, mode, backbone=backbone, probs=probs)

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


class CountingHeapq:
    """heapq with its pushes and pops counted, to stand in for usparse.emd.heapq."""

    heapify = staticmethod(heapq.heapify)

    def __init__(self):
        self.pushes = self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


class TestHeapTraffic:
    """A step pushes entries only for vertices it leaves changed or whose entry it popped."""

    def test_fixed_point_pushes_back_only_what_the_lookup_popped(self, monkeypatch):
        # Every removed edge goes straight back and every discrepancy returns
        # to 0, so the only pushes reinstate pre-step entries that surfaced
        # as stale while the edge was out.
        counter = CountingHeapq()
        monkeypatch.setattr(emd, "heapq", counter)
        g = generate_synthetic(12, 0.5, seed=1)
        state = SparsifierState(g, full_backbone(g))
        assert e_phase(state, h=0.05) == 0
        assert counter.pops > 0
        assert counter.pushes == counter.pops

    def test_readme_graph_second_pass_pushes_fewer_entries_than_steps(self, monkeypatch):
        g = generate_synthetic(100, 0.15, seed=1)
        state = SparsifierState(g, build_backbone(g, 0.3, seed=7))
        e_phase(state, h=0.05)
        counter = CountingHeapq()
        monkeypatch.setattr(emd, "heapq", counter)
        steps = int(np.count_nonzero(state.in_backbone))
        e_phase(state, h=0.05)
        assert 0 < counter.pushes < steps


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
