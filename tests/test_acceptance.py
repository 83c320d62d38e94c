"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` to see one line per criterion.
The shared random-graph suites are built once per session.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from usparse import evaluation
from usparse.backbone import build_backbone, target_edge_count
from usparse.benchmarks import (
    WeightedGraph,
    contiguous_forest_rounds,
    ni_sparsify,
    ss_core,
    ss_sparsify,
    to_ss_weights,
    weighted_distances,
    _solve_stretch_parameter,
)
from usparse.cli import main
from usparse.emd import emd_run
from usparse.evaluation import (
    QueryDistribution,
    QueryKind,
    earth_movers_distance,
    quality,
    sample_masks,
    variance_protocol,
)
from usparse.gdb import cut_rule_coefficients, cut_step, degree_step, gdb_run
from usparse.graph import (
    UncertainGraph,
    derive_rng,
    exact_query_probability,
    generate_synthetic,
    load_graph,
)
from usparse.lp import lp_sparsify


def report(number, description, elapsed):
    print(f"criterion {number:02d} PASS ({elapsed:.2f}s): {description}")


@pytest.fixture(scope="module")
def suite_n100():
    """20 seeded graphs with n=100, |E|=1000 and alpha=0.3 spanning backbones."""
    graphs = []
    for seed in range(20):
        g = generate_synthetic(100, 0.202, seed=seed)
        assert g.m == 1000
        graphs.append((g, build_backbone(g, 0.3, seed=seed)))
    return graphs


@pytest.fixture(scope="module")
def gdb_h_runs(suite_n100):
    """gdb outputs for h in {0, 0.05, 1} over the shared suite."""
    runs = {}
    for h in (0.0, 0.05, 1.0):
        runs[h] = [gdb_run(g, bb, h=h) for g, bb in suite_n100]
    return runs


@pytest.fixture(scope="module")
def emd_runs(suite_n100):
    return [emd_run(g, bb, h=0.05) for g, bb in suite_n100]


def test_criterion_01_update_rule_arithmetic():
    started = time.perf_counter()
    updated = 0.2 + degree_step(0.6, 0.0, 1.0, 1.0)
    assert abs(updated - 0.5) <= 1e-12
    report(1, "single-edge degree update 0.2 -> 0.5", time.perf_counter() - started)


def test_criterion_02_cut_rule_specializes_to_degree_rule():
    started = time.perf_counter()
    rng = derive_rng(1234)
    for _ in range(10_000):
        du, dv, gap = (float(x) for x in rng.normal(size=3))
        n = int(rng.integers(4, 200))
        step = cut_step(du, dv, gap, *cut_rule_coefficients(n, 1))
        assert abs(step - degree_step(du, dv, 1.0, 1.0)) <= 1e-12
    report(2, "cut rule at k=1 equals the degree rule on 10^4 inputs", time.perf_counter() - started)


def test_criterion_03_gdb_monotone_objective(gdb_h_runs):
    started = time.perf_counter()
    for h, runs in gdb_h_runs.items():
        for _, info in runs:
            hist = info["objective_history"]
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])), f"h={h}"
    report(3, "objective non-increasing across every sweep (60 runs)", time.perf_counter() - started)


def test_criterion_04_lp_dominance():
    started = time.perf_counter()
    within_factor = 0
    for seed in range(20):
        g = generate_synthetic(50, 0.2, seed=seed)
        bb = build_backbone(g, 0.3, seed=seed)
        optimal = quality(g, lp_sparsify(g, bb)[0])["degree_mae"]
        out, _ = gdb_run(g, bb, h=1.0, max_sweeps=100)
        descended = float(np.mean(np.abs(g.degree_vector() - out.degree_vector())))
        assert descended >= optimal - 1e-7
        if descended <= 2.0 * optimal:
            within_factor += 1
    assert within_factor >= 18
    report(4, f"descent never beats the LP optimum; within 2x in {within_factor}/20", time.perf_counter() - started)


def test_criterion_05_emd_improves_on_gdb(suite_n100, gdb_h_runs, emd_runs):
    started = time.perf_counter()
    wins = 0
    for (g, _), (gdb_out, _), (emd_out, _) in zip(suite_n100, gdb_h_runs[0.05], emd_runs):
        d_gdb = float(np.sum((g.degree_vector() - gdb_out.degree_vector()) ** 2))
        d_emd = float(np.sum((g.degree_vector() - emd_out.degree_vector()) ** 2))
        if d_emd <= d_gdb + 1e-12:
            wins += 1
    assert wins >= 12
    report(5, f"swap phase no worse than plain descent in {wins}/20 paired runs", time.perf_counter() - started)


def test_criterion_06_entropy_reduction(suite_n100, gdb_h_runs, emd_runs):
    started = time.perf_counter()
    for (g, _), (out, _) in zip(suite_n100, gdb_h_runs[0.05]):
        assert quality(g, out)["relative_entropy"] < 1.0
    for (g, _), (out, _) in zip(suite_n100, emd_runs):
        assert quality(g, out)["relative_entropy"] < 1.0
    report(6, "relative entropy below 1 in every h=0.05 run", time.perf_counter() - started)


def test_criterion_07_monte_carlo_matches_exact_oracle(monkeypatch):
    started = time.perf_counter()
    n_samples = 100_000
    # Both estimates read the evaluation engine's worlds: reliability is the
    # mean of mc_distributions, and connectivity is counted on the very mask
    # rows it draws, row i being world i of sample_masks(g, seed, (), n_samples).
    drawn = []

    def recording_sample_masks(*args, **kwargs):
        masks = sample_masks(*args, **kwargs)
        drawn.append(masks)
        return masks

    monkeypatch.setattr(evaluation, "sample_masks", recording_sample_masks)
    for seed in range(10):
        rng = derive_rng(seed, 777)
        n = int(rng.integers(5, 8))
        pairs = list(combinations(range(n), 2))
        m = min(10, len(pairs))
        idx = rng.choice(len(pairs), size=m, replace=False)
        g = UncertainGraph(
            n, [(pairs[i][0], pairs[i][1], 0.15 + 0.8 * float(rng.random())) for i in idx]
        )
        pair = (0, g.n - 1)
        drawn.clear()
        reliability = evaluation.mc_distributions(
            g, QueryKind.RELIABILITY, [pair], n_samples, seed=seed + 31
        )
        masks = np.concatenate(drawn)
        assert masks.shape == (n_samples, g.m)
        for i in (0, n_samples - 1):
            assert np.array_equal(masks[i], derive_rng(seed + 31, i).random(g.m) < g.probabilities)
        labels = evaluation.component_labels(g, masks)
        connected = np.count_nonzero((labels == labels[:, :1]).all(axis=1))
        for predicate, freq in (
            (lambda w: w.reachable(*pair), reliability[pair].mean()),
            (lambda w: w.is_connected(), connected / n_samples),
        ):
            exact = exact_query_probability(g, predicate)
            sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / n_samples)
            assert abs(freq - exact) <= 5.0 * sigma + 1e-12
    report(7, "evaluation-sampler reliability and connectivity within 5 sigma of exact",
           time.perf_counter() - started)


def test_criterion_08_cardinality_contract_all_methods():
    started = time.perf_counter()
    graphs = [
        generate_synthetic(25, 0.82, seed=1),
        generate_synthetic(30, 0.70, seed=2),
        generate_synthetic(20, 1.00, seed=3),
    ]
    for g in graphs:
        assert (g.n - 1) / g.m <= 0.1
        for alpha in (0.1, 0.3, 0.6):
            target = target_edge_count(g.m, alpha)
            bb = build_backbone(g, alpha, seed=7)
            produced = {
                "gdb": gdb_run(g, bb, h=0.05)[0],
                "emd": emd_run(g, bb, h=0.05)[0],
                "lp": lp_sparsify(g, bb)[0],
                "ni": ni_sparsify(g, alpha, seed=7)[0],
                "ss": ss_sparsify(g, alpha, seed=7)[0],
            }
            for method, out in produced.items():
                assert out.m == target, f"{method} at alpha={alpha}: {out.m} != {target}"
    report(8, "all five methods emit exactly round(alpha*|E|) edges", time.perf_counter() - started)


def test_criterion_09_spanner_stretch():
    started = time.perf_counter()
    g = generate_synthetic(200, 0.15, seed=42)
    wg = to_ss_weights(g)
    t = _solve_stretch_parameter(g.n, 0.3 * g.m)
    spanner = ss_core(wg, t, seed=9)
    weight = {(u, v): w for u, v, w in wg.edges}
    spanner_edges = [(u, v, weight[(u, v)]) for u, v in spanner]
    rng = derive_rng(4242)
    checked = 0
    while checked < 100:
        a, b = (int(x) for x in rng.integers(0, g.n, size=2))
        if a == b:
            continue
        original = weighted_distances(g.n, wg.edges, a)[b]
        sparse = weighted_distances(g.n, spanner_edges, a)[b]
        if math.isinf(original):
            assert math.isinf(sparse)
        else:
            assert sparse <= (2 * t - 1) * original
        checked += 1
    report(9, f"(2t-1) stretch holds on 100 pairs at t={t}", time.perf_counter() - started)


def test_criterion_10_forest_trace_and_inverse_transform():
    started = time.perf_counter()
    wg = WeightedGraph(3, ((0, 1, 1), (0, 2, 2), (1, 2, 1)))
    death, forests = contiguous_forest_rounds(wg)
    assert forests == [([(0, 1), (0, 2)], 1), ([(0, 2), (1, 2)], 1)]
    assert death == {(0, 1): 1, (0, 2): 2, (1, 2): 2}
    p_min = 0.2
    assert min(3 * p_min, 1.0) == pytest.approx(0.6, abs=1e-15)
    assert min(6 * p_min, 1.0) == 1.0
    report(10, "3-edge forest trace and inverse weight transform", time.perf_counter() - started)


def _transport_oracle(xs, ys):
    xs, ys = sorted(xs), sorted(ys)
    mi, mj = Fraction(1, len(xs)), Fraction(1, len(ys))
    ri, rj, i, j = mi, mj, 0, 0
    cost = Fraction(0)
    while i < len(xs) and j < len(ys):
        move = min(ri, rj)
        cost += move * Fraction(abs(xs[i] - ys[j]))
        ri -= move
        rj -= move
        if ri == 0:
            i, ri = i + 1, mi
        if rj == 0:
            j, rj = j + 1, mj
    return float(cost)


def test_criterion_11_distribution_distance_metric_properties():
    started = time.perf_counter()

    def dist(values):
        arr = np.sort(np.asarray(values, dtype=float))
        return QueryDistribution(QueryKind.PAGERANK, 0, arr, len(arr))

    corpus = [
        [0.0],
        [1.0],
        [0.0, 1.0],
        [0.5],
        [0.25, 0.5, 0.75],
        [0.1, 0.1, 0.9],
        [0.2, 0.8, 0.8],
        [-1.0, 0.0, 1.0, 2.0],
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [0.3, 0.3, 0.3],
    ]
    for xs in corpus:
        assert earth_movers_distance(dist(xs), dist(xs)) == 0.0
    for xs in corpus:
        for ys in corpus:
            d_xy = earth_movers_distance(dist(xs), dist(ys))
            d_yx = earth_movers_distance(dist(ys), dist(xs))
            assert abs(d_xy - d_yx) <= 1e-12
            assert abs(d_xy - _transport_oracle(xs, ys)) <= 1e-12
    report(11, "distance is zero on identity, symmetric, and matches transport", time.perf_counter() - started)


def test_criterion_12_variance_protocol_matches_binomial_theory():
    started = time.perf_counter()
    g = UncertainGraph(2, [(0, 1, 0.5)])
    unit = (0, 1)
    theory = 0.25 / 100
    for repetition in range(5):
        estimate = variance_protocol(
            g, QueryKind.RELIABILITY, [unit], n_samples=100, n_runs=100, seed=1000 + repetition
        )[unit]
        assert theory / 3.0 <= estimate <= 3.0 * theory
    report(12, "100-run variance estimate within 3x of 0.25/N five times", time.perf_counter() - started)


def test_criterion_13_cli_determinism(tmp_path, monkeypatch):
    started = time.perf_counter()

    def one_round(tag):
        # identical relative paths per round, so every artifact byte-compares
        round_dir = tmp_path / tag
        round_dir.mkdir()
        monkeypatch.chdir(round_dir)
        assert main(["generate", "-n", "24", "-d", "0.5", "--seed", "11", "-o", "g.el"]) == 0
        assert main([
            "sparsify", "-i", "g.el", "-o", "s.el", "-m", "emd", "-a", "0.4", "--seed", "5",
        ]) == 0
        assert main([
            "eval", "-i", "g.el", "-s", "s.el", "-q", "rl",
            "--samples", "30", "--runs", "3", "--pairs", "10", "--seed", "2",
            "-o", "report",
        ]) == 0
        assert main([
            "compare", "-i", "g.el", "--methods", "gdb,ni", "--alphas", "0.4",
            "--queries", "rl", "--samples", "15", "--runs", "2", "--pairs", "6",
            "--cut-samples", "10", "--seed", "3", "-o", "sweep.csv",
        ]) == 0
        return {
            name: (round_dir / name).read_bytes()
            for name in ("g.el", "s.el", "s.el.manifest.json", "report.csv", "report.json", "sweep.csv")
        }

    assert one_round("a") == one_round("b")
    report(13, "repeated CLI runs byte-identical", time.perf_counter() - started)
