"""Tests of the benchmark itself, on its smoke size.

Each run works in a copy of the benchmark and the package sources under
tmp_path, which is also how a fresh checkout runs it.  Run with
`python3 -m pytest -q perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import spans  # noqa: E402
from usparse import cli  # noqa: E402
from usparse.graph import UncertainGraph, save_graph  # noqa: E402

WORKLOADS = ("paper", "n1000", "n3000_rules")

# Every metric the benchmark documents, per workload, written out by hand.
E2E = {
    "paper": [
        "setup_s", "pipeline_s", "sparsify_s",
        "sparsify_s.gdb", "sparsify_s.emd", "sparsify_s.lp", "sparsify_s.ni", "sparsify_s.ss",
        "eval_s.pr", "eval_s.sp", "eval_s.rl", "eval_s.cc",
        "degree_mae.gdb", "degree_mae.emd", "relative_entropy.gdb", "relative_entropy.emd",
        "emd_mean", "relative_variance",
    ],
    "n1000": [
        "setup_s", "pipeline_s", "sparsify_s",
        "sparsify_s.gdb", "sparsify_s.emd", "sparsify_s.ss", "eval_s.rl", "eval_s.pr",
        "degree_mae.gdb", "degree_mae.emd", "relative_entropy.gdb", "relative_entropy.emd",
        "emd_mean", "relative_variance",
    ],
    "n3000_rules": ["setup_s", "pipeline_s", "sparsify_s", "sparsify_s.gdb", "sparsify_s.emd"],
}
_GRAPH = ["graph.load_s", "graph.save_s", "graph.generate_s"]
_SPARSIFY = [
    "backbone.build_s", "backbone.alpha_prime_s", "backbone.forests_built",
    "gdb.descend_s", "gdb.sweep_s", "gdb.sweeps", "gdb.resync_s", "gdb.objective_s",
    "emd.e_phase_s", "emd.swaps", "emd.iterations", "emd.self_s",
    "cli.sparsify_self_s", "trace.overhead_ratio",
]
_EVAL = [
    "graph.sample_world_s", "graph.worlds_sampled",
    "evaluation.emd_report_s", "evaluation.point_estimates_s", "evaluation.variance_s",
    "evaluation.world_reuse_ratio", "evaluation.units_requested", "evaluation.units_distinct",
    "cli.eval_self_s",
]
LAYERS = {
    "paper": _GRAPH + _SPARSIFY + _EVAL + [
        "graph.component_labels_s", "graph.hop_distances_s", "graph.hop_distances_calls",
        "evaluation.pagerank_s", "evaluation.cc_s",
        "lp.simplex_s", "lp.iterations", "lp.self_s",
        "benchmarks.ni_forest_s", "benchmarks.ni_rounds", "benchmarks.ni_useful_round_ratio",
        "benchmarks.ni_calibration_steps",
        "benchmarks.ss_core_s", "benchmarks.ss_core_calls", "benchmarks.ss_trim_ratio",
    ],
    "n1000": _GRAPH + _SPARSIFY + _EVAL + [
        "graph.component_labels_s", "evaluation.pagerank_s",
        "benchmarks.ss_core_s", "benchmarks.ss_core_calls", "benchmarks.ss_trim_ratio",
    ],
    "n3000_rules": _GRAPH + _SPARSIFY,
}
UNIT_BY_NAME = {"degree_mae": "degree", "emd_mean": "emd"}


def expected_unit(name: str) -> str:
    stem = name.split(".")[0]
    if stem in UNIT_BY_NAME:
        return UNIT_BY_NAME[stem]
    if name.endswith("_s") or stem in ("sparsify_s", "eval_s"):
        return "s"
    if name.endswith("_ratio") or stem in ("relative_entropy", "relative_variance"):
        return "ratio"
    return "count"


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def checkout(tmp_path: Path, with_sources: bool = True) -> Path:
    """A copy holding what the benchmark needs, as a fresh checkout would."""
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_sources:
        shutil.copytree(ROOT / "src" / "usparse", root / "src" / "usparse",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke", "--seconds", "0.1", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def last_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_with_its_unit(tmp_path, trace):
    root = checkout(tmp_path)
    proc = run(root, "--workload", "all", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = last_line(proc)
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    gated = declared("per_layer" if trace == "1" else "end_to_end")
    assert set(line["metrics"]) == {f"{w}.{name}" for w in WORKLOADS for name in gated}
    expected = LAYERS if trace == "1" else E2E
    for w in WORKLOADS:
        report = json.loads((root / "perfbench" / "results" / f"{w}-smoke-seed1-trace{trace}.json")
                            .read_text())
        assert sorted(report["metrics"]) == sorted(expected[w])
        for name, metric in report["metrics"].items():
            assert metric["unit"] == expected_unit(name), name
            assert isinstance(metric["value"], (int, float)), name
        for name, unit in gated.items():
            assert line["metrics"][f"{w}.{name}"]["unit"] == unit
        assert report["hashes"] and report["machine"]["nproc"] >= 1


def test_benchmark_json_names_the_metrics_every_workload_reports():
    for kind, expected in (("end_to_end", E2E), ("per_layer", LAYERS)):
        common = set.intersection(*(set(names) for names in expected.values()))
        assert set(declared(kind)) == common
        for name, unit in declared(kind).items():
            assert unit == expected_unit(name)


def test_single_workload_line_and_repeat_hashes(tmp_path):
    root = checkout(tmp_path)
    first = run(root, "--workload", "n3000_rules", "--seed", "4")
    again = run(root, "--workload", "n3000_rules", "--seed", "4")
    for proc in (first, again):
        assert proc.returncode == 0, proc.stderr
        assert set(last_line(proc)["metrics"]) == set(declared("end_to_end"))


def test_refuses_to_run_without_sources(tmp_path):
    root = checkout(tmp_path, with_sources=False)
    proc = run(root, "--workload", "paper")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_broken_size_contract_fails_the_run(tmp_path):
    root = checkout(tmp_path)
    backbone = root / "src" / "usparse" / "backbone.py"
    text = backbone.read_text()
    assert "return int(round(alpha * m))" in text
    backbone.write_text(text.replace("return int(round(alpha * m))",
                                     "return int(round(alpha * m)) - 1"))
    proc = run(root, "--workload", "n1000")
    assert proc.returncode == 1
    line = last_line(proc)
    assert line["correct"] is False and 0 < line["failed"] <= line["attempted"]


def test_hash_drift_on_the_same_sources_fails(tmp_path):
    root = checkout(tmp_path)
    assert run(root, "--workload", "n3000_rules").returncode == 0
    report_path = root / "perfbench" / "results" / "n3000_rules-smoke-seed1-trace0.json"
    report = json.loads(report_path.read_text())
    report["hashes"]["gdb.k2.el"] = "0" * 64
    report_path.write_text(json.dumps(report))
    proc = run(root, "--workload", "n3000_rules")
    assert proc.returncode == 1 and last_line(proc)["failed"] == 1


def test_sparsify_check_catches_foreign_edges_and_a_wrong_manifest(tmp_path):
    original = UncertainGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5)])
    out = tmp_path / "out.el"
    save_graph(UncertainGraph(4, [(0, 1, 0.5), (0, 2, 0.5)]), out)
    (tmp_path / "out.el.manifest.json").write_text(json.dumps({"degree_mae": 0.125}))
    problems = checks.check_sparsify(original, str(out), 0.5)
    assert any("edges the input does not" in p for p in problems)
    assert any("degree_mae" in p for p in problems)


def test_tracer_wraps_every_import_site_and_restores_it():
    original = cli.load_graph
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.load_graph is not original
        assert sys.modules["usparse.graph"].load_graph is not original
    assert cli.load_graph is original
    assert sys.modules["usparse.graph"].load_graph is original
