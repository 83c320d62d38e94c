"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import json

import pytest

from usparse.backbone import target_edge_count
from usparse.cli import main
from usparse.config import RunConfig
from usparse.graph import load_graph


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.el"
    assert main(["generate", "-n", "24", "-d", "0.45", "--seed", "5", "-o", str(path)]) == 0
    return path


def run_sparsify(graph_file, tmp_path, method, alpha="0.4", extra=(), name="out.el"):
    out = tmp_path / name
    code = main(
        ["sparsify", "-i", str(graph_file), "-o", str(out), "-m", method, "-a", alpha, "--seed", "3", *extra]
    )
    return code, out


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        for p in (a, b):
            assert main(["generate", "-n", "15", "-d", "0.3", "--seed", "2", "-o", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_distributions(self, tmp_path):
        out = tmp_path / "c.el"
        assert main(["generate", "-n", "12", "-d", "0.4", "--dist", "const:0.5", "-o", str(out)]) == 0
        g = load_graph(out)
        assert all(p == 0.5 for _, _, p in g.edges)

    def test_bad_distribution(self, tmp_path):
        assert main(["generate", "-n", "10", "-d", "0.4", "--dist", "zeta:2", "-o", str(tmp_path / "x.el")]) == 1


class TestSparsify:
    @pytest.mark.parametrize("method", ["gdb", "emd", "lp", "ni", "ss"])
    def test_every_method_writes_exact_size(self, graph_file, tmp_path, method):
        code, out = run_sparsify(graph_file, tmp_path, method, name=f"{method}.el")
        assert code == 0
        g = load_graph(graph_file)
        sparsified = load_graph(out, allow_zero=True)
        assert sparsified.m == target_edge_count(g.m, 0.4)
        manifest = json.loads((tmp_path / f"{method}.el.manifest.json").read_text())
        assert manifest["edges_sparsified"] == sparsified.m
        assert manifest["config"]["method"] == method

    def test_repeat_run_byte_identical(self, graph_file, tmp_path):
        _, out1 = run_sparsify(graph_file, tmp_path, "gdb", name="r1.el")
        _, out2 = run_sparsify(graph_file, tmp_path, "gdb", name="r2.el")
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "r1.el.manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2.el.manifest.json").read_text())
        m1["config"]["output"] = m2["config"]["output"] = ""
        assert m1 == m2

    def test_from_manifest_reproduces_output(self, graph_file, tmp_path):
        _, out = run_sparsify(graph_file, tmp_path, "emd", name="m1.el")
        first = out.read_bytes()
        manifest = tmp_path / "m1.el.manifest.json"
        assert main(["sparsify", "-i", "ignored", "-o", "ignored", "--from-manifest", str(manifest)]) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("damage", ["alpha_as_string", "no_config", "no_method"])
    def test_bad_manifest_is_domain_error(self, graph_file, tmp_path, damage):
        _, out = run_sparsify(graph_file, tmp_path, "gdb", name="m.el")
        manifest = tmp_path / "m.el.manifest.json"
        payload = json.loads(manifest.read_text())
        if damage == "alpha_as_string":
            payload["config"]["alpha"] = "0.3"
        elif damage == "no_config":
            del payload["config"]
        else:
            del payload["config"]["method"]
        manifest.write_text(json.dumps(payload))
        assert main(["sparsify", "-i", "x", "-o", "y", "--from-manifest", str(manifest)]) == 1

    def test_emd_rejects_cut_rule(self, graph_file, tmp_path):
        code, _ = run_sparsify(graph_file, tmp_path, "emd", extra=["-k", "2"])
        assert code == 1

    @pytest.mark.parametrize("method, extra", [
        ("gdb", ["-k", "all", "--mode", "rel"]),
        ("gdb", ["-k", "2", "--mode", "rel"]),
        ("lp", ["--mode", "rel"]),
    ])
    def test_ignored_mode_is_refused(self, graph_file, tmp_path, method, extra):
        code, out = run_sparsify(graph_file, tmp_path, method, extra=extra)
        assert code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.el"]

    def test_hand_edited_mode_refused_on_replay(self, graph_file, tmp_path):
        _, out = run_sparsify(graph_file, tmp_path, "lp", name="lp.el")
        manifest = tmp_path / "lp.el.manifest.json"
        payload = json.loads(manifest.read_text())
        payload["config"]["mode"] = "rel"
        manifest.write_text(json.dumps(payload))
        out.unlink()
        assert main(["sparsify", "-i", "x", "-o", "y", "--from-manifest", str(manifest)]) == 1
        assert not out.exists()

    def test_theta_only_for_ni(self, graph_file, tmp_path):
        code, _ = run_sparsify(graph_file, tmp_path, "gdb", extra=["--theta", "1.2"])
        assert code == 1
        code, _ = run_sparsify(graph_file, tmp_path, "ni", extra=["--theta", "1.2"])
        assert code == 0

    def test_alpha_below_floor_explains(self, graph_file, tmp_path, capsys):
        code, _ = run_sparsify(graph_file, tmp_path, "gdb", alpha="0.01")
        assert code == 1
        assert "connectivity floor" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["sparsify", "-i", str(tmp_path / "nope.el"), "-o", str(tmp_path / "o.el"),
                     "-m", "gdb", "-a", "0.4"])
        assert code == 2

    def test_tau_zero_runs_to_a_standstill(self, graph_file, tmp_path):
        out = tmp_path / "t.el"
        argv = ["sparsify", "-i", str(graph_file), "-o", str(out), "-m", "emd", "-a", "0.3",
                "--tau", "0", "--seed", "7"]
        assert main(argv) == 0
        assert load_graph(out, allow_zero=True).m == target_edge_count(load_graph(graph_file).m, 0.3)

    def test_negative_tau_refused(self, graph_file, tmp_path, capsys):
        out = tmp_path / "t.el"
        argv = ["sparsify", "-i", str(graph_file), "-o", str(out), "-m", "emd", "-a", "0.3",
                "--tau", "-1", "--seed", "7"]
        assert main(argv) == 1
        assert "tau must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_cut_rule_and_cut_all(self, graph_file, tmp_path):
        for rule in ("2", "all"):
            code, out = run_sparsify(graph_file, tmp_path, "gdb", extra=["-k", rule], name=f"k{rule}.el")
            assert code == 0
            assert load_graph(out, allow_zero=True).m > 0


class TestEval:
    def test_eval_writes_csv_and_json(self, graph_file, tmp_path):
        _, out = run_sparsify(graph_file, tmp_path, "gdb")
        prefix = tmp_path / "report"
        code = main([
            "eval", "-i", str(graph_file), "-s", str(out), "-q", "rl",
            "--samples", "40", "--runs", "4", "--pairs", "12", "--seed", "9",
            "-o", str(prefix),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(f"{prefix}.csv")))
        assert rows and set(rows[0]) == {"unit", "mean_original", "mean_sparsified", "emd"}
        summary = json.loads((tmp_path / "report.json").read_text())
        assert summary["query"] == "rl"
        assert summary["units_evaluated"] + summary["units_skipped"] == 12
        assert summary["relative_variance"] is None or summary["relative_variance"] >= 0

    def test_each_world_sampled_once(self, graph_file, tmp_path, monkeypatch):
        # the report's distributions give the means: S worlds per graph, plus
        # S per graph for each of the R variance runs
        from usparse import cli, evaluation

        _, out = run_sparsify(graph_file, tmp_path, "gdb")
        g, sparsified = load_graph(graph_file), load_graph(out, allow_zero=True)
        calls = []
        original = evaluation.sample_world
        monkeypatch.setattr(evaluation, "sample_world", lambda *a: calls.append(1) or original(*a))
        n_samples, n_runs = 7, 3
        cli.run_eval(g, sparsified, evaluation.QueryKind.RELIABILITY, n_samples, n_runs, 5, 2)
        assert len(calls) == 2 * n_samples * (1 + n_runs)

    # sha256 of each eval output, recorded at commit 32a0c1a (the per-world
    # evaluation path) for `generate -n 40 -d 0.12 --seed 3`, `sparsify -m gdb
    # -a 0.5 --seed 7` and the eval flags below.
    PINNED_EVAL_SHA256 = {
        "pr": ("f0a28b58af5e23d73dd7e715a40a0089091be23aed6c8e7260058390fb01345b",
               "a7aefc40096c0e5a96ebe3b7916a80c6426928bb835b26ec79223eed008d9e4f"),
        "sp": ("c840b302453142a666e801742eabe770f3227e72e464f1a32e8508c5a4d02fdd",
               "546cf03744d5e05555f6e58d1c07f89a99b4f41dfee388e28b03055f5d9658ad"),
        "rl": ("4ff1cd50a1a8e05e449bf57f0c482e934fd96011055fb5b1dd3f7f290208afa4",
               "e98b489c691f256bd415c1b4ec7cb2d2c44deca450e53bae0a9d4390bb0b3859"),
        "cc": ("f90f59af94ba8719af0fb406f9ca4cf00ad202db82ef1f9973f94d33572ad299",
               "36243c04916015a020c71d6f189dd811db68d67eb163297364aacce9d6cacf43"),
    }

    @pytest.mark.parametrize("query", ["pr", "sp", "rl", "cc"])
    def test_outputs_keep_pinned_bytes(self, tmp_path, monkeypatch, query):
        # relative names, because the JSON records the input file names
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "-n", "40", "-d", "0.12", "--seed", "3", "-o", "g.el"]) == 0
        assert main(["sparsify", "-i", "g.el", "-o", "gdb.el", "-m", "gdb", "-a", "0.5",
                     "--seed", "7"]) == 0
        assert main(["eval", "-i", "g.el", "-s", "gdb.el", "-q", query, "--samples", "30",
                     "--runs", "3", "--pairs", "120", "--seed", "5", "-o", "report"]) == 0
        digests = tuple(hashlib.sha256((tmp_path / f"report.{ext}").read_bytes()).hexdigest()
                        for ext in ("json", "csv"))
        assert digests == self.PINNED_EVAL_SHA256[query]

    def test_vertex_count_mismatch(self, graph_file, tmp_path):
        other = tmp_path / "other.el"
        assert main(["generate", "-n", "30", "-d", "0.3", "-o", str(other)]) == 0
        code = main(["eval", "-i", str(graph_file), "-s", str(other), "-q", "pr",
                     "--samples", "5", "--no-variance", "-o", str(tmp_path / "r")])
        assert code == 1

    def test_missing_file_exit_2(self, graph_file, tmp_path):
        code = main(["eval", "-i", str(graph_file), "-s", str(tmp_path / "absent.el"),
                     "-q", "pr", "-o", str(tmp_path / "r")])
        assert code == 2

    def test_single_sample_warns_but_runs(self, graph_file, tmp_path, capsys):
        _, out = run_sparsify(graph_file, tmp_path, "ss")
        code = main(["eval", "-i", str(graph_file), "-s", str(out), "-q", "cc",
                     "--samples", "1", "--no-variance", "-o", str(tmp_path / "one")])
        assert code == 0
        assert "warning" in capsys.readouterr().err


class TestCompare:
    def test_sweep_row_count_and_round_trip(self, graph_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "compare", "-i", str(graph_file),
            "--methods", "gdb,ss", "--alphas", "0.3,0.5", "--queries", "rl,cc",
            "--samples", "25", "--runs", "3", "--pairs", "8", "--cut-samples", "20",
            "--seed", "2", "-o", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2 * 2 * 2
        assert all(r["error"] == "" for r in rows)
        assert {r["method"] for r in rows} == {"gdb", "ss"}
        # cells stay in memory: the sweep writes nothing but its CSV
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.el", "sweep.csv"]

    def test_programming_error_escapes(self, graph_file, tmp_path, monkeypatch):
        import usparse.dispatch

        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(usparse.dispatch, "gdb_run", broken)
        with pytest.raises(TypeError, match="injected"):
            main(["compare", "-i", str(graph_file), "--methods", "gdb", "--alphas", "0.4",
                  "--queries", "rl", "--samples", "5", "--runs", "2", "--pairs", "4",
                  "--cut-samples", "5", "-o", str(tmp_path / "sweep.csv")])

    def test_failed_cell_recorded_sweep_continues(self, graph_file, tmp_path):
        out = tmp_path / "sweep.csv"
        # alpha below the connectivity floor fails for gdb but ss still runs
        code = main([
            "compare", "-i", str(graph_file),
            "--methods", "gdb", "--alphas", "0.01,0.4", "--queries", "rl",
            "--samples", "10", "--runs", "2", "--pairs", "5", "--cut-samples", "5",
            "-o", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2
        failed = [r for r in rows if r["alpha"] == "0.01"]
        assert failed and failed[0]["error"] != ""

    def test_relative_mode_fails_only_absolute_methods(self, graph_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "compare", "-i", str(graph_file),
            "--methods", "gdb,lp", "--alphas", "0.4", "--queries", "rl,cc", "--mode", "rel",
            "--samples", "10", "--runs", "2", "--pairs", "5", "--cut-samples", "5",
            "-o", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert [(r["method"], r["error"] != "") for r in rows] == [
            ("gdb", False), ("gdb", False), ("lp", True), ("lp", True)
        ]
        assert "discrepancy mode" in rows[2]["error"]


class TestOracle:
    def test_connected_probability(self, tmp_path, capsys):
        path = tmp_path / "tri.el"
        path.write_text("0 1 0.5\n0 2 0.5\n1 2 0.5\n")
        assert main(["oracle", "-i", str(path), "-q", "connected"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probability"] == pytest.approx(0.5, abs=1e-12)

    def test_reachable_needs_endpoints(self, tmp_path):
        path = tmp_path / "e.el"
        path.write_text("0 1 0.3\n")
        assert main(["oracle", "-i", str(path), "-q", "reachable"]) == 1
        assert main(["oracle", "-i", str(path), "-q", "reachable", "--source", "0", "--target", "1"]) == 0

    @pytest.mark.parametrize("source, target", [("-1", "4"), ("0", "9")])
    def test_out_of_range_endpoints_rejected(self, tmp_path, capsys, source, target):
        path = tmp_path / "path.el"
        path.write_text("# n=5\n0 1 0.9\n1 2 0.9\n2 3 0.9\n3 4 0.9\n")
        argv = ["oracle", "-i", str(path), "-q", "reachable", "--source", source, "--target", target]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "must lie in [0, 5)" in captured.err

    def test_too_many_edges_rejected(self, tmp_path):
        path = tmp_path / "big.el"
        assert main(["generate", "-n", "10", "-d", "0.6", "-o", str(path)]) == 0
        assert main(["oracle", "-i", str(path), "-q", "connected"]) == 1


class TestRunConfig:
    def test_round_trip(self):
        config = RunConfig(input="a", output="b", method="gdb", alpha=0.3, rule="2")
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"input": "a", "output": "b", "method": "gdb", "alpha": 0.3, "bogus": 1})

    def test_validation_matrix(self):
        ok = RunConfig(input="a", output="b", method="gdb", alpha=0.3)
        ok.validate()
        bad = [
            RunConfig(input="a", output="b", method="zz", alpha=0.3),
            RunConfig(input="a", output="b", method="gdb", alpha=1.5),
            RunConfig(input="a", output="b", method="emd", alpha=0.3, rule="3"),
            RunConfig(input="a", output="b", method="lp", alpha=0.3, rule="all"),
            RunConfig(input="a", output="b", method="ss", alpha=0.3, theta=1.2),
            RunConfig(input="a", output="b", method="gdb", alpha=0.3, h=2.0),
            RunConfig(input="a", output="b", method="gdb", alpha=0.3, seed=-1),
            RunConfig(input="a", output="b", method="ni", alpha=0.3, mode="rel"),
            RunConfig(input="a", output="b", method="gdb", alpha=0.3, rule="all", mode="rel"),
            RunConfig(input="a", output="b", method="lp", alpha=0.3, mode="rel"),
        ]
        for config in bad:
            with pytest.raises(ValueError):
                config.validate()


class TestCompositionEquivalence:
    def test_single_cell_sweep_matches_sparsify_plus_eval(self, graph_file, tmp_path):
        # one compare cell must reproduce the standalone sparsify + eval pipeline
        sweep = tmp_path / "cell.csv"
        assert main([
            "compare", "-i", str(graph_file), "--methods", "gdb", "--alphas", "0.4",
            "--queries", "rl", "--samples", "20", "--runs", "2", "--pairs", "8",
            "--cut-samples", "10", "--seed", "6", "-o", str(sweep),
        ]) == 0
        row = list(csv.DictReader(open(sweep)))[0]

        out = tmp_path / "solo.el"
        assert main(["sparsify", "-i", str(graph_file), "-o", str(out),
                     "-m", "gdb", "-a", "0.4", "--seed", "6"]) == 0
        prefix = tmp_path / "solo"
        assert main(["eval", "-i", str(graph_file), "-s", str(out), "-q", "rl",
                     "--samples", "20", "--runs", "2", "--pairs", "8", "--seed", "6",
                     "-o", str(prefix)]) == 0
        summary = json.loads((tmp_path / "solo.json").read_text())
        manifest = json.loads((tmp_path / "solo.el.manifest.json").read_text())
        assert float(row["mean_emd"]) == pytest.approx(summary["emd_mean"], abs=1e-12)
        assert float(row["mae_degree"]) == pytest.approx(manifest["degree_mae"], abs=1e-12)
