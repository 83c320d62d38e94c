"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import json

import pytest

import usparse.graph
from usparse import evaluation
from usparse.backbone import target_edge_count
from usparse.cli import main
from usparse.config import RunConfig
from usparse.graph import UncertainGraph, load_graph, save_graph


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.el"
    assert main(["generate", "-n", "24", "-d", "0.45", "--seed", "5", "-o", str(path)]) == 0
    return path


def assert_seed_refused_at_parse_time(argv, capsys, out):
    """main(argv) stops in argparse: exit 2, one error line naming --seed, out unwritten."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1 and "--seed" in errors[0]
    assert not out.exists()


# a negative seed and the smallest one above 64 bits
BAD_SEEDS = ["-1", str(2**64)]


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

    # sha256 of `generate --seed 1` at each (vertices, density), recorded at
    # commit 4223ed8; 40 at 0.8 takes the dense branch, the rest the sparse one.
    PINNED_GENERATE_SHA256 = {
        (100, 0.15): "eeab73913ec6e8e8df8abd25b7342871ad33cd286f8af8f8716c9f819b2f0a66",
        (1000, 0.05): "187739647d8e4d7ce5642e95a22fbbeb5fb23d9045b5b03408d3a76b33f730bf",
        (3000, 0.01): "66757afa2e1a84c0ee0a182e3e78f16247d2df34094926ef1b906b6f42dd95cf",
        (40, 0.8): "68072b875e6f2d7d9ce3104e6950412303f6f220a6d8ad7771f6070ee1633d73",
    }

    @pytest.mark.parametrize("n, density", sorted(PINNED_GENERATE_SHA256))
    def test_generated_bytes_pinned(self, tmp_path, n, density):
        out = tmp_path / "g.el"
        assert main(["generate", "-n", str(n), "-d", str(density), "--seed", "1", "-o", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED_GENERATE_SHA256[(n, density)]

    def test_bad_distribution(self, tmp_path, capsys):
        # each spec is refused before any draw, with one error line naming --dist and its form
        out = tmp_path / "x.el"
        for spec in ("zeta:2", "beta:1", "uniform:0.5", "const:abc", "beta:0,1", "beta:nan,1",
                     "beta:1,inf", "uniform:0.5,0.2", "const:0"):
            assert main(["generate", "-n", "10", "-d", "0.4", "--dist", spec, "-o", str(out)]) == 1, spec
            err = capsys.readouterr().err
            assert err.startswith(f"error: --dist {spec!r}") and err.count("\n") == 1, err
            assert "uniform[:lo,hi] | beta:a,b | const:p" in err, err
            assert not out.exists()

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_seed_outside_64_bits_refused_at_parse_time(self, tmp_path, capsys, seed):
        out = tmp_path / "g.el"
        assert_seed_refused_at_parse_time(
            ["generate", "-n", "10", "-d", "0.4", "--seed", seed, "-o", str(out)], capsys, out)

    def test_edge_cap_exits_one_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(usparse.graph, "MAX_GENERATED_EDGES", 100)
        out = tmp_path / "big.el"
        assert main(["generate", "-n", "100", "-d", "0.15", "--seed", "1", "-o", str(out)]) == 1
        assert not out.exists()
        assert "above the 100" in capsys.readouterr().err


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

    def test_ni_at_alpha_one_keeps_every_edge(self, graph_file, tmp_path):
        code, out = run_sparsify(graph_file, tmp_path, "ni", alpha="1.0", name="ni.el")
        assert code == 0
        assert out.read_bytes() == graph_file.read_bytes()
        manifest = json.loads((tmp_path / "ni.el.manifest.json").read_text(),
                              parse_constant=lambda token: pytest.fail(f"bare {token}"))
        assert manifest["method_info"] == {
            "epsilon": None, "calibration_steps": 0, "core_edges": manifest["edges_original"],
            "topped_up": 0,
        }

    def test_alpha_below_floor_explains(self, graph_file, tmp_path, capsys):
        code, _ = run_sparsify(graph_file, tmp_path, "gdb", alpha="0.01")
        assert code == 1
        assert "connectivity floor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines",
        [
            # p / p_min is inf for every edge
            ["0 1 5e-324", "1 2 0.5", "2 3 0.9", "0 3 0.4"],
            # the weights fit, but the second forest's edges die after round 2e308
            ["0 1 1e-308", "0 2 1", "0 3 1", "1 2 1", "1 3 1", "2 3 1"],
        ],
        ids=["subnormal", "death-round-overflow"],
    )
    def test_ni_p_min_too_small_is_one_error_line(self, tmp_path, capsys, lines):
        path = tmp_path / "tiny.el"
        path.write_text("\n".join(lines) + "\n")
        code, out = run_sparsify(path, tmp_path, "ni", alpha="0.5")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "p_min" in err
        assert not out.exists()

    def test_non_utf8_input_is_a_format_error(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_bytes(b"\xff\xfe0 1 0.5\n")
        for argv in (["sparsify", "-i", str(bad), "-o", str(tmp_path / "o.el"),
                      "-m", "gdb", "-a", "0.5"],
                     ["eval", "-i", str(graph_file), "-s", str(bad), "-q", "pr",
                      "--samples", "5", "--no-variance", "-o", str(tmp_path / "r")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: {bad}: line 1: not UTF-8 text\n"
        assert not (tmp_path / "o.el").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["sparsify", "-i", str(tmp_path / "nope.el"), "-o", str(tmp_path / "o.el"),
                     "-m", "gdb", "-a", "0.4"])
        assert code == 2

    @pytest.mark.parametrize("seed", [*BAD_SEEDS, str(2**70)])
    def test_seed_outside_64_bits_refused(self, graph_file, tmp_path, capsys, seed):
        # sparsify's seed is checked with the rest of its run configuration
        code, out = run_sparsify(graph_file, tmp_path, "gdb", extra=("--seed", seed))
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative 64-bit integer\n"
        assert not out.exists()

    def test_largest_64_bit_seed_runs(self, graph_file, tmp_path):
        code, out = run_sparsify(graph_file, tmp_path, "gdb", extra=("--seed", str(2**64 - 1)))
        assert code == 0 and out.exists()

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

    @pytest.mark.parametrize("method, flag, value", [
        ("emd", "--tau", "inf"), ("emd", "--tau", "nan"), ("ni", "--theta", "nan"),
    ])
    def test_non_finite_parameter_refused(self, graph_file, tmp_path, capsys, method, flag, value):
        # a manifest is strict JSON and cannot record it
        code, out = run_sparsify(graph_file, tmp_path, method, extra=[flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag[2:] in err
        assert not out.exists()

    @pytest.mark.parametrize("method, flag, value", [
        ("gdb", "--max-sweeps", "-1"), ("emd", "--max-iters", "-5"),
    ])
    def test_negative_cap_refused(self, graph_file, tmp_path, capsys, method, flag, value):
        code, out = run_sparsify(graph_file, tmp_path, method, extra=[flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag[2:].replace("-", "_") + " must be non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["max_sweeps", "max_iters"])
    def test_negative_cap_refused_on_replay(self, graph_file, tmp_path, field):
        _, out = run_sparsify(graph_file, tmp_path, "emd", name="emd.el")
        manifest = tmp_path / "emd.el.manifest.json"
        payload = json.loads(manifest.read_text())
        payload["config"][field] = -1
        manifest.write_text(json.dumps(payload))
        out.unlink()
        assert main(["sparsify", "-i", "x", "-o", "y", "--from-manifest", str(manifest)]) == 1
        assert not out.exists()

    def test_cut_rule_and_cut_all(self, graph_file, tmp_path):
        for rule in ("2", "all"):
            code, out = run_sparsify(graph_file, tmp_path, "gdb", extra=["-k", rule], name=f"k{rule}.el")
            assert code == 0
            assert load_graph(out, allow_zero=True).m > 0


class TestSparsifyPinned:
    # sha256 of the edge list and manifest that `sparsify -a 0.3 --seed 7`
    # writes for each flag set below, on the README's `generate -n 100 -d 0.15
    # --dist uniform --seed 1` graph, recorded at commit 6bcc60d (the Kruskal
    # backbone peel and the per-edge graph constructor); "gdbrel" recorded at
    # commit ba3971f; "ni" and "ss" recorded at commit 4553f7a (the graph's
    # row tuples and ss's float rows); k2's manifest and both "kall" digests
    # recorded at the commit that made the cut rules one exact family (the
    # step's degree coefficient 1/2, each rule's own objective in the
    # manifest's history, and -k all run as k = n).
    PINNED = {
        "gdb": (("-m", "gdb"), "386f0cad01bc5a7b4c652998c9a4160493667d79312f1a969785692f6eabfa41",
                "7db05e7da5925c782cf1496ad54f9497364e828e7410b621b78ec7e3e269092f"),
        "emd": (("-m", "emd"), "4a33697bf03ea3361938b40def1d8a2d20a11c6c3a88290bd4bafc83c3ca3716",
                "57b0f9c6302adea7cfb5321422829404a4110077b1476ff675b8abd3aedfeebb"),
        "gdbrel": (("-m", "gdb", "--mode", "rel"),
                   "98f859ba3abb929afc8fab0787380deb2a7c2758b2ac501b8770e5d53839b905",
                   "6713a3ac1f0a4bdc8d74ab6c492f2118e2b8ca445093c902b0b6e7d659fe5d2f"),
        "emdrel": (("-m", "emd", "--mode", "rel"),
                   "9857cca420f6d7bb7be3363727d98f2332e23e9f84f331013e31d3be978fd5e1",
                   "7ad9b83320414754822dc4891dcb61023220cbd6201ffab1eef84978513d186b"),
        "lp": (("-m", "lp"), "9e35e1946c9a904d855f7fd10041ae869eabd46327b33f928248640d561428e1",
               "a6b720086c22ffd14a227dd571027249781e5093e72a61cfc3fd3c88a92bdfed"),
        "k2": (("-m", "gdb", "-k", "2"),
               "cc0e9be6a0c88c62c49884f1e679b28b54e000ccb9e73d4b749ce924648740d1",
               "18e1bfd377927af47e003a22ebc547033fb890ec4a9106e61cfec0f3b0908298"),
        "kall": (("-m", "gdb", "-k", "all"),
                 "cc0e9be6a0c88c62c49884f1e679b28b54e000ccb9e73d4b749ce924648740d1",
                 "70d86509709ef2ab8686a69588f5a4946673a99876b05d2cf2eef0ae1fa64db8"),
        "ni": (("-m", "ni"), "466b4446779cf9f35d70471584a5a05bf1a7c588c0642160beb31b8254cee282",
               "a1847d5a559c45b1fccf9782bad7882fdb7afaec5fc37c895a7f3bb1f66d5688"),
        "ss": (("-m", "ss"), "52f181f1a88d9ff4f992ee08e9a8ee72dcc32136b96d256a4c276084ca396abd",
               "9afe0dab328ec66258211ba25ea59f238a29785a5601322f9e40f1a92eeeec22"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_paper_graph_keeps_its_bytes(self, tmp_path, monkeypatch, name):
        # relative names, because the manifest records the file names
        monkeypatch.chdir(tmp_path)
        flags, edges_sha, manifest_sha = self.PINNED[name]
        assert main(["generate", "-n", "100", "-d", "0.15", "--dist", "uniform", "--seed", "1",
                     "-o", "g.el"]) == 0
        assert main(["sparsify", "-i", "g.el", "-o", f"{name}.el", "-a", "0.3", "--seed", "7",
                     *flags]) == 0
        digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                        for f in (f"{name}.el", f"{name}.el.manifest.json"))
        assert digests == (edges_sha, manifest_sha)


class TestColumnsOnly:
    """Every command path reads a graph's columns, never the rows derived from them."""

    @pytest.fixture()
    def rows_refused(self, monkeypatch):
        def refuse(g):
            raise AssertionError("a graph's row tuples were read")

        for name in ("edges", "edge_pairs"):
            monkeypatch.setattr(UncertainGraph, name, property(refuse))

    @pytest.mark.parametrize("flags", [
        ("-m", "gdb"), ("-m", "gdb", "--mode", "rel"), ("-m", "gdb", "-k", "2"),
        ("-m", "gdb", "-k", "all"), ("-m", "emd"), ("-m", "lp"), ("-m", "ni"), ("-m", "ss"),
    ], ids=" ".join)
    def test_sparsify(self, graph_file, tmp_path, rows_refused, flags):
        assert main(["sparsify", "-i", str(graph_file), "-o", str(tmp_path / "out.el"),
                     "-a", "0.4", "--seed", "3", *flags]) == 0

    def test_load_and_save(self, graph_file, tmp_path, rows_refused):
        save_graph(load_graph(graph_file), tmp_path / "copy.el")
        assert (tmp_path / "copy.el").read_bytes() == graph_file.read_bytes()

    @pytest.mark.parametrize("kind", list(evaluation.QueryKind), ids=lambda k: k.value)
    def test_sample_answers(self, graph_file, rows_refused, kind):
        g = load_graph(graph_file)
        units = evaluation.default_units(g, kind, 6, seed=1)
        answers = evaluation.sample_answers(g, kind, units, 5, 1, n_runs=2)
        assert len(answers.units) == len(units)


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
        # eval samples each graph once: S worlds of stream () per graph, plus
        # S per graph for each of the R variance runs
        from usparse import evaluation

        _, out = run_sparsify(graph_file, tmp_path, "gdb")
        calls = []
        original = evaluation.sample_world
        monkeypatch.setattr(evaluation, "sample_world", lambda *a: calls.append(1) or original(*a))
        n_samples, n_runs = 7, 3
        assert main(["eval", "-i", str(graph_file), "-s", str(out), "-q", "rl",
                     "--samples", str(n_samples), "--runs", str(n_runs), "--pairs", "5",
                     "--seed", "2", "-o", str(tmp_path / "report")]) == 0
        assert len(calls) == 2 * n_samples * (1 + n_runs)

    # sha256 of each eval output for `generate -n 40 -d 0.12 --seed 3`,
    # `sparsify -m gdb -a 0.5 --seed 7` and the eval flags below, recorded
    # when the degree rule began sweeping matching by matching (which changed
    # the gdb input; cc's answers kept their bytes).
    PINNED_EVAL_SHA256 = {
        "pr": ("3d9c3dc745cc786d2fc0e07760467c35fc0459fdcfea07a6163ba4109f4b209a",
               "4407df523af3c09d9e0b520533efb5bc48f63089dafbfeb4aed3b25d673c7167"),
        "sp": ("164507802e97fee4a79ad7bf80d0fe0ee0db186ddcd4ba1850db3931f61b0ca3",
               "87b86773a58c291f1dc6bd47ed12623f7f71be39ab08777c779a122b4f2e7cd7"),
        "rl": ("d34a02ecda372d954906ee9c80c4a8bc69a99296b9bd6f903eb9d15ff219de52",
               "6cc81addbd25c37a26fd7ca6947033bc75f0859d2424a0c334714c4968db3ed6"),
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
        capsys.readouterr()
        for argv in (["eval", "-i", str(graph_file), "-s", str(out), "-q", "cc",
                      "--no-variance", "-o", str(tmp_path / "one")],
                     ["compare", "-i", str(graph_file), "--methods", "ss", "--alphas", "0.5",
                      "--queries", "cc", "--runs", "2", "--cut-samples", "5",
                      "-o", str(tmp_path / "one.csv")]):
            assert main([*argv, "--samples", "1"]) == 0
            assert capsys.readouterr().err.count("warning") == 1

    def test_empty_sp_report_is_strict_json(self, graph_file, tmp_path):
        # every edge has p = 0, so no pair is connected in any sparsified world
        g = load_graph(graph_file)
        dead = tmp_path / "dead.el"
        dead.write_text(f"# n={g.n}\n" + "".join(f"{u} {v} 0\n" for u, v in g.edge_pairs))
        assert main(["eval", "-i", str(graph_file), "-s", str(dead), "-q", "sp",
                     "--samples", "10", "--runs", "2", "--pairs", "15", "-o",
                     str(tmp_path / "empty")]) == 0

        def refuse(token):
            raise ValueError(f"bare {token} in JSON")

        summary = json.loads((tmp_path / "empty.json").read_text(), parse_constant=refuse)
        assert summary["units_evaluated"] == 0 and summary["units_skipped"] == 15
        assert summary["emd_mean"] is None
        assert summary["emd_median"] is None and summary["emd_max"] is None
        assert list(csv.DictReader(open(tmp_path / "empty.csv"))) == []

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"), ("--samples", "-2"), ("--pairs", "0"), ("--pairs", "-3"),
        ("--runs", "1"), ("--runs", "-1"), ("--samples", "many"),
    ])
    def test_bad_counts_refused_at_parse_time(self, graph_file, tmp_path, capsys,
                                              command, flag, value):
        argv = (["eval", "-i", str(graph_file), "-s", str(graph_file), "-q", "rl",
                 "-o", str(tmp_path / "r")] if command == "eval" else
                ["compare", "-i", str(graph_file), "--methods", "gdb", "--alphas", "0.5",
                 "--queries", "rl", "-o", str(tmp_path / "r.csv")])
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and flag in errors[0]
        assert "warning" not in err
        assert list(tmp_path.iterdir()) == [graph_file]

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_seed_outside_64_bits_refused_at_parse_time(self, graph_file, tmp_path, capsys, seed):
        out = tmp_path / "r.json"
        assert_seed_refused_at_parse_time(
            ["eval", "-i", str(graph_file), "-s", str(graph_file), "-q", "rl",
             "--seed", seed, "-o", str(tmp_path / "r")], capsys, out)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cut_samples_below_one_refused_at_parse_time(self, graph_file, tmp_path, capsys,
                                                         value):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "-i", str(graph_file), "--methods", "gdb", "--alphas", "0.5",
                  "--queries", "rl", "--samples", "3", "--runs", "2", "--pairs", "3",
                  "--cut-samples", value, "-o", str(tmp_path / "c.csv")])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and "--cut-samples" in errors[0]
        assert list(tmp_path.iterdir()) == [graph_file]

    @pytest.mark.parametrize("flag, value", [
        ("--methods", "gdbb"), ("--methods", "gdb,zz"), ("--methods", ","),
        ("--queries", "xx"), ("--queries", "rl,pp"), ("--alphas", "abc"), ("--alphas", "0.5,x"),
    ])
    def test_bad_compare_list_refused_at_parse_time(self, graph_file, tmp_path, capsys,
                                                    flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "-i", str(graph_file), "--methods", "gdb", "--alphas", "0.5",
                  "--queries", "rl", "-o", str(tmp_path / "c.csv"), flag, value])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and flag in errors[0]
        assert list(tmp_path.iterdir()) == [graph_file]

    def test_one_run_allowed_without_variance(self, graph_file, tmp_path):
        assert main(["eval", "-i", str(graph_file), "-s", str(graph_file), "-q", "rl",
                     "--samples", "3", "--pairs", "4", "--runs", "1", "--no-variance",
                     "-o", str(tmp_path / "r")]) == 0


class TestCompare:
    # sha256 of this sweep's CSV, recorded when the degree rule began sweeping
    # matching by matching (which changed the gdb cells); mean_emd and
    # relative_variance score each cell's answers against the original
    # graph's, sampled once per query.
    PINNED_SWEEP_SHA256 = "44069f465b2c94d485897dbecdf2e38100c935e2e79a284788108a69ecfe24a0"

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_seed_outside_64_bits_refused_at_parse_time(self, graph_file, tmp_path, capsys, seed):
        out = tmp_path / "c.csv"
        assert_seed_refused_at_parse_time(
            ["compare", "-i", str(graph_file), "--methods", "gdb", "--alphas", "0.5",
             "--queries", "rl", "--seed", seed, "-o", str(out)], capsys, out)

    def test_sweep_keeps_pinned_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "-n", "40", "-d", "0.12", "--seed", "3", "-o", "g.el"]) == 0
        assert main(["compare", "-i", "g.el", "--methods", "gdb,ss", "--alphas", "0.5,0.7",
                     "--queries", "pr,sp,rl,cc", "--samples", "30", "--runs", "3",
                     "--pairs", "120", "--cut-samples", "20", "--seed", "5",
                     "-o", "sweep.csv"]) == 0
        digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert digest == self.PINNED_SWEEP_SHA256

    def test_original_sampled_once_per_query(self, graph_file, tmp_path, monkeypatch):
        # each of the Q queries samples the original graph once and each of the
        # C cells' sparsified graphs once: S worlds plus S per variance run
        from usparse import evaluation

        calls = []
        original = evaluation.sample_world
        monkeypatch.setattr(evaluation, "sample_world", lambda *a: calls.append(1) or original(*a))
        n_samples, n_runs = 6, 2
        out = tmp_path / "sweep.csv"
        assert main(["compare", "-i", str(graph_file), "--methods", "gdb,ss",
                     "--alphas", "0.4,0.6", "--queries", "rl,pr", "--samples", str(n_samples),
                     "--runs", str(n_runs), "--pairs", "5", "--cut-samples", "5",
                     "-o", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
        n_cells, n_queries = 4, 2
        assert len(rows) == n_cells * n_queries and all(r["error"] == "" for r in rows)
        assert len(calls) == n_queries * n_samples * (1 + n_runs) * (1 + n_cells)

    def test_cut_subsets_drawn_once_per_sweep(self, graph_file, tmp_path, monkeypatch):
        # 4 cells share one draw of the n_cuts subsets for each of the ladder's ks
        from usparse import evaluation

        calls = []
        original = evaluation._floyd_k_subset
        monkeypatch.setattr(evaluation, "_floyd_k_subset",
                            lambda *a: calls.append(a[2]) or original(*a))
        n_cuts = 7
        assert main(["compare", "-i", str(graph_file), "--methods", "gdb,emd",
                     "--alphas", "0.4,0.6", "--queries", "rl", "--samples", "4",
                     "--runs", "2", "--pairs", "5", "--cut-samples", str(n_cuts),
                     "-o", str(tmp_path / "sweep.csv")]) == 0
        n = load_graph(graph_file).n
        ks = {1, 2, n // 4, n // 2, (3 * n) // 4, n}
        assert sorted(calls) == sorted(list(ks) * n_cuts)

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

    def test_out_of_range_alpha_is_a_cell_error(self, graph_file, tmp_path):
        # alpha 1.5 fails each method's cell, and alpha 1.0 runs for ni as for ss
        out = tmp_path / "sweep.csv"
        code = main([
            "compare", "-i", str(graph_file),
            "--methods", "ni,ss", "--alphas", "1.0,1.5", "--queries", "rl",
            "--samples", "5", "--runs", "2", "--pairs", "4", "--cut-samples", "5",
            "-o", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert [(r["method"], r["alpha"], r["error"]) for r in rows] == [
            ("ni", "1.0", ""), ("ni", "1.5", "alpha must be in (0, 1]"),
            ("ss", "1.0", ""), ("ss", "1.5", "alpha must be in (0, 1]"),
        ]

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

    def test_output_file_holds_what_stdout_prints(self, tmp_path, capsys):
        path = tmp_path / "tri.el"
        path.write_text("0 1 0.5\n0 2 0.5\n1 2 0.5\n")
        argv = ["oracle", "-i", str(path), "-q", "reachable", "--source", "0", "--target", "2"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "-o", str(tmp_path / "p.json")]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "p.json").read_text() == printed

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
        RunConfig(input="a", output="b", method="gdb", alpha=0.3, seed=2**64 - 1).validate()
        bad = [
            RunConfig(input="a", output="b", method="zz", alpha=0.3),
            RunConfig(input="a", output="b", method="gdb", alpha=1.5),
            RunConfig(input="a", output="b", method="emd", alpha=0.3, rule="3"),
            RunConfig(input="a", output="b", method="lp", alpha=0.3, rule="all"),
            RunConfig(input="a", output="b", method="ss", alpha=0.3, theta=1.2),
            RunConfig(input="a", output="b", method="gdb", alpha=0.3, h=2.0),
            RunConfig(input="a", output="b", method="gdb", alpha=0.3, seed=-1),
            RunConfig(input="a", output="b", method="gdb", alpha=0.3, seed=2**64),
            RunConfig(input="a", output="b", method="ni", alpha=0.3, mode="rel"),
            RunConfig(input="a", output="b", method="gdb", alpha=0.3, rule="all", mode="rel"),
            RunConfig(input="a", output="b", method="lp", alpha=0.3, mode="rel"),
            RunConfig(input="a", output="b", method="gdb", alpha=0.3, max_sweeps=-1),
            RunConfig(input="a", output="b", method="emd", alpha=0.3, max_iters=-5),
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
