"""Smoke tests: each experiment script runs end to end on a small graph."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, rows",
    [
        ("density_sweep", ["--densities", "0.4", "--methods", "gdb,emd,lp,ni,ss",
                           "--alpha", "0.4", "--cut-samples", "5"], 5),
        ("h_sensitivity", ["--density", "0.4", "--alphas", "0.3,0.5", "--hs", "0,1"], 4),
    ],
)
def test_script_writes_csv(name, argv, rows, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert load_script(name).main(["--vertices", "20", "--seed", "3", *argv, "-o", str(out)]) == 0
    written = list(csv.DictReader(open(out)))
    assert len(written) == rows
    assert f"wrote {rows} rows" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-1"])
def test_density_sweep_refuses_cut_samples_below_one(value, tmp_path, capsys):
    out = tmp_path / "density_sweep.csv"
    with pytest.raises(SystemExit) as exit_info:
        load_script("density_sweep").main(["--vertices", "20", "--densities", "0.4",
                                           "--cut-samples", value, "-o", str(out)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--cut-samples" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("name, flag, value", [
    ("density_sweep", "--methods", "gdb,foo"),
    ("density_sweep", "--densities", "0.4,x"),
    ("h_sensitivity", "--alphas", "0.3,y"),
    ("h_sensitivity", "--hs", "0,z"),
])
def test_script_refuses_a_bad_list_before_any_work(name, flag, value, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    with pytest.raises(SystemExit) as exit_info:
        load_script(name).main(["--vertices", "20", flag, value, "-o", str(out)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and value in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "name, argv, failed, rows",
    [
        # alpha 0.05 is below the n=20 graph's connectivity floor of 0.25: gdb
        # and emd build a backbone and fail, ni and ss do not
        ("density_sweep", ["--densities", "0.4", "--methods", "gdb,emd,ni,ss",
                           "--alpha", "0.05", "--cut-samples", "5"], 2, 4),
        # the default seed's n=20 graph has a floor of 0.396, above alpha 0.1
        ("h_sensitivity", ["--alphas", "0.1,0.5", "--hs", "0,1"], 2, 4),
    ],
)
def test_script_records_a_domain_error_and_goes_on(name, argv, failed, rows, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert load_script(name).main(["--vertices", "20", *argv, "-o", str(out)]) == 0
    written = list(csv.DictReader(open(out)))
    assert len(written) == rows
    errors = [row for row in written if row["error"]]
    assert len(errors) == failed
    assert all("connectivity floor" in row["error"] and row["mae_degree"] == "" for row in errors)
    assert all(row["mae_degree"] != "" for row in written if not row["error"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.count("error: alpha=") == failed
    assert f"wrote {rows} rows" in captured.out
