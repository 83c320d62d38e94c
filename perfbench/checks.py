"""Output checks for every benchmarked command, and the hashes that pin outputs.

Each check returns a list of problems; an empty list means the output passed.
A command whose check reports anything counts as one failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

from usparse.graph import UncertainGraph, load_graph

# Value range of each query's per-unit point estimate (sp is a hop count).
QUERY_RANGE = {"pr": (0.0, 1.0), "rl": (0.0, 1.0), "cc": (0.0, 1.0), "sp": (1.0, math.inf)}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_graph(g: UncertainGraph, vertices: int, edges: int) -> list[str]:
    problems = []
    if (g.n, g.m) != (vertices, edges):
        problems.append(f"generated n={g.n} m={g.m}, expected n={vertices} m={edges}")
    ps = g.probabilities
    if np.any(ps <= 0.0) or np.any(ps > 1.0):
        problems.append("generated probability outside (0, 1]")
    return problems


def check_sparsify(original: UncertainGraph, output_path: str, alpha: float) -> list[str]:
    """Size contract, probability range, edge subset and the manifest's degree MAE."""
    try:
        out = load_graph(output_path, allow_zero=True)
        with open(output_path + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    target = round(alpha * original.m)
    if out.m != target:
        problems.append(f"{out.m} edges, expected round(alpha*|E|) = {target}")
    ps = out.probabilities
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        problems.append("probability outside [0, 1]")
    if not set(out.edge_pairs) <= set(original.edge_pairs):
        problems.append("output has edges the input does not")
    if out.n != original.n:
        problems.append(f"vertex count {out.n}, input has {original.n}")
    else:
        mae = float(np.mean(np.abs(original.degree_vector() - out.degree_vector())))
        recorded = manifest.get("degree_mae")
        if not isinstance(recorded, float) or not math.isclose(
            recorded, mae, rel_tol=1e-9, abs_tol=1e-12
        ):
            problems.append(f"manifest degree_mae {recorded!r} != recomputed {mae!r}")
    return problems


def _nonnegative_or_null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isfinite(value) and value >= 0.0)


def check_eval(prefix: str, query: str) -> list[str]:
    """The summary JSON and the per-unit CSV written by `usparse eval -o prefix`."""
    try:
        with open(prefix + ".json", encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(prefix + ".csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if summary.get("query") != query:
        problems.append(f"summary is for query {summary.get('query')!r}")
    for key in ("emd_mean", "relative_variance"):
        if not _nonnegative_or_null(summary.get(key)):
            problems.append(f"{key} is {summary.get(key)!r}")
    evaluated = summary.get("units_evaluated")
    if not isinstance(evaluated, int) or evaluated < 1 or len(rows) < evaluated:
        problems.append(f"units_evaluated {evaluated!r} with {len(rows)} CSV rows")
    lo, hi = QUERY_RANGE[query]
    for row in rows:
        try:
            emd = float(row["emd"])
            means = [float(row["mean_original"]), float(row["mean_sparsified"])]
        except (KeyError, ValueError):
            problems.append(f"malformed CSV row {row!r}")
            break
        if not emd >= 0.0 or any(not lo <= x <= hi for x in means if not math.isnan(x)):
            problems.append(f"CSV row out of range: {row!r}")
            break
    return problems
