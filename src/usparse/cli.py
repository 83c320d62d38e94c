"""Command-line interface: generate, sparsify, eval, compare, oracle.

Every randomized operation takes a 64-bit seed and every output embeds the
exact run configuration, so any run repeats byte-for-byte.  Timing is logged
to stderr only, keeping the written artifacts deterministic.  Exit codes:
0 success, 1 domain error, 2 I/O error or a bad argument.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

from usparse import evaluation
from usparse.config import BACKBONES, METHODS, MODES, RunConfig
from usparse.dispatch import sparsify
from usparse.graph import (
    GraphFormatError,
    exact_query_probability,
    generate_synthetic,
    load_graph,
    save_graph,
)

CONFIG_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
QUERIES = tuple(kind.value for kind in evaluation.QueryKind)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_json(path, payload) -> None:
    """Write strict JSON: an out-of-range float raises instead of writing a bare NaN."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _probability_sampler(spec: str):
    """Parse --dist: uniform[:lo,hi] | beta:a,b | const:p, refusing a bad spec before any draw."""
    name, _, args = spec.partition(":")
    try:
        values = tuple(float(x) for x in args.split(",")) if args else ()
    except ValueError:
        values = None
    if name == "uniform" and values == ():
        values = (0.0, 1.0)
    if values is None or not (
        (name == "uniform" and len(values) == 2 and 0.0 <= values[0] < values[1] <= 1.0)
        or (name == "beta" and len(values) == 2 and all(0.0 < x < math.inf for x in values))
        or (name == "const" and len(values) == 1 and 0.0 < values[0] <= 1.0)
    ):
        raise ValueError(f"--dist {spec!r} is not uniform[:lo,hi] | beta:a,b | const:p, with "
                         "0 <= lo < hi <= 1, a and b finite and > 0, and 0 < p <= 1")
    if name == "uniform":
        lo, hi = values

        def sampler(rng, size):
            draw = lo + (hi - lo) * (1.0 - rng.random(size))
            return np.clip(draw, np.nextafter(0.0, 1.0), 1.0)

        return sampler
    if name == "beta":
        a, b = values
        return lambda rng, size: np.clip(rng.beta(a, b, size), np.nextafter(0.0, 1.0), 1.0)
    return lambda rng, size: np.full(size, values[0])


def cmd_generate(args) -> int:
    g = generate_synthetic(
        args.vertices, args.density, _probability_sampler(args.dist), seed=args.seed
    )
    save_graph(g, args.output)
    _log(f"generated n={g.n} m={g.m} -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# sparsify
# ---------------------------------------------------------------------------


def run_sparsify(config: RunConfig) -> dict:
    """Execute one sparsification run; returns the manifest payload."""
    config.validate()
    g = load_graph(config.input)
    started = time.perf_counter()
    out, info = sparsify(g, config)
    elapsed = time.perf_counter() - started
    save_graph(out, config.output)
    manifest = {
        "config": config.to_dict(),
        "vertices": g.n,
        "edges_original": g.m,
        "edges_sparsified": out.m,
        **evaluation.quality(g, out),
        "method_info": info,
    }
    _write_json(_manifest_path(config.output), manifest)
    _log(f"{config.method}: {out.m} edges -> {config.output} ({elapsed:.2f}s)")
    return manifest


def _manifest_path(output_path: str) -> str:
    return str(output_path) + ".manifest.json"


def cmd_sparsify(args) -> int:
    if args.from_manifest:
        with open(args.from_manifest, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        stored = payload.get("config") if isinstance(payload, dict) else None
        if not isinstance(stored, dict):
            raise ValueError(f"{args.from_manifest}: manifest has no 'config' object")
        config = RunConfig.from_dict(stored)
    else:
        if args.method is None or args.alpha is None:
            raise ValueError("sparsify requires --method and --alpha (or --from-manifest)")
        config = RunConfig(**{name: getattr(args, name) for name in CONFIG_DEFAULTS})
    run_sparsify(config)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _unit_id(unit) -> str:
    return f"{unit[0]}-{unit[1]}" if isinstance(unit, tuple) else str(unit)


def run_eval(kind, original, sparsified):
    """Score two graphs' answers to one query; returns (csv rows, summary dict)."""
    report = evaluation.emd_report(original, sparsified)
    rows = [
        {"unit": _unit_id(unit), "mean_original": left, "mean_sparsified": right, "emd": emd}
        for unit, left, right, emd in zip(report.units, report.mean_left.tolist(),
                                          report.mean_right.tolist(), report.emd.tolist())
        if not math.isnan(emd)
    ]
    summary = {
        "query": kind.value,
        "units_evaluated": len(rows),
        "units_skipped": len(report.units) - len(rows),
        "emd_mean": report.mean if rows else None,
        "emd_median": report.median if rows else None,
        "emd_max": report.max if rows else None,
    }
    if original.variances is not None:
        total_orig = float(np.nansum(original.variances))
        total_sparse = float(np.nansum(sparsified.variances))
        summary["relative_variance"] = total_sparse / total_orig if total_orig > 0 else None
    return rows, summary


def cmd_eval(args) -> int:
    g = load_graph(args.input)
    sparsified = load_graph(args.sparsified, allow_zero=True)
    if g.n != sparsified.n:
        raise ValueError(f"vertex-count mismatch: the original graph has {g.n} vertices, "
                         f"the sparsified {sparsified.n}")
    kind = evaluation.QueryKind(args.query)
    units = evaluation.default_units(g, kind, args.pairs, args.seed)
    n_runs = None if args.no_variance else args.runs
    original, answers = (evaluation.sample_answers(graph, kind, units, args.samples, args.seed,
                                                   n_runs) for graph in (g, sparsified))
    rows, summary = run_eval(kind, original, answers)
    csv_path = args.output + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["unit", "mean_original", "mean_sparsified", "emd"])
        writer.writeheader()
        writer.writerows(rows)
    summary["config"] = {
        "input": args.input,
        "sparsified": args.sparsified,
        "query": args.query,
        "samples": args.samples,
        "runs": args.runs,
        "pairs": args.pairs,
        "seed": args.seed,
    }
    _write_json(args.output + ".json", summary)
    _log(f"eval {args.query}: {summary['units_evaluated']} units, emd mean {summary['emd_mean']}"
         f" -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

COMPARE_FIELDS = [
    "method",
    "alpha",
    "query",
    "mae_degree",
    "mae_cut_sampled",
    "relative_entropy",
    "mean_emd",
    "relative_variance",
    "error",
]


def _compare_cell(g, config, originals, cuts, args):
    """One (method, alpha) cell of the sweep; returns one row per query.

    originals holds (kind, the original graph's answers) per query and cuts
    the original graph's sampled cuts (an evaluation.CutProfile), both shared
    by every cell.
    """
    sparsified, _ = sparsify(g, config)
    quality = evaluation.quality(g, sparsified)
    cut_mae = cuts.mae(sparsified)
    base = {
        "method": config.method,
        "alpha": config.alpha,
        "mae_degree": quality["degree_mae"],
        "mae_cut_sampled": cut_mae,
        "relative_entropy": quality["relative_entropy"],
    }
    rows = []
    for kind, original in originals:
        answers = evaluation.sample_answers(sparsified, kind, original.units, args.samples,
                                            config.seed, args.runs)
        _, summary = run_eval(kind, original, answers)
        rows.append({**base, "query": kind.value, "mean_emd": summary["emd_mean"],
                     "relative_variance": summary["relative_variance"], "error": ""})
    return rows


def cmd_compare(args) -> int:
    g = load_graph(args.input)
    methods, alphas, queries = args.methods, args.alphas, args.queries
    originals = []
    for kind in map(evaluation.QueryKind, queries):
        units = evaluation.default_units(g, kind, args.pairs, args.seed)
        originals.append((kind, evaluation.sample_answers(g, kind, units, args.samples,
                                                          args.seed, args.runs)))
    cuts = evaluation.CutProfile(g, args.cut_samples, args.seed)
    rows = []
    for method in methods:
        for alpha in alphas:
            config = RunConfig(
                method=method, alpha=alpha, backbone=args.backbone,
                mode=args.mode, h=args.h, seed=args.seed,
            )
            try:
                rows += _compare_cell(g, config, originals, cuts, args)
            except (ValueError, RuntimeError) as exc:  # domain errors: recorded, sweep goes on
                blank = dict.fromkeys(COMPARE_FIELDS, "")
                rows += [{**blank, "method": method, "alpha": alpha, "query": query,
                          "error": str(exc)} for query in queries]
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARE_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    _log(f"compare: {len(methods) * len(alphas)} cells x {len(queries)} queries -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    g = load_graph(args.input)
    if args.query == "connected":
        holds = lambda labels: (labels == labels[:, :1]).all(axis=1)
        payload = {"query": "connected"}
    else:
        if args.source is None or args.target is None:
            raise ValueError("reachable query needs --source and --target")
        s, t = args.source, args.target
        if not (0 <= s < g.n and 0 <= t < g.n):
            raise ValueError(f"--source {s} and --target {t} must lie in [0, {g.n})")
        holds = lambda labels: labels[:, s] == labels[:, t]
        payload = {"query": "reachable", "source": s, "target": t}
    payload["probability"] = exact_query_probability(
        g, lambda masks: holds(evaluation.component_labels(g, masks))
    )
    payload["edges"] = g.m
    if args.output:
        _write_json(args.output, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    return integer


def _comma_list(item, choices=None):
    """argparse type: a non-empty comma-separated list of item(entry), each in choices if given."""
    def comma_separated(text: str) -> list:  # argparse names it in "invalid comma_separated value"
        values = [item(entry.strip()) for entry in text.split(",") if entry.strip()]
        if not values or not set(values) <= set(choices or values):
            raise ValueError(text)
        return values

    return comma_separated


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usparse", description="Uncertain-graph sparsification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = CONFIG_DEFAULTS

    p_gen = sub.add_parser("generate", help="synthesize a random connected uncertain graph")
    p_gen.add_argument("-n", "--vertices", type=int, required=True)
    p_gen.add_argument("-d", "--density", type=float, required=True,
                       help="fraction of the complete graph's edges")
    p_gen.add_argument("--dist", default="uniform",
                       help="edge probability distribution: uniform[:lo,hi] | beta:a,b | const:p")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_sp = sub.add_parser("sparsify", help="sparsify a graph with one method")
    p_sp.add_argument("-i", "--input", required=True)
    p_sp.add_argument("-o", "--output", required=True)
    p_sp.add_argument("-m", "--method", choices=METHODS)
    p_sp.add_argument("-a", "--alpha", type=float, help="fraction of edges to keep")
    p_sp.add_argument("--alpha-prime", type=float, default=defaults["alpha_prime"],
                      help="spanning-forest quota (defaults per the method)")
    p_sp.add_argument("--backbone", choices=BACKBONES, default=defaults["backbone"])
    p_sp.add_argument("--mode", choices=MODES, default=defaults["mode"])
    p_sp.add_argument("-k", "--rule", default=defaults["rule"],
                      help="cut cardinality to preserve: integer or 'all'")
    p_sp.add_argument("--h", type=float, default=defaults["h"],
                      help="entropy step damping in [0,1]")
    p_sp.add_argument("--tau", type=float, default=defaults["tau"],
                      help="absolute convergence threshold on the objective")
    p_sp.add_argument("--theta", type=float, default=defaults["theta"],
                      help="epsilon calibration factor (ni only)")
    p_sp.add_argument("--max-sweeps", type=int, default=defaults["max_sweeps"])
    p_sp.add_argument("--max-iters", type=int, default=defaults["max_iters"])
    p_sp.add_argument("--seed", type=int, default=defaults["seed"])
    p_sp.add_argument("--from-manifest", default=None,
                      help="re-run the exact configuration stored in a manifest")
    p_sp.set_defaults(func=cmd_sparsify)

    p_ev = sub.add_parser("eval", help="compare a sparsified graph against its original")
    p_ev.add_argument("-i", "--input", required=True, help="original graph")
    p_ev.add_argument("-s", "--sparsified", required=True)
    p_ev.add_argument("-q", "--query", choices=QUERIES, required=True)
    p_ev.add_argument("--samples", type=_at_least(1), default=evaluation.DEFAULT_N_SAMPLES)
    p_ev.add_argument("--runs", type=int, default=evaluation.DEFAULT_N_RUNS)
    p_ev.add_argument("--pairs", type=_at_least(1), default=evaluation.DEFAULT_N_PAIRS)
    p_ev.add_argument("--no-variance", action="store_true",
                      help="skip the repeated-run variance protocol")
    p_ev.add_argument("--seed", type=int, default=0)
    p_ev.add_argument("-o", "--output", required=True, help="prefix for .csv and .json")
    p_ev.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="sweep methods x alphas x queries into one CSV")
    p_cmp.add_argument("-i", "--input", required=True)
    p_cmp.add_argument("--methods", required=True, type=_comma_list(str, METHODS),
                       help=f"comma-separated subset of {','.join(METHODS)}")
    p_cmp.add_argument("--alphas", required=True, type=_comma_list(float),
                       help="comma-separated ratios")
    p_cmp.add_argument("--queries", required=True, type=_comma_list(str, QUERIES),
                       help=f"comma-separated subset of {','.join(QUERIES)}")
    p_cmp.add_argument("--backbone", choices=BACKBONES, default=defaults["backbone"])
    p_cmp.add_argument("--mode", choices=MODES, default=defaults["mode"])
    p_cmp.add_argument("--h", type=float, default=defaults["h"])
    p_cmp.add_argument("--samples", type=_at_least(1), default=evaluation.DEFAULT_N_SAMPLES)
    p_cmp.add_argument("--runs", type=int, default=evaluation.DEFAULT_N_RUNS)
    p_cmp.add_argument("--pairs", type=_at_least(1), default=evaluation.DEFAULT_N_PAIRS)
    p_cmp.add_argument("--cut-samples", type=_at_least(1), default=evaluation.DEFAULT_N_CUTS,
                       help="sampled cuts per cardinality for the cut MAE column")
    p_cmp.add_argument("--seed", type=int, default=defaults["seed"])
    p_cmp.add_argument("-o", "--output", required=True, help="consolidated CSV path")
    p_cmp.set_defaults(func=cmd_compare)

    p_or = sub.add_parser("oracle", help="exact possible-world probabilities on tiny graphs")
    p_or.add_argument("-i", "--input", required=True)
    p_or.add_argument("-q", "--query", choices=("connected", "reachable"), required=True)
    p_or.add_argument("--source", type=int, default=None)
    p_or.add_argument("--target", type=int, default=None)
    p_or.add_argument("-o", "--output", default=None)
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "runs", 2) < 2 and not getattr(args, "no_variance", False):
        parser.error(f"argument --runs: the variance protocol needs at least 2 runs, "
                     f"got {args.runs}")
    if getattr(args, "samples", None) == 1:
        _log("warning: a single sample makes distribution estimates degenerate")
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError, GraphFormatError) as exc:
        _log(f"error: {exc}")
        return 2
    except (ValueError, RuntimeError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
