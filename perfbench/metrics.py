"""Metric definitions: end-to-end metrics from command times and outputs, and
layer metrics from the spans of a traced pass.

A workload reports a metric only when it runs the commands behind it.  The
result line, the last line of a run's stdout, carries the subset named in
BENCHMARK.json, which lists exactly the metrics every workload reports.
"""

from __future__ import annotations

from statistics import median

from workloads import Workload

PAIRWISE_QUERIES = ("sp", "rl")
QUALITY_METHODS = ("gdb", "emd")


def workload_tags(w: Workload) -> set[str]:
    """What a workload runs, as the tags layer metrics are gated on."""
    methods = set(w.methods())
    tags = {"all"} | {f"m:{m}" for m in methods} | {f"q:{q}" for q in w.queries}
    if w.queries:
        tags.add("eval")
    if set(w.queries) & set(PAIRWISE_QUERIES):
        tags.add("pairwise")
    if methods & {"gdb", "emd", "lp"}:
        tags.add("backbone")
    if methods & {"gdb", "emd"}:
        tags.add("descent")
    return tags


# -- end-to-end --------------------------------------------------------------


def e2e_units(w: Workload) -> dict[str, str]:
    units = {"setup_s": "s", "pipeline_s": "s", "sparsify_s": "s"}
    units.update({f"sparsify_s.{m}": "s" for m in w.methods()})
    units.update({f"eval_s.{q}": "s" for q in w.queries})
    for m in QUALITY_METHODS:
        if m in w.default_rule_methods():
            units[f"degree_mae.{m}"] = "degree"
            units[f"relative_entropy.{m}"] = "ratio"
    if w.queries:
        units["emd_mean"] = "emd"
        units["relative_variance"] = "ratio"
    return units


def _mean_present(values) -> float | None:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def e2e_values(w: Workload, times, manifests, summaries) -> dict[str, float]:
    """Medians of the command times, and quality read from the written outputs.

    `times` maps a command label ("setup", "sparsify.gdb.rel", "eval.pr") to
    its call times; a method run under several labels reports the sum of
    their medians.
    """
    med = {label: median(ts) for label, ts in times.items()}
    setup = med.pop("setup")
    values = {
        "setup_s": setup,
        "pipeline_s": sum(med.values()),
        "sparsify_s": sum(med[f"sparsify.{s.label}"] for s in w.sparsify),
    }
    for m in w.methods():
        values[f"sparsify_s.{m}"] = sum(
            med[f"sparsify.{s.label}"] for s in w.sparsify if s.method == m
        )
    for q in w.queries:
        values[f"eval_s.{q}"] = med[f"eval.{q}"]
    for m in QUALITY_METHODS:
        if m in w.default_rule_methods():
            values[f"degree_mae.{m}"] = manifests[m]["degree_mae"]
            values[f"relative_entropy.{m}"] = manifests[m]["relative_entropy"]
    if w.queries:
        values["emd_mean"] = _mean_present(summaries[q]["emd_mean"] for q in w.queries)
        values["relative_variance"] = _mean_present(
            summaries[q].get("relative_variance") for q in w.queries
        )
    return values


# -- per layer ---------------------------------------------------------------


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


# (name, unit, tag the workload must carry, value from a Tracer)
LAYERS = [
    ("graph.load_s", "s", "all", lambda t: t.total("graph.load")),
    ("graph.save_s", "s", "all", lambda t: t.total("graph.save")),
    ("graph.generate_s", "s", "all", lambda t: t.total("graph.generate")),
    ("graph.sample_world_s", "s", "eval", lambda t: t.total("graph.sample_world")),
    ("graph.worlds_sampled", "count", "eval", lambda t: t.calls("graph.sample_world")),
    ("graph.component_labels_s", "s", "q:rl", lambda t: t.total("graph.component_labels")),
    ("graph.hop_distances_s", "s", "q:sp", lambda t: t.total("graph.hop_distances")),
    ("graph.hop_distances_calls", "count", "q:sp", lambda t: t.calls("graph.hop_distances")),
    ("evaluation.pagerank_s", "s", "q:pr", lambda t: t.total("evaluation.pagerank")),
    ("evaluation.cc_s", "s", "q:cc", lambda t: t.total("evaluation.cc")),
    ("evaluation.emd_report_s", "s", "eval", lambda t: t.total("evaluation.emd_report")),
    (
        "evaluation.point_estimates_s", "s", "eval",
        lambda t: t.total("evaluation.point_estimates", unless_parent="evaluation.variance"),
    ),
    ("evaluation.variance_s", "s", "eval", lambda t: t.total("evaluation.variance")),
    (
        "evaluation.world_reuse_ratio", "ratio", "eval",
        lambda t: _ratio(len(t.streams), t.calls("graph.sample_world")),
    ),
    ("evaluation.units_requested", "count", "pairwise", lambda t: t.units_median(0)),
    ("evaluation.units_distinct", "count", "pairwise", lambda t: t.units_median(1)),
    ("backbone.build_s", "s", "backbone", lambda t: t.total("backbone.build")),
    ("backbone.alpha_prime_s", "s", "backbone", lambda t: t.total("backbone.alpha_prime")),
    ("backbone.forests_built", "count", "backbone", lambda t: t.calls("backbone.forest")),
    ("gdb.descend_s", "s", "descent", lambda t: t.total("gdb.descend")),
    ("gdb.sweep_s", "s", "descent", lambda t: t.total("gdb.sweep")),
    ("gdb.sweeps", "count", "descent", lambda t: t.calls("gdb.sweep")),
    ("gdb.resync_s", "s", "descent", lambda t: t.total("gdb.resync")),
    ("gdb.objective_s", "s", "descent", lambda t: t.total("gdb.objective")),
    ("emd.e_phase_s", "s", "m:emd", lambda t: t.total("emd.e_phase")),
    ("emd.swaps", "count", "m:emd", lambda t: t.counts["emd_swaps"]),
    ("emd.iterations", "count", "m:emd", lambda t: t.calls("emd.e_phase")),
    ("emd.self_s", "s", "m:emd", lambda t: t.self_time("emd.run")),
    ("lp.simplex_s", "s", "m:lp", lambda t: t.total("lp.simplex")),
    ("lp.iterations", "count", "m:lp", lambda t: t.counts["lp_iterations"]),
    ("lp.self_s", "s", "m:lp", lambda t: t.self_time("lp.sparsify")),
    ("benchmarks.ni_forest_s", "s", "m:ni", lambda t: t.total("benchmarks.ni_forest")),
    ("benchmarks.ni_rounds", "count", "m:ni", lambda t: t.counts["ni_rounds"]),
    (
        "benchmarks.ni_useful_round_ratio", "ratio", "m:ni",
        lambda t: _ratio(t.counts["ni_useful_rounds"], t.counts["ni_rounds"]),
    ),
    (
        "benchmarks.ni_calibration_steps", "count", "m:ni",
        lambda t: t.counts["ni_calibration_steps"],
    ),
    ("benchmarks.ss_core_s", "s", "m:ss", lambda t: t.total("benchmarks.ss_core")),
    ("benchmarks.ss_core_calls", "count", "m:ss", lambda t: t.calls("benchmarks.ss_core")),
    (
        "benchmarks.ss_trim_ratio", "ratio", "m:ss",
        lambda t: _ratio(t.counts["ss_trimmed"], t.counts["ss_untrimmed"]),
    ),
    ("cli.sparsify_self_s", "s", "all", lambda t: t.self_time("cli.sparsify")),
    ("cli.eval_self_s", "s", "eval", lambda t: t.self_time("cli.eval")),
]

OVERHEAD = ("trace.overhead_ratio", "ratio")


def layer_units(w: Workload) -> dict[str, str]:
    tags = workload_tags(w)
    units = {name: unit for name, unit, tag, _ in LAYERS if tag in tags}
    units[OVERHEAD[0]] = OVERHEAD[1]
    return units


def layer_values(w: Workload, tracer, overhead: float) -> dict[str, float]:
    tags = workload_tags(w)
    values = {name: fn(tracer) for name, _, tag, fn in LAYERS if tag in tags}
    values[OVERHEAD[0]] = overhead
    return values
