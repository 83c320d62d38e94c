"""usparse: sparsify uncertain graphs while preserving expected degrees and cuts."""

from usparse.backbone import (
    build_backbone,
    default_alpha_prime,
    random_backbone,
    target_edge_count,
)
from usparse.benchmarks import ni_sparsify, ss_sparsify
from usparse.config import RunConfig
from usparse.dispatch import sparsify
from usparse.emd import emd_run
from usparse.evaluation import (
    Answers,
    QueryKind,
    earth_movers_distance,
    emd_report,
    quality,
    sample_answers,
    sample_masks,
    variance_protocol,
)
from usparse.gdb import Rule, gdb_run
from usparse.graph import (
    DiscrepancyMode,
    GraphFormatError,
    UncertainGraph,
    derive_rng,
    exact_query_probability,
    generate_synthetic,
    graph_entropy,
    load_graph,
    sample_world,
    save_graph,
)
from usparse.lp import lp_sparsify, solve_optimal_assignment

__all__ = [
    "Answers",
    "DiscrepancyMode",
    "GraphFormatError",
    "QueryKind",
    "Rule",
    "RunConfig",
    "UncertainGraph",
    "build_backbone",
    "default_alpha_prime",
    "derive_rng",
    "earth_movers_distance",
    "emd_report",
    "emd_run",
    "exact_query_probability",
    "gdb_run",
    "generate_synthetic",
    "graph_entropy",
    "load_graph",
    "lp_sparsify",
    "ni_sparsify",
    "quality",
    "random_backbone",
    "sample_answers",
    "sample_masks",
    "sample_world",
    "save_graph",
    "solve_optimal_assignment",
    "sparsify",
    "ss_sparsify",
    "target_edge_count",
    "variance_protocol",
]
