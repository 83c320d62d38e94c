"""usparse: sparsify uncertain graphs while preserving expected degrees and cuts."""

from usparse.backbone import (
    BackboneGraph,
    build_backbone,
    default_alpha_prime,
    max_spanning_forest,
    random_backbone,
    target_edge_count,
)
from usparse.benchmarks import ni_sparsify, ss_sparsify
from usparse.config import RunConfig
from usparse.dispatch import sparsify
from usparse.emd import emd_run
from usparse.evaluation import (
    QueryDistribution,
    QueryKind,
    cut_mae_profile,
    earth_movers_distance,
    emd_report,
    mc_distributions,
    quality,
    sample_masks,
    variance_protocol,
)
from usparse.gdb import Rule, gdb_run
from usparse.graph import (
    DeterministicWorld,
    DiscrepancyMode,
    GraphFormatError,
    UncertainGraph,
    derive_rng,
    edge_entropy,
    exact_query_probability,
    expected_cut_size,
    generate_synthetic,
    graph_entropy,
    load_graph,
    sample_world,
    sampled_k_discrepancy_mae,
    save_graph,
)
from usparse.lp import lp_sparsify, solve_optimal_assignment

__all__ = [
    "BackboneGraph",
    "DeterministicWorld",
    "DiscrepancyMode",
    "GraphFormatError",
    "QueryDistribution",
    "QueryKind",
    "Rule",
    "RunConfig",
    "UncertainGraph",
    "build_backbone",
    "cut_mae_profile",
    "default_alpha_prime",
    "derive_rng",
    "earth_movers_distance",
    "edge_entropy",
    "emd_report",
    "emd_run",
    "exact_query_probability",
    "expected_cut_size",
    "gdb_run",
    "generate_synthetic",
    "graph_entropy",
    "load_graph",
    "lp_sparsify",
    "max_spanning_forest",
    "mc_distributions",
    "ni_sparsify",
    "quality",
    "random_backbone",
    "sample_masks",
    "sample_world",
    "sampled_k_discrepancy_mae",
    "save_graph",
    "solve_optimal_assignment",
    "sparsify",
    "ss_sparsify",
    "target_edge_count",
    "variance_protocol",
]
