"""One method dispatch: run the sparsifier a RunConfig names."""

from __future__ import annotations

from usparse.backbone import build_backbone, random_backbone
from usparse.benchmarks import DEFAULT_THETA, ni_sparsify, ss_sparsify
from usparse.config import RunConfig
from usparse.emd import emd_run
from usparse.gdb import gdb_run
from usparse.graph import UncertainGraph
from usparse.lp import lp_sparsify


def _make_backbone(g: UncertainGraph, config: RunConfig):
    if config.backbone == "random":
        return random_backbone(g, config.alpha, seed=config.seed)
    return build_backbone(g, config.alpha, alpha_prime=config.alpha_prime, seed=config.seed)


def sparsify(g: UncertainGraph, config: RunConfig) -> tuple[UncertainGraph, dict]:
    """Sparsify g with the method and parameters in config.

    Returns the sparsified graph and the method's run report.  config.input
    and config.output are not read: loading and saving are the caller's.
    """
    config.validate()
    if config.method == "ni":
        theta = config.theta if config.theta is not None else DEFAULT_THETA
        return ni_sparsify(g, config.alpha, theta=theta, seed=config.seed)
    if config.method == "ss":
        return ss_sparsify(g, config.alpha, seed=config.seed)
    bb = _make_backbone(g, config)
    if config.method == "lp":
        return lp_sparsify(g, bb)
    rule = config.objective()
    if config.method == "emd":
        return emd_run(
            g, bb, h=config.h, mode=rule.mode, tau=config.tau,
            max_iters=config.max_iters, max_sweeps=config.max_sweeps,
        )
    return gdb_run(g, bb, h=config.h, rule=rule, tau=config.tau, max_sweeps=config.max_sweeps)
