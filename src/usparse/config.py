"""Run configuration shared by the CLI and the manifests it writes."""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields

from usparse.emd import DEFAULT_MAX_ITERS
from usparse.gdb import DEFAULT_H, DEFAULT_MAX_SWEEPS, Rule
from usparse.graph import DiscrepancyMode

METHODS = ("gdb", "emd", "lp", "ni", "ss")
BACKBONES = ("spanning", "random")
MODES = tuple(mode.value for mode in DiscrepancyMode)
SEED_BOUND = 2**64  # seeds are 64-bit: 0 <= seed < SEED_BOUND
# Accepted JSON types per field annotation; bool is rejected separately.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}


@dataclass
class RunConfig:
    """Everything needed to reproduce one sparsification run byte-for-byte."""

    method: str
    alpha: float
    input: str = ""  # read and written by the CLI; usparse.sparsify ignores both
    output: str = ""
    alpha_prime: float | None = None
    backbone: str = "spanning"
    mode: str = "abs"
    rule: str = "1"  # cut cardinality as an integer string, or "all"
    h: float = DEFAULT_H
    tau: float | None = None
    theta: float | None = None
    seed: int = 0
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    max_iters: int = DEFAULT_MAX_ITERS

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone kind {self.backbone!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown discrepancy mode {self.mode!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.alpha_prime is not None and not 0.0 <= self.alpha_prime <= self.alpha:
            raise ValueError("alpha_prime must lie in [0, alpha]")
        if not 0.0 <= self.h <= 1.0:
            raise ValueError("h must lie in [0, 1]")
        if self.tau is not None and not 0.0 <= self.tau < math.inf:
            raise ValueError("tau must be non-negative and finite")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not 0 <= self.seed < SEED_BOUND:
            raise ValueError("seed must be a non-negative 64-bit integer")
        for cap in ("max_sweeps", "max_iters"):
            if getattr(self, cap) < 0:
                raise ValueError(f"{cap} must be non-negative")
        rule = self.objective()
        if self.method != "gdb" and rule.k != 1:
            raise ValueError(f"method {self.method!r} does not take a cut rule")
        if self.method in ("lp", "ni", "ss") and rule.mode is not DiscrepancyMode.ABSOLUTE:
            raise ValueError(f"method {self.method!r} does not take a discrepancy mode")
        if self.theta is not None and self.method != "ni":
            raise ValueError("theta only applies to the ni method")

    def objective(self) -> Rule:
        """The Rule a gdb or emd run minimizes, parsed from rule and mode."""
        try:
            k = None if self.rule == "all" else int(self.rule)
        except ValueError:
            raise ValueError(f"rule must be an integer or 'all', got {self.rule!r}") from None
        return Rule(k, DiscrepancyMode(self.mode))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build from a manifest's config, type-checking every field it names.

        An int is accepted for a float field, a bool for no numeric field, and
        None only where the field is optional.
        """
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for f in fields(cls):
            if f.name not in data:
                if f.default is MISSING:
                    raise ValueError(f"config field {f.name!r} is missing")
                continue
            value = data[f.name]
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ValueError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        return cls(**data)
