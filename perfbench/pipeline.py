"""Run one workload's README pipeline in-process and measure it.

Every user command goes through `usparse.cli.main(argv)` with the README's
argv, inside a work directory, so each time is what a user of that command
waits for.  A pass runs the setup and every command of the workload once;
passes repeat while another fits in the time budget, and each command
reports the median of its call times.  The machine's speed drifts by tens of
percent over seconds, so samples are spread over the whole run: after each
command slower than CHEAP_SECONDS, every cheaper command seen so far runs
once more.  A traced pass runs last, with the module boundaries wrapped,
and gives the layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from typing import Callable

from usparse import cli
from usparse.graph import load_graph

import checks
import metrics
from spans import Tracer
from workloads import ALPHA, GRAPH_SEED, SPARSIFY_SEED, Workload

CHEAP_SECONDS = 0.25
SETUP = "setup"
GRAPH_FILE = "g.el"


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[], list[str]]
    outputs: tuple[str, ...]
    then: Callable[[], None] | None = None  # timed with the command


class Session:
    """Calls, checks and hashes for one workload at one seed."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.times: dict[str, list[float]] = defaultdict(list)
        self.original = None
        self.commands = [self._setup()] + self._pipeline(str(seed))

    def _setup(self) -> Command:
        """Generate the workload graph, save it and load it once."""
        w = self.w
        argv = ["generate", "-n", str(w.vertices), "-d", str(w.density),
                "--dist", "uniform", "--seed", str(GRAPH_SEED), "-o", GRAPH_FILE]

        def load():
            self.original = load_graph(GRAPH_FILE)

        return Command(SETUP, argv,
                       lambda: checks.check_graph(self.original, w.vertices, w.edges),
                       (GRAPH_FILE,), then=load)

    def _pipeline(self, seed: str) -> list[Command]:
        w = self.w
        commands = []
        for s in w.sparsify:
            out = f"{s.label}.el"
            argv = ["sparsify", "-i", GRAPH_FILE, "-o", out, "-m", s.method,
                    "-a", str(ALPHA), "--seed", str(SPARSIFY_SEED), *s.flags]
            commands.append(Command(
                f"sparsify.{s.label}", argv,
                lambda out=out: checks.check_sparsify(self.original, out, ALPHA),
                (out, out + ".manifest.json"),
            ))
        for q in w.queries:
            prefix = f"eval_{q}"
            argv = ["eval", "-i", GRAPH_FILE, "-s", "gdb.el", "-q", q,
                    "--samples", str(w.samples), "--runs", str(w.runs),
                    "--pairs", str(w.pairs), "--seed", seed, "-o", prefix]
            commands.append(Command(
                f"eval.{q}", argv,
                lambda prefix=prefix, q=q: checks.check_eval(prefix, q),
                (prefix + ".json", prefix + ".csv"),
            ))
        return commands

    # -- one call ------------------------------------------------------------

    def call(self, command: Command, tracer=None) -> float:
        """Time one call of the command, check its outputs; returns seconds."""
        self.attempted += 1
        err = io.StringIO()
        span = tracer.span(f"cli.{command.argv[0]}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with span:
                    rc = cli.main(command.argv)
                    if rc == 0 and command.then is not None:
                        command.then()
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is one failed operation; the run goes on
                rc = "exception"
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        problems = [f"exit code {rc}: {err.getvalue().strip()}"] if rc != 0 else command.check()
        for path in command.outputs if not problems else ():
            digest = checks.sha256(path)
            if self.hashes.setdefault(path, digest) != digest:
                problems.append(f"{path} differs from an earlier repeat")
        if problems:
            self.failures.append(f"{command.label}: {'; '.join(problems)}")
            print(f"perfbench: FAILED {command.label}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    # -- passes --------------------------------------------------------------

    def untraced_pass(self) -> None:
        for command in self.commands:
            self.times[command.label].append(self.call(command))
            if median(self.times[command.label]) >= CHEAP_SECONDS:
                for filler in self.commands:
                    ts = self.times.get(filler.label)
                    if ts and median(ts) < CHEAP_SECONDS:
                        self.times[filler.label].append(self.call(filler))

    def traced_pass(self) -> tuple[Tracer, dict[str, float]]:
        tracer = Tracer()
        with tracer.installed():
            times = {c.label: self.call(c, tracer) for c in self.commands}
        return tracer, times

    def _read_json(self, path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def manifests(self) -> dict:
        return {m: self._read_json(f"{m}.el.manifest.json")
                for m in self.w.default_rule_methods()}

    def summaries(self) -> dict:
        return {q: self._read_json(f"eval_{q}.json") for q in self.w.queries}


def measure(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Run the workload in the current directory; returns the run's report."""
    s = Session(w, seed)
    start = time.perf_counter()
    passes, last = 0, 0.0
    # A traced run keeps room for its traced pass, which takes about as long.
    reserve = 2 if traced else 1
    while passes == 0 or time.perf_counter() - start + reserve * last <= seconds:
        began = time.perf_counter()
        s.untraced_pass()
        last = time.perf_counter() - began
        passes += 1

    report = {
        "passes": passes,
        "commands": {
            label: {"median_s": median(ts), "samples": len(ts), "calls_s": ts}
            for label, ts in s.times.items()
        },
    }
    if s.failures:
        report["metrics"] = {}
    elif traced:
        tracer, traced_times = s.traced_pass()
        untraced = sum(median(s.times[label]) for label in traced_times)
        overhead = sum(traced_times.values()) / untraced
        report["metrics"] = _with_units(
            metrics.layer_values(w, tracer, overhead), metrics.layer_units(w)
        )
        report["traced_commands_s"] = traced_times
    else:
        values = metrics.e2e_values(w, s.times, s.manifests(), s.summaries())
        report["metrics"] = _with_units(values, metrics.e2e_units(w))
    report.update(attempted=s.attempted, failures=s.failures, hashes=dict(sorted(s.hashes.items())))
    return report


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
