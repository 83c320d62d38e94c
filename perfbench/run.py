"""Benchmark the usparse README pipeline: generate -> sparsify -> eval.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --size smoke --seconds 1 --trace 1

Every workload runs in this one process with the BLAS and OpenMP pools
pinned to one thread.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics named
in BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The full report, with every metric the workload supports, command medians,
output hashes and the machine, goes to perfbench/results/.  The exit code is
0 when every output check passed, 1 when one failed, 2 on a usage error.
"""

import os

# Pinned before numpy is imported anywhere: lp calls np.linalg.inv and dense
# matmuls, and a BLAS pool sized to the machine would make timings depend on
# whatever else the machine runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
             "USPARSE_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_fingerprint() -> str:
    """sha256 over the package and benchmark sources: identifies the code without .git."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "usparse").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _compare_hashes(report: dict, previous_path: Path) -> None:
    """Fail on hash drift within one source version; list changes across versions."""
    try:
        previous = json.loads(previous_path.read_text())
    except (OSError, ValueError):
        return
    old, new = previous.get("hashes", {}), report["hashes"]
    changed = sorted(p for p in new.keys() & old.keys() if new[p] != old[p])
    if previous.get("source_fingerprint") == report["source_fingerprint"]:
        for path in changed:
            report["failures"].append(f"{path} differs from an earlier run of the same code")
    elif changed:
        report["hash_changes"] = {"since": previous.get("source_fingerprint"), "files": changed}


def _print_report(name: str, report: dict) -> None:
    print(f"# {name}: seed {report['seed']}, {report['passes']} untraced pass(es), "
          f"{report['attempted']} operations, {len(report['failures'])} failed")
    traced = report.get("traced_commands_s", {})
    for label, c in report["commands"].items():
        extra = f", traced call {traced[label]:.4f} s" if label in traced else ""
        print(f"#   {label:<22} median {c['median_s']:.4f} s over {c['samples']} calls{extra}")
    for metric, m in report["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"#   {metric:<34} {value:>12} {m['unit']}")
    for note in report["notes"]:
        print(f"#   note: {note}")
    if "hash_changes" in report:
        print(f"#   outputs changed since source {report['hash_changes']['since'][:12]}: "
              + ", ".join(report["hash_changes"]["files"]))


def main(argv=None) -> int:
    if not (SRC / "usparse" / "__init__.py").is_file():
        return _fail(f"no usparse sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import usparse

    if Path(usparse.__file__).resolve().parent != SRC / "usparse":
        return _fail(f"imported usparse from {usparse.__file__}, not from {SRC}")

    import pipeline
    from workloads import SIZES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of " + ", ".join(SIZES["full"]) + ", or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    workloads = SIZES[args.size]
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        return _fail(f"unknown workload {args.workload!r}")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    gated = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    machine = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
               "numpy": numpy.__version__, "platform": platform.platform()}
    RESULTS_DIR.mkdir(exist_ok=True)
    attempted = failed = 0
    line_metrics = {}
    for name in names:
        work = WORK_DIR / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        os.chdir(work)
        try:
            report = pipeline.measure(workloads[name], args.seed, args.seconds, bool(args.trace))
        finally:
            os.chdir(ROOT)
        report.update(
            workload=name, size=args.size, seed=args.seed, seconds=args.seconds,
            trace=args.trace, commit=_commit(), source_fingerprint=_source_fingerprint(),
            machine=machine, threads={v: os.environ[v] for v in ("OMP_NUM_THREADS", "USPARSE_THREADS")},
            notes=["no layer has a waiting time: every phase runs on one thread with no queue"],
        )
        result_path = RESULTS_DIR / f"{name}-{args.size}-seed{args.seed}-trace{args.trace}.json"
        _compare_hashes(report, result_path)
        missing = [g for g in gated if g not in report["metrics"]]
        if missing and not report["failures"]:
            report["failures"].append(f"no value for {', '.join(missing)}")
        result_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        _print_report(name, report)
        attempted += report["attempted"]
        failed += len(report["failures"])
        prefix = f"{name}." if len(names) > 1 else ""
        line_metrics.update({prefix + g: report["metrics"][g] for g in gated if g in report["metrics"]})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": line_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
