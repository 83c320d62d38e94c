#!/usr/bin/env python3
"""Sweep synthetic graph density and compare sparsifier quality.

Generates random connected uncertain graphs at several densities, sparsifies
each with the selected methods at a fixed ratio, and reports degree MAE,
sampled cut MAE, and relative entropy per (density, method) cell.  A cell
that meets a domain error (an alpha below the graph's connectivity floor,
say) is written with blank metrics and the message in its `error` column,
and the sweep goes on.

Example:
    python3 scripts/density_sweep.py --vertices 100 --densities 0.15,0.3,0.5 \
        --methods gdb,emd,ni,ss --alpha 0.16 -o density_sweep.csv
"""

import argparse
import csv
import sys

from usparse import RunConfig, generate_synthetic, quality, sparsify
from usparse.cli import _at_least, _comma_list
from usparse.config import METHODS
from usparse.evaluation import DEFAULT_N_CUTS, CutProfile

FIELDS = ["density", "method", "edges", "mae_degree", "mae_cut_sampled", "relative_entropy", "error"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=100)
    parser.add_argument("--densities", default="0.15,0.3,0.5,0.9", type=_comma_list(float))
    parser.add_argument("--methods", default="gdb,emd,ni,ss", type=_comma_list(str, METHODS))
    parser.add_argument("--alpha", type=float, default=0.16)
    parser.add_argument("--cut-samples", type=_at_least(1), default=DEFAULT_N_CUTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default="density_sweep.csv")
    args = parser.parse_args(argv)

    rows = []
    for density in args.densities:
        g = generate_synthetic(args.vertices, density, seed=args.seed)
        cuts = CutProfile(g, args.cut_samples, args.seed)  # one draw for every method
        for method in args.methods:
            row = {**dict.fromkeys(FIELDS, ""), "density": density, "method": method, "edges": g.m}
            rows.append(row)
            try:
                out, _ = sparsify(g, RunConfig(method=method, alpha=args.alpha, seed=args.seed))
            except (ValueError, RuntimeError) as exc:  # domain errors: recorded, sweep goes on
                row["error"] = str(exc)
                print(f"density={density:g} {method}: error: {exc}", file=sys.stderr)
                continue
            scores = quality(g, out)
            row["mae_degree"] = scores["degree_mae"]
            row["mae_cut_sampled"] = cuts.mae(out)
            row["relative_entropy"] = scores["relative_entropy"]
            print(f"density={density:g} {method}: degree MAE {row['mae_degree']:.4g}, "
                  f"relative entropy {row['relative_entropy']:.4g}")
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
