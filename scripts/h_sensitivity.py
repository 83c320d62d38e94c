#!/usr/bin/env python3
"""Trade-off curve for the entropy damping parameter h.

For each h, sparsifies one synthetic graph over a range of ratios and prints
degree MAE against relative entropy: h=1 ignores entropy growth entirely and
gets the best accuracy, h=0 refuses any entropy increase, and intermediate
values interpolate.  A cell that meets a domain error (an alpha below the
graph's connectivity floor, say) is written with blank metrics and the
message in its `error` column, and the sweep goes on.  A density that
generates no graph exits 1 with one error line.

Example:
    python3 scripts/h_sensitivity.py --vertices 100 --density 0.25 \
        --alphas 0.1,0.2,0.4 --hs 0,0.05,0.2,1 -o h_curve.csv
"""

import argparse
import csv
import sys

from usparse import build_backbone, gdb_run, generate_synthetic, quality
from usparse.cli import _comma_list

FIELDS = ["alpha", "h", "mae_degree", "relative_entropy", "sweeps", "error"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=100)
    parser.add_argument("--density", type=float, default=0.25)
    parser.add_argument("--alphas", default="0.1,0.2,0.4,0.6", type=_comma_list(float))
    parser.add_argument("--hs", default="0,0.01,0.05,0.2,1", type=_comma_list(float))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default="h_sensitivity.csv")
    args = parser.parse_args(argv)

    try:
        g = generate_synthetic(args.vertices, args.density, seed=args.seed)
    except ValueError as exc:  # every cell shares this graph: nothing to sweep
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = []
    for alpha in args.alphas:
        for h in args.hs:
            row = {**dict.fromkeys(FIELDS, ""), "alpha": alpha, "h": h}
            rows.append(row)
            try:
                out, info = gdb_run(g, build_backbone(g, alpha, seed=args.seed), h=h)
            except (ValueError, RuntimeError) as exc:  # domain errors: recorded, sweep goes on
                row["error"] = str(exc)
                print(f"alpha={alpha:g} h={h:g}: error: {exc}", file=sys.stderr)
                continue
            scores = quality(g, out)
            row["mae_degree"] = scores["degree_mae"]
            row["relative_entropy"] = scores["relative_entropy"]
            row["sweeps"] = info["sweeps"]
            print(f"alpha={alpha:g} h={h:g}: MAE {row['mae_degree']:.4g}, "
                  f"relative entropy {row['relative_entropy']:.4g}")
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
