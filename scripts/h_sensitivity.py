#!/usr/bin/env python3
"""Trade-off curve for the entropy damping parameter h.

For each h, sparsifies one synthetic graph over a range of ratios and prints
degree MAE against relative entropy: h=1 ignores entropy growth entirely and
gets the best accuracy, h=0 refuses any entropy increase, and intermediate
values interpolate.

Example:
    python3 scripts/h_sensitivity.py --vertices 100 --density 0.25 \
        --alphas 0.1,0.2,0.4 --hs 0,0.05,0.2,1 -o h_curve.csv
"""

import argparse
import csv
import sys

from usparse import build_backbone, gdb_run, generate_synthetic, quality
from usparse.cli import _comma_list


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=100)
    parser.add_argument("--density", type=float, default=0.25)
    parser.add_argument("--alphas", default="0.1,0.2,0.4,0.6", type=_comma_list(float))
    parser.add_argument("--hs", default="0,0.01,0.05,0.2,1", type=_comma_list(float))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default="h_sensitivity.csv")
    args = parser.parse_args(argv)

    g = generate_synthetic(args.vertices, args.density, seed=args.seed)
    rows = []
    for alpha in args.alphas:
        backbone = build_backbone(g, alpha, seed=args.seed)
        for h in args.hs:
            out, info = gdb_run(g, backbone, h=h)
            scores = quality(g, out)
            rows.append(
                {
                    "alpha": alpha,
                    "h": h,
                    "mae_degree": scores["degree_mae"],
                    "relative_entropy": scores["relative_entropy"],
                    "sweeps": info["sweeps"],
                }
            )
            print(f"alpha={alpha:g} h={h:g}: MAE {rows[-1]['mae_degree']:.4g}, "
                  f"relative entropy {rows[-1]['relative_entropy']:.4g}")
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
