#!/usr/bin/env python3
"""Sweep the main-term residue over a range of levels and emit CSV.

Example:
    python scripts/residue_sweep.py --q1 1 --q2 1 --k 10 \
        --levels 100,316,1000,3162,10000,31623,100000

Bad input (a level that is not a finite number above 1, fewer distinct
levels than the fit's degree + 1, a q1 or q2 that is neither 1 nor a
fundamental discriminant, a pair that is not coprime, or a weight that is
not an even integer >= 10) exits 2 with a usage line.
"""

import argparse
import sys

from siegelsums.petersson import leading_coeff_fit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q1", type=int, default=1)
    ap.add_argument("--q2", type=int, default=1)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--levels", type=str,
                    default="100,316,1000,3162,10000,31623,100000")
    ap.add_argument("--poly", choices=("1-s^2", "(1-s)^2"), default="(1-s)^2")
    args = ap.parse_args()
    try:
        levels = [float(x) for x in args.levels.split(",")]
        # the fit's residues are main_term_residue at each level
        fit = leading_coeff_fit(args.q1, args.q2, args.k, levels=levels,
                                poly=args.poly)
    except ValueError as exc:
        ap.error(str(exc))
    print("N,residue")
    for n, residue in zip(fit.levels, fit.residues):
        print(f"{n},{residue!r}")
    print(f"# degree {fit.degree} fit in log N, leading coefficient "
          f"{fit.leading!r}, max residual {fit.residual:.3e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
