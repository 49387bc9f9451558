#!/usr/bin/env python3
"""Report the rank-2 truncation tail observed just outside the cutoff box,
next to the predicted error exponent.  Bad input (a non-prime level, a
weight that is not an even integer >= 10, a beta that is not positive
and finite or so large that the box bound exceeds 32, or a shell modulus
whose Smith class is above the enumeration cap) exits 2 with a usage
line."""

import argparse
import sys

from siegelsums.kernels import default_beta
from siegelsums.petersson import tail_diagnostic


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m1", type=int, default=1)
    ap.add_argument("--m2", type=int, default=1)
    ap.add_argument("--level", type=int, default=3)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--beta", type=float, default=None)
    ap.add_argument("--shell-width", type=int, default=1)
    args = ap.parse_args()
    beta = args.beta if args.beta is not None else default_beta(args.k)
    try:
        rep = tail_diagnostic(args.m1, args.m2, args.level, args.k, beta,
                              shell_width=args.shell_width)
    except ValueError as exc:
        ap.error(str(exc))
    print(f"level N = {rep.level}, weight k = {rep.weight}, "
          f"beta = {rep.beta:.6f}, box bound M = {rep.m_bound}")
    print(f"shell size: {rep.shell_size}")
    print(f"observed tail: {rep.observed_tail:.6e}")
    print(f"predicted envelope N^{rep.predicted_exponent:.4f} "
          f"= {rep.predicted_envelope:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
