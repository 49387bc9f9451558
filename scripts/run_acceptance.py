#!/usr/bin/env python3
"""Run the acceptance battery and print one pass/fail line per criterion.

Exit status is nonzero if any criterion fails.  --threads N runs up to N
criteria at once against shared caches (records are identical for any
value; the printed times include waits for the interpreter lock).
"""

import argparse
import sys

from siegelsums import acceptance


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    return acceptance.main(threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
