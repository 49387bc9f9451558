#!/usr/bin/env python3
"""Run the acceptance battery and print one pass/fail line per criterion.

Exit status is nonzero if any criterion fails.  The criteria run one at a
time, in order.
"""

import argparse
import sys

from siegelsums import acceptance


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    return acceptance.main()


if __name__ == "__main__":
    sys.exit(main())
