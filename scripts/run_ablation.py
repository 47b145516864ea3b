#!/usr/bin/env python3
"""Run the three-arm mining comparison and print the score table.

Usage: python scripts/run_ablation.py [--out DIR] [--workers N]
"""

import argparse
import sys

from scenemine.ablation import run_ablation
from scenemine.errors import ScenarioMiningError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="directory for per-arm JSON reports")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    try:
        outcome = run_ablation(out_dir=args.out, workers=args.workers)
    except (ScenarioMiningError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(outcome.summary_table())
    if args.out:
        print(f"reports written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
