#!/usr/bin/env python3
"""Run every verification suite back to back and summarize.

Thin driver over the tcdo CLI: engine properties, weight-zero quotient,
gluing, cohomology scan, and both affine oracles, all at one configurable
budget.  Exits nonzero if any suite fails.

    python3 scripts/verify_all.py --samples 50 --weight-max 3
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tcdo.cli import main as tcdo_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--weight-max", type=int, default=3)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    common = ["--samples", str(args.samples), "--seed", str(args.seed)]
    wm = ["--weight-max", str(args.weight_max)]
    dm = ["--depth", str(args.depth)]
    suites = [
        ["verify-engine", *common, *wm],
        ["zhu", *common],
        ["gluing", "--twist", "symbolic", *common, *wm],
        ["gluing", "--twist", "3", *common, *wm],
        ["cech", "--n", "-3..3", *common, *wm],
        ["affine", "char", "--n", "0..2", *common, *dm],
        ["affine", "verma-vs-sections", "--n", "-3..-2", *common, *dm],
    ]

    failures = []
    for argv in suites:
        label = " ".join(argv)
        start = time.perf_counter()
        code = tcdo_main(argv)
        elapsed = time.perf_counter() - start
        print(f"== exit {code} in {elapsed:.1f}s: tcdo {label}\n")
        if code != 0:
            failures.append(label)

    if failures:
        print(f"{len(failures)} suite(s) failed:")
        for label in failures:
            print(f"  tcdo {label}")
        return 1
    print(f"all {len(suites)} suites passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
