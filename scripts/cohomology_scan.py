#!/usr/bin/env python3
"""Print the bigraded cohomology table of the degree-n chiral sheaf.

For each conformal weight N up to --weight-max, one row per h-weight mu with
the block dimensions (C^0 pieces, overlap, H^0, H^1), followed by the graded
characters and the closed forms they are checked against.

    python3 scripts/cohomology_scan.py --n -2 --weight-max 3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tcdo.cech import cech_dims, euler_check, expected_characters
from tcdo.qseries import eta_inverse_squared


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=0, help="sheaf degree")
    ap.add_argument("--weight-max", type=int, default=3)
    ap.add_argument("--all-mu", action="store_true", help="include empty h-weight rows")
    args = ap.parse_args()

    report = cech_dims(args.n, args.weight_max)
    print(f"degree n = {args.n}, weights 0..{args.weight_max}")
    print(f"{'N':>3} {'mu':>4} {'c0':>4} {'cinf':>4} {'ovl':>4} {'h0':>4} {'h1':>4}")
    for (weight, mu), e in sorted(report.entries.items()):
        occupied = any(e.values())
        if not (occupied or args.all_mu):
            continue
        print(
            f"{weight:>3} {mu:>4} {e['dim_c0']:>4} {e['dim_cinf']:>4}"
            f" {e['dim_overlap']:>4} {e['dim_h0']:>4} {e['dim_h1']:>4}"
        )

    exp_h0, exp_h1 = expected_characters(args.n, args.weight_max)
    print()
    print(f"h0 character : {report.h0_character}   expected {exp_h0}")
    print(f"h1 character : {report.h1_character}   expected {exp_h1}")
    euler = report.h0_character - report.h1_character
    factor = (args.n + 1) * eta_inverse_squared(args.weight_max)
    print(f"euler        : {euler}   (n+1)/eta^2 = {factor}")

    ok = (
        report.stable
        and report.h0_character == exp_h0
        and report.h1_character == exp_h1
        and euler_check(report)
    )
    print("stable" if report.stable else "UNSTABLE WINDOW")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
