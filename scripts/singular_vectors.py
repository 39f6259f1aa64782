#!/usr/bin/env python3
"""Hunt for singular vectors from both ends of the construction.

Side A: classes in H^0 of the degree-n sheaf killed by every raising mode of
the affine sl2 action.  Side B: singular bidegrees of the centrally
restricted highest-weight module with the same highest weight.  For integral
n >= 0 both sides must find exactly one class beyond the highest-weight
vector itself, and the H^0 representative must be the vacuum section.

    python3 scripts/singular_vectors.py --n 2
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tcdo.affine import singular_bidegrees
from tcdo.cech import singular_vectors_h0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1, help="sheaf degree / highest weight, >= 0")
    ap.add_argument("--weight-max", type=int, default=2)
    ap.add_argument("--depth", type=int, default=2)
    args = ap.parse_args()
    if args.n < 0:
        ap.error("--n must be >= 0")

    found = singular_vectors_h0(args.n, args.weight_max)
    print(f"H^0 side (n = {args.n}, weights 0..{args.weight_max}):")
    for weight, mu, rep in found:
        print(f"  weight {weight}, h-weight {mu}: {rep.render()}")
    if not found:
        print("  none")

    window = [args.n - 2 * k for k in range(0, 2 * args.depth + args.n + 2)]
    bidegs = singular_bidegrees(args.n, args.depth, window)
    print(f"module side  (depths 0..{args.depth}):")
    for depth, mu, count in bidegs:
        print(f"  depth {depth}, h-weight {mu}: {count} class(es)")
    if not bidegs:
        print("  none")

    ok = (
        len(found) == 1
        and found[0][:2] == (0, args.n)
        and bidegs == [(0, -args.n - 2, 1)]
    )
    print("consistent" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
