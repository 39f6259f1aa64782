"""Command-line driver: `tcdo <command>` runs a verification suite and emits
a text, JSON, or CSV report.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the report
carries counterexamples), 2 usage or configuration error.  Given the same
flags and seed the output is identical run-to-run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import affine, cech, modespace, p1tcdo, zhu
from .p1tcdo import Chart
from .qseries import char_L
from .reports import CheckReport

CONVENTIONS = (
    "indexing: v_(m) multiplies z^(-m-1); weight indexing v_k = v_(k+weight-1)",
    "mu-window: |mu| <= |n| + 2*weight_max + 2, re-verified on a doubled window",
)

USAGE_ERROR = 2
# the deepest gluing involution check on offer: its overlap basis grows
# quickly with the weight, so a deeper request is refused, not truncated
GLUING_WEIGHT_MAX = 4
# the deepest Cech scan on offer: one n costs about 3.5x more per unit of
# weight (n = 0 took about 10 s at weight 8, 34 s at 9 and 107 s at 10 on a
# 2-core Xeon when this was sized, n = 6 about 1.4x that; 38 s at weight 10
# since the rank pivots on the highest ground power first, and 27 s and
# 411 MB since each mode shape is glued once), so weight 11 would pass
# 2 minutes per n and is refused before it starts
CECH_WEIGHT_MAX = 10

# every request ceiling, checked before any work starts: (command, mode,
# option) -> (ceiling, what the command runs up to it).  Each was sized like
# CECH_WEIGHT_MAX, so that one small n at the ceiling took about two minutes
# on a 2-core Xeon: affine singular 110 s at weight 8 and 52 s at depth 6,
# affine char 100 s at depth 7 (n = 0), verma-vs-sections 114 s at depth 7
# (n = -3).  n = 6 costs 2-3x that, and one more unit 3x to 15x.  Since the
# Sugawara spans pivot on the leading word first, the three depth ceilings
# take 5.4 s (singular), 4.7 s (char) and 12 s (verma-vs-sections); since
# the H^0 scan takes each kernel once, weight 8 takes 39 s.  The sample
# ceilings, one run each with the other flags at their defaults: gluing
# 105 s and 346 MB, affine singular 123 s at n = 0; verify-engine 38 s, but
# its caches grow by about 75 MB per 1000 samples (759 MB at the ceiling),
# so memory, not time, sets that one.
CEILINGS = {
    ("verify-engine", None, "samples"): (10_000, "verify-engine draws"),
    ("gluing", None, "samples"): (250_000, "gluing draws"),
    ("gluing", None, "weight_max"): (GLUING_WEIGHT_MAX, "gluing checks the involution"),
    ("cech", None, "weight_max"): (CECH_WEIGHT_MAX, "cech scans"),
    ("affine", "singular", "weight_max"): (8, "affine singular scans H^0"),
    ("affine", "singular", "depth_max"): (6, "affine singular scans the Verma module"),
    ("affine", "singular", "samples"): (500_000, "affine singular draws"),
    ("affine", "char", "depth_max"): (7, "affine char runs the PBW oracle"),
    ("affine", "verma-vs-sections", "depth_max"): (7, "affine verma-vs-sections replays"),
}
_FLAGS = {"weight_max": "--weight-max", "depth_max": "--depth", "samples": "--samples"}


class UsageError(ValueError):
    pass


def parse_n_spec(spec: str, lo: int = -6, hi: int = 6) -> list[int]:
    """Accept a single integer 'k' or an inclusive range 'a..b'."""
    try:
        a, b = map(int, spec.split("..", 1)) if ".." in spec else (int(spec),) * 2
    except ValueError as exc:
        raise UsageError(f"cannot parse --n value {spec!r}") from exc
    if a > b:
        raise UsageError(f"empty --n range {spec!r}")
    # the endpoints bound the range, so it is built only once they pass
    if a < lo or b > hi:
        raise UsageError(f"--n values must lie in [{lo}, {hi}], got {spec!r}")
    return list(range(a, b + 1))


# -- commands -----------------------------------------------------------------


def cmd_verify_engine(args: argparse.Namespace):
    reports = modespace.engine_property_suite(args.samples, args.seed)
    return [r.as_dict() for r in reports], all(r.passed for r in reports), None


def cmd_zhu(args: argparse.Namespace):
    weyl = CheckReport("weyl-relation", details={"statement": "[d, x] = 1"})
    d, x = zhu.diffop(p=1), zhu.diffop(k=1)
    weyl.record(d * x - x * d == zhu.diffop_one(), "[d, x] != 1 in the symbol algebra")
    reports = [weyl, zhu.check_alpha_relations(), zhu.check_zhu_of_tcdo_chart(args.cutoff)]
    return [r.as_dict() for r in reports], all(r.passed for r in reports), None


def _parse_twist(value: str):
    if value == "symbolic":
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise UsageError(f"--twist must be 'symbolic' or an integer, got {value!r}") from exc


def cmd_gluing(args: argparse.Namespace):
    twist = _parse_twist(args.twist)
    reports = [
        p1tcdo.check_gluing_morphism(twist, samples=args.samples, seed=args.seed),
        p1tcdo.check_involution(twist, weight_max=args.weight_max),
        p1tcdo.check_sl2_embedding(Chart.ZERO),
        p1tcdo.check_sl2_embedding(Chart.INFTY),
        p1tcdo.check_sl2_global(),
    ]
    sug = CheckReport("sugawara-image")
    image = p1tcdo.sugawara_image(p1tcdo.sl2_embedding(Chart.ZERO))
    expected = modespace.FreeState(
        {
            modespace.Monomial((), (), (-1, -1), 0): Fraction(1, 2),
            modespace.Monomial((), (), (-2,), 0): -1,
        },
        image.ring,
    )
    sug.record(image == expected, f"sugawara image is {image.render()}")
    sug.details["image"] = image.render()
    sug.details["statement"] = "e(-1)f + f(-1)e + 1/2 h(-1)h = 1/2 l*(-1)l* - l*(-2)"
    reports.append(sug)
    return [r.as_dict() for r in reports], all(r.passed for r in reports), None


def cmd_cech(args: argparse.Namespace):
    ns = parse_n_spec(args.n_spec)
    results = []
    csv_rows = [("n", "weight", "h_weight", "dim_h0", "dim_h1")]
    passed = True
    for n in ns:
        report = cech.cech_dims(n, args.weight_max)
        # the windowed aggregates are meaningless on an unstable scan, which
        # fails both checks without computing them
        euler_ok = report.stable and cech.euler_check(report)
        char_ok = report.stable and cech.character_check(report)
        entry = report.as_dict()
        entry["euler_check"] = euler_ok
        entry["character_check"] = char_ok
        want_h0, want_h1 = cech.expected_characters(n, args.weight_max)
        entry["expected_h0"] = list(want_h0.coeffs)
        entry["expected_h1"] = list(want_h1.coeffs)
        results.append(entry)
        passed = passed and euler_ok and char_ok
        for (N, mu), e in sorted(report.entries.items()):
            csv_rows.append((n, N, mu, e["dim_h0"], e["dim_h1"]))
    return results, passed, csv_rows


def cmd_affine(args: argparse.Namespace):
    if args.mode == "char":
        ns = parse_n_spec(args.n_spec or "0..3", lo=0, hi=6)
        results = []
        passed = True
        for n in ns:
            oracle = affine.irreducible_char_oracle(n, args.depth_max)
            closed = char_L(n, args.depth_max)
            ok = oracle == closed
            passed = passed and ok
            results.append(
                {
                    "name": f"irreducible-character n={n}",
                    "passed": ok,
                    "oracle": list(oracle.coeffs),
                    "closed_form": list(closed.coeffs),
                    "failures": []
                    if ok
                    else [f"oracle {oracle.coeffs} != closed form {closed.coeffs}"],
                }
            )
        probe = CheckReport("generic-irreducibility-probe")
        for nu in (Fraction(1, 2), Fraction(5, 3), -1):
            window = [Fraction(nu) + 2 * k for k in range(-4, 3)]
            found = affine.singular_bidegrees(nu, 2, window)
            probe.record(not found, f"unexpected singular vectors at nu={nu}: {found}")
        probe.details["statement"] = "no singular vectors found (nu = 1/2, 5/3, -1)"
        results.append(probe.as_dict())
        return results, passed and probe.passed, None

    if args.mode == "verma-vs-sections":
        ns = parse_n_spec(args.n_spec or "-3..-2")
        results = []
        passed = True
        for n in ns:
            table = affine.verma_to_sections(n, args.depth_max)
            rep = CheckReport(f"verma-to-sections n={n}", details={"depth_max": args.depth_max})
            if n < 0:
                for (d, mu), (raw, restricted, secdim, rk) in sorted(table.items()):
                    rep.record(
                        rk == restricted == secdim,
                        f"(d={d}, mu={mu}): rank {rk}, restricted {restricted}, sections {secdim}",
                    )
                rep.details["statement"] = "full rank per bidegree (isomorphism range)"
            else:
                mus = sorted({mu for _, mu in table})
                ldims = affine.irreducible_dims(n, args.depth_max, mus)
                for key, (_, _, _, rk) in sorted(table.items()):
                    rep.record(
                        rk == ldims[key],
                        f"(d={key[0]}, mu={key[1]}): rank {rk} != irreducible dim {ldims[key]}",
                    )
                rep.details["statement"] = "image dimensions equal the irreducible quotient's"
            # the free lambda*-tower lines the raw PBW count up with the sections
            for (d, mu), (raw, *_) in sorted(table.items()):
                unclamped = p1tcdo.unclamped_sections_dim(Chart.ZERO, n, d, mu)
                rep.record(
                    raw == unclamped,
                    f"(d={d}, mu={mu}): raw PBW {raw} != unclamped sections {unclamped}",
                )
            passed = passed and rep.passed
            results.append(rep.as_dict())
        return results, passed, None

    # singular: the singular vectors seen from both ends of the construction,
    # the sl2 stability of the H^0 kernel they are found in, and the premises
    # of the comparison with L_n: f_0^(n+1) v is singular, both sides share
    # the central character n(n+2)/2, and the Sugawara operators are central
    results = []
    for n in parse_n_spec(args.n_spec or "0..3", lo=0, hi=6):
        found, stability = cech.scan_h0_sl2(n, args.weight_max)
        window = [n - 2 * k for k in range(2 * args.depth_max + n + 2)]
        bidegrees = affine.singular_bidegrees(n, args.depth_max, window)
        rep = CheckReport(
            f"singular-vectors n={n}",
            details={
                "weight_max": args.weight_max,
                "depth_max": args.depth_max,
                "representatives": [
                    f"weight {N}, h-weight {mu}: {v.render()}" for N, mu, v in found
                ],
                "module_bidegrees": [list(b) for b in bidegrees],
                "statement": f"one H^0 class, at (0, {n}); one module class, at (0, {-n - 2})",
            },
        )
        rep.record(
            len(found) == 1 and found[0][:2] == (0, n) and bidegrees == [(0, -n - 2, 1)],
            f"H^0 classes at {[f[:2] for f in found]}, module classes at {bidegrees}",
        )
        free = p1tcdo.sugawara_zero_mode_value(n)
        pbw = affine.sugawara_zero_eigenvalue(n)
        want = Fraction(n * (n + 2), 2)
        zero_mode = CheckReport(
            f"sugawara-zero-mode n={n}",
            details={"statement": f"free-field T_0 = PBW T_0 = n(n+2)/2 = {want}"},
        )
        zero_mode.record(free == pbw == want, f"free-field T_0 = {free}, PBW T_0 = {pbw}")
        results += [
            rep,
            stability,
            affine.check_singular_generator(n),
            zero_mode,
        ]
    results += [
        affine.check_affine_relations(args.samples, args.seed),
        affine.check_sugawara_centrality(args.samples, args.seed),
    ]
    return [r.as_dict() for r in results], all(r.passed for r in results), None


# -- output -------------------------------------------------------------------


def _params_dict(args: argparse.Namespace) -> dict:
    out = {
        "weight_max": args.weight_max,
        "depth_max": args.depth_max,
        "samples": args.samples,
        "seed": args.seed,
    }
    if args.n_spec is not None:
        out["n"] = args.n_spec
    if args.command == "gluing":
        out["twist"] = args.twist
    if args.command == "zhu":
        out["cutoff"] = args.cutoff
    if args.mode:
        out["mode"] = args.mode
    return out


def _use_color(args: argparse.Namespace) -> bool:
    return args.out is None and sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _render_text(args: argparse.Namespace, results, passed: bool) -> str:
    green, red, reset = ("\x1b[32m", "\x1b[31m", "\x1b[0m") if _use_color(args) else ("", "", "")
    lines = [f"tcdo {args.command}" + (f" {args.mode}" if args.mode else "")]
    lines += [f"convention: {c}" for c in CONVENTIONS]
    lines.append("params: " + ", ".join(f"{k}={v}" for k, v in _params_dict(args).items()))
    lines.append("")
    for r in results:
        if "name" in r:
            ok = r.get("passed", False)
            tag = f"{green}[PASS]{reset}" if ok else f"{red}[FAIL]{reset}"
            head = f"{tag} {r['name']}"
            details = r.get("details", {})
            if "chart" in details:
                head += f" [{details['chart']}]"
            if r.get("checks"):
                head += f" ({r['checks']} checks)"
            lines.append(head)
            for key in ("statement", "image", "warning"):
                if key in details:
                    lines.append(f"       {key}: {details[key]}")
            if "oracle" in r:
                lines.append(f"       oracle:      {r['oracle']}")
                lines.append(f"       closed form: {r['closed_form']}")
            for f in r.get("failures", [])[:5]:
                lines.append(f"       counterexample: {f}")
        else:  # cech per-n entry
            ok = r["euler_check"] and r["character_check"] and r["stable"]
            tag = f"{green}[PASS]{reset}" if ok else f"{red}[FAIL]{reset}"
            lines.append(
                f"{tag} n={r['n']}: h0={r['h0_character']} h1={r['h1_character']} "
                f"stable={r['stable']} euler={r['euler_check']} characters={r['character_check']}"
            )
            if not ok:
                lines.append(f"       expected h0={r['expected_h0']} h1={r['expected_h1']}")
    lines.append("")
    lines.append(("PASS" if passed else "FAIL") + f": tcdo {args.command}")
    return "\n".join(lines)


def _render_csv(results, csv_rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if csv_rows is not None:
        writer.writerows(csv_rows)
    else:
        writer.writerow(("name", "checks", "failures", "passed"))
        for r in results:
            writer.writerow(
                (r.get("name", "?"), r.get("checks", ""), len(r.get("failures", [])), r.get("passed"))
            )
    return buf.getvalue().rstrip("\n")


def emit(args: argparse.Namespace, results, passed: bool, csv_rows) -> None:
    if args.format == "json":
        payload = {
            "command": args.command + (f" {args.mode}" if args.mode else ""),
            "params": _params_dict(args),
            "results": results,
            "pass": passed,
        }
        text = json.dumps(payload, indent=2, default=str)
    elif args.format == "csv":
        text = _render_csv(results, csv_rows)
    else:
        text = _render_text(args, results, passed)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write the report to {args.out!r}: {exc.strerror}") from exc
    else:
        print(text)


# -- argument parsing -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight-max", type=int, default=4)
    p.add_argument("--depth", dest="depth_max", type=int, default=4)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcdo",
        description="Exact verification suites for the chiral sheaf calculus on the projective line.",
    )
    parser.set_defaults(n_spec=None, twist="symbolic", cutoff=3, mode=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-engine",
        help="mode-calculus property sweep",
        description="Seeded property sweep of the mode calculus over states of conformal "
        "weight <= 3. --weight-max is accepted and echoed in params, but the sweep "
        "ignores it.",
    )
    _add_common(p)

    p = sub.add_parser("zhu", help="weight-zero associative quotient checks")
    p.add_argument("--cutoff", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("gluing", help="two-chart gluing, involution, sl2, Sugawara")
    p.add_argument("--twist", default="symbolic", help="'symbolic' or an integer residue")
    _add_common(p)

    p = sub.add_parser("cech", help="bigraded cohomology scan and character comparison")
    p.add_argument("--n", dest="n_spec", default="-4..4", help="integer or a..b range in [-6,6]")
    _add_common(p)

    p = sub.add_parser("affine", help="independent PBW oracle")
    p.add_argument("mode", choices=("char", "verma-vs-sections", "singular"))
    p.add_argument("--n", dest="n_spec", default=None, help="integer or a..b range")
    _add_common(p)

    return parser


_DISPATCH = {
    "verify-engine": cmd_verify_engine,
    "zhu": cmd_zhu,
    "gluing": cmd_gluing,
    "cech": cmd_cech,
    "affine": cmd_affine,
}


def _normalize_argv(argv: list[str]) -> list[str]:
    """Fold ``--n -3..3`` into ``--n=-3..3`` so the leading dash survives argparse."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--n" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--n={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_normalize_argv(raw))
    if min(args.samples, args.weight_max, args.depth_max, args.cutoff) < 0:
        print("error: numeric limits must be nonnegative", file=sys.stderr)
        return USAGE_ERROR
    for (command, mode, option), (ceiling, what) in CEILINGS.items():
        value = getattr(args, option)
        if (command, mode) == (args.command, args.mode) and value > ceiling:
            print(f"error: {what} up to {_FLAGS[option]} {ceiling}, got {value}", file=sys.stderr)
            return USAGE_ERROR
    try:
        results, passed, csv_rows = _DISPATCH[args.command](args)
        emit(args, results, passed, csv_rows)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
