"""Layered benchmark of the tcdo CLI.

    python3 perfbench/run.py --workload cech-scan --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload is a fixed list of ``tcdo`` invocations (``--format json``);
the seed only shuffles their order.  Load is a closed loop with one client:
this process starts one fresh interpreter (``child.py``) at a time, so there
is never more than one busy core.

``--trace 0`` makes at least two repetitions and goes on until
``--seconds`` have passed.  A repetition is one fresh interpreter that
imports ``tcdo.cli``, runs every invocation once (the cold pass), then runs them all again in the same process with the caches full
(the warm pass).  ``cold_s`` and ``warm_s`` sum, over the invocations, the
median of each invocation's time across the repetitions, so a slow phase of
the host that hits one repetition drops out.  Import-only interpreters
between the repetitions give the ``setup_s`` samples, whose median is
reported.  Every time is scaled to a reference host speed (``calibrate.py``);
the summary line gives the raw medians too.

``--trace 1`` makes one untraced cold repetition and one traced one, and
reports the per-layer metrics of ``trace_layers.py`` (raw times, not
scaled); the spans are written to ``perfbench/out/``.

Every payload is hashed and compared with ``reference.json``; an invocation
fails if it exits nonzero, reports ``"pass": false``, differs from its stored
reference, or (with no stored reference) differs between passes of one run.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it record the
Python version, ``nproc``, the commit, the source digest and the load
average at the start of the run, and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

MIN_REPS = 2
SETUP_SPAWNS_PER_REP = 3
WARM_MIN_S = 2.0
MAX_WARM_PASSES = 5
DEADLINE_S = 170  # one workload's run ends well inside 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure (missing sources, a crashed or hung
    interpreter); no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple  # argv tuples, fixed; the seed only reorders them
    units: int  # work per pass, the numerator of units_per_s
    unit: str


def cech_scan(smoke: bool) -> Workload:
    # one block per (N, mu) over the doubled window |mu| <= 2(|n| + 2 N_max + 2)
    weight_max, ks = (1, range(-1, 2)) if smoke else (4, range(-4, 5))
    invs = tuple(("cech", "--n", str(k), "--weight-max", str(weight_max), "--format", "json") for k in ks)
    units = sum((weight_max + 1) * (4 * (abs(k) + 2 * weight_max + 2) + 1) for k in ks)
    return Workload("cech-scan", invs, units, "blocks")


def pbw_oracle(smoke: bool) -> Workload:
    # irreducible_char_oracle visits (d, mu) for d <= depth and the 2 depth + n + 3
    # values of mu in its window [n - 2(depth + n + 2), n + 2 depth]
    depth, ns = (1, range(0, 2)) if smoke else (4, range(0, 4))
    invs = tuple(("affine", "char", "--n", str(n), "--depth", str(depth), "--format", "json") for n in ns)
    units = sum((depth + 1) * (2 * depth + n + 3) for n in ns)
    return Workload("pbw-oracle", invs, units, "bidegrees")


def engine_sweep(smoke: bool) -> Workload:
    # fixed engine seeds: the cost of one seed's samples varies about 2.5x
    # between seeds, so the benchmark seed must not pick them
    samples, seeds = (5, (1, 2)) if smoke else (50, (1, 2, 3, 4))
    invs = tuple(("verify-engine", "--samples", str(samples), "--seed", str(s), "--format", "json") for s in seeds)
    return Workload("engine-sweep", invs, 4 * samples * len(seeds), "identities")


WORKLOADS = {"cech-scan": cech_scan, "pbw-oracle": pbw_oracle, "engine-sweep": engine_sweep}


def ref_key(argv) -> str:
    return " ".join(argv)


def run_meta(workload: str, seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "loadavg": os.getloadavg(),
    }


def spawn(job: dict, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its result line."""
    # bytecode goes to a cache of the benchmark's own, whatever the caller's
    # PYTHONDONTWRITEBYTECODE, so set-up time is an import, not a compile
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), repr(t0)], cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a benchmark interpreter ran past the deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"a benchmark interpreter exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


class Checker:
    """Counts attempted and failed invocations across the passes of a run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, invocations, outputs) -> None:
        for argv, out in zip(invocations, outputs, strict=True):
            key = ref_key(argv)
            want = self.reference.get(key) or self.seen.setdefault(key, out["sha256"])
            self.attempted += 1
            if out["rc"] != 0 or out["pass"] is not True or out["sha256"] != want:
                self.failed += 1


def pass_seconds(reps, name, key="scaled") -> float:
    """Sum over invocations of the median of that invocation's times in every
    pass called ``name``."""
    passes = [outputs for rep in reps for n, outputs in rep if n == name]
    return sum(statistics.median(o[key] for o in samples) for samples in zip(*passes))


def setup_sample(deadline: float) -> tuple[float, float]:
    """One import-only interpreter's set-up time, scaled and raw."""
    before = calibrate.speed_sample()
    raw = spawn({}, deadline)["setup_s"]
    return raw * calibrate.scale(before, calibrate.speed_sample()), raw


def run_untraced(wl: Workload, invocations, seconds: int, checker: Checker, deadline: float):
    spawn({}, deadline)  # fills the bytecode cache
    setup, reps, rss = [], [], []
    warm_passes = 1
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        rep_start = time.monotonic()
        setup += [setup_sample(deadline) for _ in range(SETUP_SPAWNS_PER_REP)]
        res = spawn({"invocations": invocations, "passes": ["cold"] + ["warm"] * warm_passes}, deadline)
        for _, outputs in res["passes"]:
            checker.check(invocations, outputs)
        reps.append(res["passes"])
        rss.append(res["peak_rss_mb"])
        # repeat a short warm pass so that each repetition measures about
        # WARM_MIN_S of warm work
        warm_raw = pass_seconds(reps[-1:], "warm", "seconds")
        warm_passes = min(MAX_WARM_PASSES, max(1, math.ceil(WARM_MIN_S / max(warm_raw, 1e-3))))
        if time.monotonic() + (time.monotonic() - rep_start) > deadline:
            break
    cold_s = pass_seconds(reps, "cold")
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "cold_s": (cold_s, "s"),
        "warm_s": (pass_seconds(reps, "warm"), "s"),
        "units_per_s": (wl.units / cold_s, "units/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    raw = {"setup_s": statistics.median(r for _, r in setup), "cold_s": pass_seconds(reps, "cold", "seconds"),
           "warm_s": pass_seconds(reps, "warm", "seconds")}
    return metrics, {"repetitions": len(reps), "setup_samples": len(setup),
                     "raw": {k: round(v, 4) for k, v in raw.items()}}


def run_traced(wl: Workload, invocations, seed: int, checker: Checker, deadline: float):
    base = spawn({"invocations": invocations, "passes": ["cold"]}, deadline)
    checker.check(invocations, base["passes"][0][1])
    run_id = f"{wl.name}-seed{seed}-{os.getpid()}"
    traced = spawn({"invocations": invocations, "passes": ["cold"], "trace": True, "run_id": run_id,
                    "spans_out": str(OUT / f"spans-{wl.name}-seed{seed}.jsonl")}, deadline)
    checker.check(invocations, traced["passes"][0][1])
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (
        pass_seconds([traced["passes"]], "cold") / pass_seconds([base["passes"]], "cold"), "ratio")
    return metrics, {"repetitions": {"untraced": 1, "traced": 1}}


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool, reference: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[name](smoke)
    invocations = list(wl.invocations)
    random.Random(seed).shuffle(invocations)
    print(json.dumps({"meta": run_meta(name, seed)}), flush=True)
    checker = Checker(reference)
    if trace:
        metrics, info = run_traced(wl, invocations, seed, checker, deadline)
    else:
        metrics, info = run_untraced(wl, invocations, seconds, checker, deadline)
    summary = ", ".join(f"{k}={'missing' if v is None else format(v, '.6g')} {u}" for k, (v, u) in metrics.items())
    print(f"{name} seed={seed} units={wl.units} {wl.unit} {json.dumps(info)}: {summary}, "
          f"failed_ratio={checker.failed}/{checker.attempted}", flush=True)
    return {"attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}


def metric_json(value, unit) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def write_reference(deadline: float) -> None:
    """Store the sha256 of every full-size payload; the payloads must pass."""
    invocations = [list(argv) for build in WORKLOADS.values() for argv in build(False).invocations]
    res = spawn({"invocations": invocations, "passes": ["cold"]}, deadline)
    reference = {}
    for argv, out in zip(invocations, res["passes"][0][1], strict=True):
        if out["rc"] != 0 or out["pass"] is not True:
            raise BenchError(f"tcdo {ref_key(argv)} did not pass; no reference written")
        reference[ref_key(argv)] = out["sha256"]
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the sha256 of every full-size payload in reference.json")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "tcdo" / "cli.py").is_file():
            raise BenchError(f"no tcdo sources under {SRC}")
        if args.write_reference:
            write_reference(time.monotonic() + DEADLINE_S)
            return 0
        reference = json.loads(REFERENCE.read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke, reference)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for n, res in results.items():
        prefix = "" if len(results) == 1 else n + "."
        metrics.update({prefix + k: metric_json(v, u) for k, (v, u) in res["metrics"].items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
