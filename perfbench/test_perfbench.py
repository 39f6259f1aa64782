"""The benchmark's own tests, on smoke-sized workloads:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("cech.blocks", "linalg.rank_entries", "linalg.span_adds", "modespace.apply_mode_calls",
          "p1tcdo.glue_calls")

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def result(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res["metrics"]


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    metrics = result(workload, 3, 0)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 5, 1), result(workload, 5, 1)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert first[m["name"]]["unit"] == m["unit"]
        assert first[m["name"]]["value"] is not None
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", ["cech-scan", "pbw-oracle"])
def test_seed_leaves_traced_totals_unchanged(workload):
    a, b = result(workload, 1, 1), result(workload, 2, 1)
    for name in COUNTS:
        assert a[name]["value"] == b[name]["value"], name


def test_traced_blocks_match_workload_units():
    assert result("cech-scan", 4, 1)["cech.blocks"]["value"] == run.cech_scan(smoke=True).units


def test_checker_counts_each_kind_of_failure():
    good = {"rc": 0, "pass": True, "sha256": "a"}
    checker = run.Checker({"ref": "a"})
    checker.check([("ref",)] * 4, [good, dict(good, sha256="b"), dict(good, rc=1), dict(good, **{"pass": False})])
    assert (checker.attempted, checker.failed) == (4, 3)
    # with no stored reference, later passes must repeat the first payload
    checker.check([("new",)] * 2, [dict(good, sha256="c"), dict(good, sha256="d")])
    assert (checker.attempted, checker.failed) == (6, 4)


def test_missing_public_name_is_reported_not_raised(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import tcdo.cech
    import tcdo.cli
    import tcdo.linalg
    from trace_layers import Tracer

    monkeypatch.delattr(tcdo.linalg, "SpanTracker")
    tracer = Tracer("test")
    tracer.install()
    try:
        assert tcdo.cli.main(["cech", "--n", "0", "--weight-max", "1", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert tcdo.cech.rank is tcdo.linalg.rank
    metrics = tracer.metrics()
    assert metrics["linalg.span_adds"][0] is None
    assert metrics["linalg.span_useful_ratio"][0] is None
    assert metrics["cech.blocks"][0] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
