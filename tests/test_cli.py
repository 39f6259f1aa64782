"""Command-line driver: exit codes, output schemas, and failure propagation.

Everything here runs in-process through cli.main so the negative paths can be
exercised by monkeypatching the underlying checks.
"""

import contextlib
import csv
import hashlib
import io
import json

import pytest

import tcdo.cech
import tcdo.modespace
from tcdo.cli import CECH_WEIGHT_MAX, UsageError, main, parse_n_spec


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- n-spec parsing ---------------------------------------------------------------


def test_parse_n_spec_single_and_range():
    assert parse_n_spec("3") == [3]
    assert parse_n_spec("-2..1") == [-2, -1, 0, 1]
    assert parse_n_spec("0..0") == [0]


def test_parse_n_spec_rejects_garbage_and_out_of_range():
    for bad in ("x", "1..", "..2", "2..-1", "7", "-7..0", "0..9"):
        with pytest.raises(UsageError):
            parse_n_spec(bad)


def test_parse_n_spec_custom_bounds():
    assert parse_n_spec("0..5", lo=0, hi=6) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(UsageError):
        parse_n_spec("-1", lo=0, hi=6)


# -- happy paths ------------------------------------------------------------------


def test_verify_engine_passes(capsys):
    code, out, _ = run(["verify-engine", "--samples", "12"], capsys)
    assert code == 0
    assert "PASS: tcdo verify-engine" in out
    assert "[FAIL]" not in out


def test_zhu_passes(capsys):
    code, out, _ = run(["zhu", "--samples", "20", "--cutoff", "2"], capsys)
    assert code == 0
    assert "weyl-relation" in out
    assert "[d, x] = 1" in out


def test_gluing_passes_with_integer_twist(capsys):
    code, out, _ = run(
        ["gluing", "--twist", "2", "--samples", "10", "--weight-max", "3"], capsys
    )
    assert code == 0
    assert "sl2-embedding [zero]" in out
    assert "sl2-embedding [infty]" in out
    assert "sugawara-image" in out


def test_cech_text_passes(capsys):
    code, out, _ = run(["cech", "--n", "0", "--weight-max", "2"], capsys)
    assert code == 0
    assert "h0=[1, 3, 8]" in out
    assert "euler=True" in out


def test_affine_char_passes(capsys):
    code, out, _ = run(["affine", "char", "--n", "0..1", "--depth", "2"], capsys)
    assert code == 0
    assert "irreducible-character n=0" in out
    assert "generic-irreducibility-probe" in out


def test_affine_verma_vs_sections_passes(capsys):
    code, out, _ = run(
        ["affine", "verma-vs-sections", "--n", "-2", "--depth", "2"], capsys
    )
    assert code == 0
    assert "full rank per bidegree" in out


def test_affine_singular_passes(capsys):
    code, out, _ = run(
        ["affine", "singular", "--n", "0..1", "--weight-max", "2", "--depth", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "affine singular" and payload["pass"] is True
    names = [r["name"] for r in payload["results"]]
    assert names == ["singular-vectors n=0", "cech-sl2-stability", "singular-vectors n=1", "cech-sl2-stability"]
    for n, (sing, stability) in enumerate(zip(payload["results"][::2], payload["results"][1::2])):
        assert sing["checks"] == 1 and sing["failures"] == []
        assert sing["details"]["representatives"] == [f"weight 0, h-weight {n}: (1) |0>"]
        assert sing["details"]["module_bidegrees"] == [[0, -n - 2, 1]]
        assert stability["details"] == {"n": n, "weight_max": 2}
        assert stability["passed"] and stability["checks"] > 0


def test_affine_singular_mismatch_exits_1(monkeypatch, capsys):
    # a second H^0 class breaks the verdict that both ends see one class
    real = tcdo.cech.singular_vectors_h0
    monkeypatch.setattr(tcdo.cech, "singular_vectors_h0", lambda n, w: real(n, w) * 2)
    code, out, _ = run(["affine", "singular", "--n", "1", "--weight-max", "1", "--depth", "1"], capsys)
    assert code == 1
    assert "[FAIL] singular-vectors n=1" in out
    assert "FAIL: tcdo affine" in out


# -- output formats ---------------------------------------------------------------


def test_json_payload_shape(capsys):
    code, out, _ = run(
        ["cech", "--n", "-1..0", "--weight-max", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["command", "params", "pass", "results"]
    assert payload["command"] == "cech"
    assert payload["pass"] is True
    ns = [r["n"] for r in payload["results"]]
    assert ns == [-1, 0]
    for r in payload["results"]:
        assert r["euler_check"] and r["character_check"]


def test_json_verify_engine_reports(capsys):
    code, out, _ = run(["verify-engine", "--samples", "6", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    names = [r["name"] for r in payload["results"]]
    assert names == [
        "borcherds-identity",
        "translation-covariance",
        "grading-bookkeeping",
        "h0-diagonality",
    ]
    assert all(r["passed"] for r in payload["results"])


def test_cech_csv_schema(capsys):
    code, out, _ = run(
        ["cech", "--n", "1", "--weight-max", "1", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "weight", "h_weight", "dim_h0", "dim_h1"]
    # weight-0 block of the degree-1 sheaf: two global sections at mu = +-1
    block = {(r[1], r[2]): int(r[3]) for r in rows[1:] if r[0] == "1"}
    assert block[("0", "1")] == 1
    assert block[("0", "-1")] == 1
    assert sum(v for (w, _), v in block.items() if w == "0") == 2


def test_generic_csv_schema(capsys):
    code, out, _ = run(["zhu", "--samples", "8", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "checks", "failures", "passed"]
    assert {r[0] for r in rows[1:]} == {
        "weyl-relation",
        "alpha-relations",
        "zhu-of-chart",
    }


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["verify-engine", "--samples", "4", "--format", "json", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["pass"] is True


# sha256 of the stdout of each command: a refactor must leave these payloads
# byte-identical, and only a change meant to alter a payload updates them
GOLDEN = {
    "zhu --cutoff 3 --format json": "cd7d01db12da6782ddbbbdad6971bacdeec55230359c9ab62bd82281e439d3aa",
    "gluing --twist symbolic --format json": "718198546da122788e484332d58740ad8d5f003011a6185af80b9eceffe63189",
    "gluing --twist 3 --format json": "b5f7300eb01b4a20e6f66abc1904aca948d6feb0dff1cc2cca301fe3907ee2f7",
    "cech --n 2 --weight-max 3 --format json": "e4397fc44717665036a3b2289cacd87f587704e40d343ae8e4d38e62f7d2c834",
    "cech --n 2 --weight-max 3 --format csv": "d9b4ad9d93159867e8e7091729da10af137f585dc9525c469bbb5ff12a66dc4b",
    "affine char --n 0..1 --depth 3 --format json": "e8dbfa620ababc943c5ad88f3f7b96926a920a3da7dcd2c456eddcadcd06041d",
    "verify-engine --samples 20 --seed 3 --format json": "b286c7aa2130a10770c181a044a965d4e02afba7e2e7235d462c83e7d31b9f1a",
}


def test_golden_payloads_are_byte_identical():
    got = {}
    for command in GOLDEN:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(command.split()) == 0, command
        got[command] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert got == GOLDEN


# -- usage errors -----------------------------------------------------------------


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_workers_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["cech", "--workers", "2"])
    assert exc.value.code == 2


def test_n_out_of_range_returns_2(capsys):
    code, _, err = run(["cech", "--n", "9"], capsys)
    assert code == 2
    assert "[-6, 6]" in err


def test_bad_twist_returns_2(capsys):
    code, _, err = run(["gluing", "--twist", "many"], capsys)
    assert code == 2
    assert "twist" in err


def test_negative_samples_returns_2(capsys):
    code, _, err = run(["verify-engine", "--samples", "-1"], capsys)
    assert code == 2
    assert "nonnegative" in err


def test_negative_cutoff_returns_2(capsys):
    code, out, err = run(["zhu", "--cutoff", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_affine_singular_n_out_of_range_returns_2(capsys):
    for bad in ("-1", "7"):
        code, out, err = run(["affine", "singular", "--n", bad], capsys)
        assert code == 2 and out == ""
        assert "[0, 6]" in err


def test_affine_negative_n_for_char_returns_2(capsys):
    code, _, err = run(["affine", "char", "--n", "-1"], capsys)
    assert code == 2


def test_gluing_weight_max_above_limit_returns_2(capsys):
    code, out, err = run(["gluing", "--weight-max", "5", "--samples", "1", "--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert "--weight-max 4" in err and "got 5" in err


def test_gluing_weight_max_below_limit_is_honoured(capsys):
    code, out, _ = run(["gluing", "--weight-max", "2", "--samples", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["weight_max"] == 2
    involution = next(r for r in payload["results"] if r["name"] == "gluing-involution")
    assert involution["details"]["weight_max"] == 2


def test_cech_weight_max_above_limit_returns_2(monkeypatch, capsys):
    monkeypatch.setattr(tcdo.cech, "cech_dims", lambda n, weight_max: pytest.fail("the scan ran"))
    too_deep = str(CECH_WEIGHT_MAX + 1)
    code, out, err = run(["cech", "--n", "0", "--weight-max", too_deep, "--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert f"--weight-max {CECH_WEIGHT_MAX}" in err and f"got {too_deep}" in err


def test_cech_weight_max_at_limit_reaches_the_scan(monkeypatch, capsys):
    # the scan at the limit takes minutes, so a stand-in records the call
    # and stops it once the guard has let it through
    calls = []

    class Reached(Exception):
        pass

    def reached(n, weight_max):
        calls.append((n, weight_max))
        raise Reached

    monkeypatch.setattr(tcdo.cech, "cech_dims", reached)
    with pytest.raises(Reached):
        main(["cech", "--n", "-2", "--weight-max", str(CECH_WEIGHT_MAX), "--format", "json"])
    assert calls == [(-2, CECH_WEIGHT_MAX)]


def test_unwritable_out_returns_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(["verify-engine", "--samples", "1", "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing" in err
    assert not target.exists()


def test_zero_samples_is_vacuous_pass(capsys):
    code, out, _ = run(["verify-engine", "--samples", "0"], capsys)
    assert code == 0
    assert "vacuous pass" in out


# -- failure propagation ----------------------------------------------------------


def test_broken_identity_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(tcdo.modespace, "check_borcherds", lambda *args: False)
    code, out, _ = run(["verify-engine", "--samples", "3"], capsys)
    assert code == 1
    assert "[FAIL] borcherds-identity" in out
    assert "counterexample" in out
    assert "FAIL: tcdo verify-engine" in out


def test_broken_identity_json_pass_false(monkeypatch, capsys):
    monkeypatch.setattr(tcdo.modespace, "check_borcherds", lambda *args: False)
    code, out, _ = run(
        ["verify-engine", "--samples", "3", "--format", "json"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    bad = payload["results"][0]
    assert bad["name"] == "borcherds-identity"
    assert bad["failures"]


def test_unstable_cech_scan_fails_with_payload(monkeypatch, capsys):
    real = tcdo.cech.cech_dims

    def unstable(n, weight_max):
        report = real(n, weight_max)
        report.stable = False
        return report

    monkeypatch.setattr(tcdo.cech, "cech_dims", unstable)
    code, out, _ = run(["cech", "--n", "0", "--weight-max", "1", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert sorted(payload) == ["command", "params", "pass", "results"]
    assert payload["pass"] is False
    (entry,) = payload["results"]
    assert entry["stable"] is False
    assert entry["euler_check"] is False and entry["character_check"] is False
