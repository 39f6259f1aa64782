"""Command-line driver: exit codes, output schemas, and failure propagation.

Everything here runs in-process through cli.main so the negative paths can be
exercised by monkeypatching the underlying checks.
"""

import contextlib
import csv
import hashlib
import io
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import tcdo
import tcdo.affine
import tcdo.cech
import tcdo.cli
import tcdo.modespace
import tcdo.p1tcdo
import tcdo.zhu
from tcdo.affine import verma_to_sections
from tcdo.cli import _COMMANDS, UsageError, build_parser, main, parse_n_spec
from tcdo.reports import CheckReport


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# every ceiling, (command, mode, option) -> (limit, what the command runs up
# to it), read off the command table's rows
CEILINGS = {
    (command, mode, option): ceiling
    for (command, mode), (_, _, options) in _COMMANDS.items()
    for option, ceiling in options.items()
    if ceiling is not None
}
CECH_WEIGHT_MAX = CEILINGS["cech", None, "weight_max"][0]


# -- n-spec parsing ---------------------------------------------------------------


def test_parse_n_spec_single_and_range():
    assert parse_n_spec("3") == [3]
    assert parse_n_spec("-2..1") == [-2, -1, 0, 1]
    assert parse_n_spec("0..0") == [0]


def test_parse_n_spec_rejects_garbage_and_out_of_range():
    for bad in ("x", "1..", "..2", "2..-1", "7", "-7..0", "0..9"):
        with pytest.raises(UsageError):
            parse_n_spec(bad)


def test_parse_n_spec_checks_the_bounds_before_building_the_range():
    # the endpoints are checked first, so a range far past the bounds is
    # refused without allocating it; the huge specs run only once the
    # smaller one has shown that no list is built
    tracemalloc.start()
    try:
        with pytest.raises(UsageError):
            parse_n_spec("0..3000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    for huge in ("0..100000000000", "-100000000000..0"):
        with pytest.raises(UsageError):
            parse_n_spec(huge)


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
    code, out, _ = run(["zhu", "--cutoff", "2"], capsys)
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
        ["affine", "singular", "--n", "0..1", "--weight-max", "2", "--depth", "2", "--samples", "12", "--seed", "5",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "affine singular" and payload["pass"] is True
    names = [r["name"] for r in payload["results"]]
    per_n = ["singular-vectors n={}", "cech-sl2-stability", "affine-singular-vector", "sugawara-zero-mode n={}"]
    assert names == [name.format(n) for n in (0, 1) for name in per_n] + ["affine-bracket", "affine-sugawara-central"]
    for n in (0, 1):
        sing, stability, generator, zero_mode = payload["results"][4 * n : 4 * n + 4]
        assert sing["checks"] == 1 and sing["failures"] == []
        assert sing["details"]["representatives"] == [f"weight 0, h-weight {n}: (1) |0>"]
        assert sing["details"]["module_bidegrees"] == [[0, -n - 2, 1]]
        assert stability["details"] == {"n": n, "weight_max": 2}
        assert stability["passed"] and stability["checks"] > 0
        assert generator["details"] == {"n": n}
        assert generator["passed"] and generator["checks"] == 4
        assert zero_mode["passed"] and zero_mode["checks"] == 1
        assert zero_mode["details"]["statement"].endswith(f"= {Fraction(n * (n + 2), 2)}")
    # the run-once suites take --samples and --seed
    for suite in payload["results"][8:]:
        assert suite["details"] == {"samples": 12, "seed": 5}
        assert suite["passed"] and suite["checks"] == 12


def test_affine_singular_mismatch_exits_1(monkeypatch, capsys):
    # a second H^0 class breaks the verdict that both ends see one class
    real = tcdo.cech.scan_h0_sl2

    def doubled(n, w):
        found, stability = real(n, w)
        return found * 2, stability

    monkeypatch.setattr(tcdo.cech, "scan_h0_sl2", doubled)
    code, out, _ = run(["affine", "singular", "--n", "1", "--weight-max", "1", "--depth", "1"], capsys)
    assert code == 1
    assert "[FAIL] singular-vectors n=1" in out
    assert "FAIL: tcdo affine" in out


def test_affine_singular_failing_generator_exits_1(monkeypatch, capsys):
    def failing(n):
        rep = CheckReport("affine-singular-vector", details={"n": n})
        rep.record(False, f"e_(0) on f0^{n + 1} v")
        return rep

    monkeypatch.setattr(tcdo.affine, "check_singular_generator", failing)
    code, out, _ = run(["affine", "singular", "--n", "1", "--weight-max", "1", "--depth", "1"], capsys)
    assert code == 1
    assert "[FAIL] affine-singular-vector" in out
    assert "counterexample: e_(0) on f0^2 v" in out


def test_affine_singular_wrong_sugawara_value_exits_1(monkeypatch, capsys):
    # the free-field zero mode is off by one from n(n+2)/2 = 3/2
    monkeypatch.setattr(tcdo.p1tcdo, "sugawara_zero_mode_value", lambda n: Fraction(5, 2))
    code, out, _ = run(["affine", "singular", "--n", "1", "--weight-max", "1", "--depth", "1"], capsys)
    assert code == 1
    assert "[FAIL] sugawara-zero-mode n=1" in out
    assert "counterexample: free-field T_0 = 5/2, PBW T_0 = 3/2" in out


def test_affine_verma_vs_sections_dominant_twist_passes(capsys):
    # n >= 0 compares the image with the irreducible quotient; every n also
    # compares the raw PBW count with the unclamped sections
    code, out, _ = run(
        ["affine", "verma-vs-sections", "--n", "-1..1", "--depth", "3", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    reports = payload["results"]
    assert [r["name"] for r in reports] == [f"verma-to-sections n={n}" for n in (-1, 0, 1)]
    assert reports[0]["details"]["statement"] == "full rank per bidegree (isomorphism range)"
    for n, rep in zip((-1, 0, 1), reports):
        if n >= 0:
            assert rep["details"]["statement"] == "image dimensions equal the irreducible quotient's"
        assert rep["checks"] == 2 * len(verma_to_sections(n, 3))


def test_affine_verma_vs_sections_raw_count_mismatch_exits_1(monkeypatch, capsys):
    # only the free-tower basis, the raw count's side, gains a monomial
    real = tcdo.p1tcdo.sections_bidegree

    def padded(chart, n, weight, mu, tower=False):
        out = real(chart, n, weight, mu, tower)
        return out + [tcdo.modespace.Monomial()] if tower else out

    monkeypatch.setattr(tcdo.p1tcdo, "sections_bidegree", padded)
    code, out, _ = run(["affine", "verma-vs-sections", "--n", "-2", "--depth", "1", "--format", "json"], capsys)
    assert code == 1
    (rep,) = json.loads(out)["results"]
    assert rep["passed"] is False
    assert "(d=0, mu=-2): raw PBW 1 != unclamped sections 2" in rep["failures"]


# the command reads the quotient dimension from the replay table; an error in
# either function that fills that column, irreducible_dims at n >= 0 and
# restricted_verma_dim at n < 0, must still fail the run.  Each fault puts
# the (0, n) dimension one too high.
QUOTIENT_FAULTS = {
    "irreducible_dims": (
        "0..1",
        lambda real: lambda n, d_max: {
            key: dim + (key == (0, n)) for key, dim in real(n, d_max).items()
        },
        "(d=0, mu=0): rank 1 != irreducible dim 2",
    ),
    "restricted_verma_dim": (
        "-3..-2",
        lambda real: lambda n, d, mu: real(n, d, mu) + ((d, mu) == (0, n)),
        "(d=0, mu=-3): rank 1, restricted 2, sections 1",
    ),
}


@pytest.mark.parametrize("name", list(QUOTIENT_FAULTS))
def test_affine_verma_vs_sections_wrong_quotient_dim_exits_1(name, monkeypatch, capsys):
    n_spec, fault, failure = QUOTIENT_FAULTS[name]
    monkeypatch.setattr(tcdo.affine, name, fault(getattr(tcdo.affine, name)))
    code, out, _ = run(["affine", "verma-vs-sections", "--n", n_spec, "--depth", "3", "--format", "json"], capsys)
    assert code == 1
    first = json.loads(out)["results"][0]
    assert first["passed"] is False
    assert failure in first["failures"]


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
    code, out, _ = run(["zhu", "--format", "csv"], capsys)
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
    # negative n, and shapes glued at ten or more ground powers past their samples
    "cech --n -3 --weight-max 5 --format csv": "136af4e228b747017cf46ac12fd02d92358ed82c793c60ca545c2690df339aae",
    "affine char --n 0..1 --depth 3 --format json": "e8dbfa620ababc943c5ad88f3f7b96926a920a3da7dcd2c456eddcadcd06041d",
    "verify-engine --samples 20 --seed 3 --format json": "b286c7aa2130a10770c181a044a965d4e02afba7e2e7235d462c83e7d31b9f1a",
    "affine singular --n 2 --weight-max 3 --depth 3 --format json": "d361624dcabcc23983114d598a99e3cdd1484de6b9da0e7a31992f9e7ad0ea4b",
    "affine verma-vs-sections --n -1..1 --depth 3 --format json": "863df19057b62bdb309cd7ddb80086218ef9850efa385daa589667698c424aef",
    # scans over enough sectors that shapes switch to their shared glue tables
    "cech --format json": "33977eaa8323e27039952414c16b2b978ad1e8cd71525d2ef9700548176b1e53",
    "affine singular --n 0..3 --weight-max 3 --depth 3 --format json": "901014d797bfe37fad32a81f24a4d3c3d0bea25ed12934a2cb19bc3f9e5fff71",
}


def _payload_hash(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(command.split()) == 0, command
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_golden_payloads_are_byte_identical():
    assert {command: _payload_hash(command) for command in GOLDEN} == GOLDEN


def test_cech_payloads_do_not_depend_on_the_sector_order():
    # which sectors a shape is glued in, and which read its shared table,
    # follows the order of the requests; from cold caches, the nine
    # cech-scan invocations in the perfbench seed-7 order and in reverse
    # must print the same bytes, and the pinned ones their pinned payloads
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
    commands = [f"cech --n {n} --weight-max 4 --format json" for n in (-3, 2, 3, 0, -4, 4, -1, -2, 1)]
    runs = []
    for order in (commands, commands[::-1]):
        tcdo.clear_caches()
        runs.append({command: _payload_hash(command) for command in order})
    assert runs[0] == runs[1]
    pinned = {command: reference[command] for command in commands if command in reference}
    assert pinned and {command: runs[0][command] for command in pinned} == pinned


def test_cache_stats_counts_a_cech_request_and_reads_zero_after_clear_caches():
    # one small cech request fills the engine, gluing and section caches, the
    # gluing's sector state and the intern table (which also holds the keys
    # of the glued images); cache_stats only reads them, so the payload is the
    # same bytes with or without a snapshot, and after clear_caches every
    # count it reports is zero
    command = "cech --n 0 --weight-max 2 --format json"
    tcdo.clear_caches()
    digest = _payload_hash(command)
    stats = tcdo.cache_stats()
    assert {"modespace._apply_mono", "modespace.normal_forms", "p1tcdo._glue_mono"} <= set(stats["lru"])
    assert "affine.verma_basis" in stats["lru"]
    for name in ("modespace._apply_mono", "modespace.normal_forms", "p1tcdo._glue_table", "p1tcdo._glue_mono"):
        assert stats["lru"][name].currsize and stats["lru"][name].misses, name
    for name in ("modespace._MONOS", "modespace._IDS", "modespace._REACH", "p1tcdo._SECTORS"):
        assert stats["containers"][name], name
    assert _payload_hash(command) == digest
    tcdo.clear_caches()
    stats = tcdo.cache_stats()
    assert [name for name, info in stats["lru"].items() if info.hits or info.misses or info.currsize] == []
    assert stats["containers"] and [name for name, size in stats["containers"].items() if size] == []


def test_the_parser_is_built_once_and_survives_usage_errors(capsys):
    # the tree never changes, so every call shares it; a refused request of
    # each kind leaves it fit for the next command in the same process
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["cech", "--weight-max", "x"])
    assert main(["gluing", "--samples", "250001", "--weight-max", "5"]) == 2
    assert main(["cech", "--n", "9"]) == 2
    capsys.readouterr()
    command = "zhu --cutoff 3 --format json"
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[command]


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


def test_the_block_table_holds_every_block_family_the_cli_accepts():
    # cech._block_rows keeps one entry per (n, weight): every n that
    # parse_n_spec accepts, at every weight up to the --weight-max ceiling
    # of a command that reads Cech blocks, fits in it without an eviction,
    # so raising a ceiling fails here until the table is re-sized
    lo, hi = parse_n_spec.__defaults__
    weight_max = max(CECH_WEIGHT_MAX, CEILINGS["affine", "singular", "weight_max"][0])
    assert tcdo.cech._block_rows.cache_info().maxsize >= (hi - lo + 1) * (weight_max + 1)


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


ZHU_CUTOFF_MAX = CEILINGS["zhu", None, "cutoff"][0]


def test_zhu_cutoff_above_limit_returns_2(monkeypatch, capsys):
    for name in ("check_alpha_relations", "check_zhu_of_tcdo_chart"):
        monkeypatch.setattr(tcdo.zhu, name, lambda *args: pytest.fail("the suite ran"))
    too_deep = str(ZHU_CUTOFF_MAX + 1)
    code, out, err = run(["zhu", "--cutoff", too_deep, "--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert f"--cutoff {ZHU_CUTOFF_MAX}" in err and f"got {too_deep}" in err


def test_zhu_cutoff_at_limit_reaches_the_chart_check(monkeypatch, capsys):
    # the chart check at the limit takes minutes, so a passing stand-in
    # records the cutoff it was handed
    calls = []

    def reached(cutoff):
        calls.append(cutoff)
        return CheckReport("zhu-of-chart")

    monkeypatch.setattr(tcdo.zhu, "check_zhu_of_tcdo_chart", reached)
    code, out, _ = run(["zhu", "--cutoff", str(ZHU_CUTOFF_MAX), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["cutoff"] == ZHU_CUTOFF_MAX
    assert calls == [ZHU_CUTOFF_MAX]


# the first piece of work behind each ceiling; the stand-ins below replace it
CEILING_WORK = {
    ("verify-engine", None): (tcdo.modespace, "engine_property_suite"),
    ("gluing", None): (tcdo.p1tcdo, "check_gluing_morphism"),
    ("cech", None): (tcdo.cech, "cech_dims"),
    ("affine", "singular"): (tcdo.cech, "scan_h0_sl2"),
    ("affine", "char"): (tcdo.affine, "irreducible_char_oracle"),
    ("affine", "verma-vs-sections"): (tcdo.affine, "verma_to_sections"),
    ("zhu", None): (tcdo.zhu, "check_alpha_relations"),
}
FLAGS = {
    "weight_max": "--weight-max", "depth_max": "--depth", "samples": "--samples", "seed": "--seed",
    "cutoff": "--cutoff",
}
# the numeric flags each command reads; it refuses every other one
READS = {
    ("verify-engine", None): {"--samples", "--seed"},
    ("zhu", None): {"--cutoff"},
    ("gluing", None): {"--weight-max", "--samples", "--seed"},
    ("cech", None): {"--weight-max"},
    ("affine", "char"): {"--depth"},
    ("affine", "verma-vs-sections"): {"--depth"},
    ("affine", "singular"): {"--weight-max", "--depth", "--samples", "--seed"},
}
# the common flags a command used to accept, echo in params, and ignore
IGNORED = [
    (command, mode, flag)
    for (command, mode), reads in READS.items()
    for flag in ("--weight-max", "--depth", "--samples", "--seed")
    if flag not in reads
]


def _ceiling_argv(command, mode, option, value):
    argv = [command] + ([mode] if mode else [])
    if command in ("cech", "affine"):
        argv += ["--n", "1"]
    if option != "samples" and "--samples" in READS[command, mode]:
        argv += ["--samples", "1"]
    return argv + [FLAGS[option], str(value), "--format", "json"]


# the handler main must run for each row
HANDLERS = {
    ("verify-engine", None): "cmd_verify_engine",
    ("zhu", None): "cmd_zhu",
    ("gluing", None): "cmd_gluing",
    ("cech", None): "cmd_cech",
    ("affine", "char"): "cmd_affine_char",
    ("affine", "verma-vs-sections"): "cmd_affine_verma_vs_sections",
    ("affine", "singular"): "cmd_affine_singular",
}


def test_the_command_table_matches_the_ceilings_and_the_dispatch(monkeypatch, capsys):
    assert {key: {FLAGS[o] for o in options} for key, (_, _, options) in _COMMANDS.items()} == READS
    assert len(IGNORED) == 16
    for key, (handler, text, options) in _COMMANDS.items():
        assert handler is getattr(tcdo.cli, HANDLERS[key])
        # main runs whatever handler the row holds, for the row's argv
        ran = []

        def stand_in(args, ran=ran):
            ran.append(args)
            return [], True, None

        monkeypatch.setitem(_COMMANDS, key, (stand_in, text, options))
        command, mode = key
        assert main([command] + ([mode] if mode else []) + ["--format", "csv"]) == 0
        assert [(args.command, args.mode) for args in ran] == [key]


@pytest.mark.parametrize("command, mode, flag", IGNORED, ids=[" ".join(filter(None, i)) for i in IGNORED])
def test_a_flag_the_command_does_not_read_exits_2_without_running(command, mode, flag, monkeypatch, capsys):
    module, name = CEILING_WORK[command, mode]
    monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("the work ran"))
    with pytest.raises(SystemExit) as exc:
        main([command] + ([mode] if mode else []) + [flag, "1", "--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag} 1" in err


@pytest.mark.parametrize("key", list(READS), ids=lambda key: " ".join(filter(None, key)))
def test_every_flag_a_command_reads_is_accepted(key):
    command, mode = key
    dest = {flag: option for option, flag in FLAGS.items()}
    values = {flag: i + 1 for i, flag in enumerate(sorted(READS[key]))}
    argv = [command] + ([mode] if mode else []) + [t for flag, v in values.items() for t in (flag, str(v))]
    args = build_parser().parse_args(argv)
    assert {flag: getattr(args, dest[flag]) for flag in values} == values


@pytest.mark.parametrize("key", list(CEILINGS), ids=lambda key: " ".join(filter(None, key)))
def test_request_above_a_ceiling_exits_2_without_running(key, monkeypatch, capsys):
    command, mode, option = key
    ceiling, what = CEILINGS[key]
    module, name = CEILING_WORK[command, mode]
    monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("the work ran"))
    code, out, err = run(_ceiling_argv(command, mode, option, ceiling + 1), capsys)
    assert code == 2
    assert out == ""
    assert f"{what} up to {FLAGS[option]} {ceiling}, got {ceiling + 1}" in err


@pytest.mark.parametrize("key", list(CEILINGS), ids=lambda key: " ".join(filter(None, key)))
def test_request_at_a_ceiling_reaches_the_work(key, monkeypatch):
    # the work at a ceiling takes minutes, so a stand-in records the call
    # and stops it once the guard has let it through
    command, mode, option = key
    module, name = CEILING_WORK[command, mode]
    calls = []

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        calls.append(args)
        raise Reached

    monkeypatch.setattr(module, name, reached)
    with pytest.raises(Reached):
        main(_ceiling_argv(command, mode, option, CEILINGS[key][0]))
    assert len(calls) == 1


def test_the_readme_ceiling_table_lists_every_ceiling_of_the_command_table():
    # the rows `| `command [mode] --flag` | limit | ... |` of the README table
    # headed `| request | ceiling | at the ceiling |`
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| request | ceiling | at the ceiling |") + 2
    end = lines.index("", start)
    listed = {}
    for line in lines[start:end]:
        request, limit = (cell.strip() for cell in line.strip("|").split("|")[:2])
        listed[request.strip("`")] = int(limit)
    want = {
        " ".join(filter(None, (command, mode, FLAGS[option]))): ceiling[0]
        for (command, mode, option), ceiling in CEILINGS.items()
    }
    assert listed == want


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


def test_affine_singular_zero_samples_flags_the_sampled_suites(capsys):
    code, out, _ = run(
        ["affine", "singular", "--n", "0", "--weight-max", "1", "--depth", "1", "--samples", "0", "--format", "json"],
        capsys,
    )
    assert code == 0
    sampled = [r for r in json.loads(out)["results"] if r["name"] in ("affine-bracket", "affine-sugawara-central")]
    assert len(sampled) == 2
    for suite in sampled:
        assert suite["checks"] == 0
        assert suite["details"] == {"samples": 0, "seed": 42, "warning": "samples=0: vacuous pass"}


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
