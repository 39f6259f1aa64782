"""Čech cohomology of the degree-n sheaf: dimensions, characters, stability."""

import pytest

import tcdo.cech
from tcdo.cech import (
    BigradedReport,
    StabilityError,
    _delta_matrix,
    cech_block,
    cech_dims,
    cech_kernel,
    character_check,
    euler_check,
    expected_characters,
    mu_window,
    scan_h0_sl2,
)
from tcdo.affine import restricted_verma_dim
import tcdo.linalg
from tcdo.linalg import _Echelon, _integer_row, coordinate_rows, kernel_basis, rank
from tcdo.modespace import FreeState, vacuum
from tcdo.p1tcdo import Chart, glue, include_overlap, sections_bidegree
from tcdo.qseries import QSeries, eta_inverse_squared

from references import rank_nullity_consistent, ref_check_sl2_stability, ref_singular_vectors_h0

WM = 3


@pytest.fixture(scope="module")
def reports():
    return {n: cech_dims(n, WM) for n in range(-4, 5)}


def test_reports_stable_and_consistent(reports):
    for n, rpt in reports.items():
        assert rpt.stable, n
        assert rank_nullity_consistent(rpt), n
        for e in rpt.entries.values():
            assert e["dim_h0"] >= 0 and e["dim_h1"] >= 0


def test_characters_match_closed_form(reports):
    for n, rpt in reports.items():
        assert character_check(rpt), n
        want_h0, want_h1 = expected_characters(n, WM)
        assert rpt.h0_character == want_h0
        assert rpt.h1_character == want_h1


def test_euler_identity(reports):
    for n, rpt in reports.items():
        assert euler_check(rpt), n
        diff = rpt.h0_character - rpt.h1_character
        for j in range(WM + 1):
            assert diff.coeff(j) == (n + 1) * eta_inverse_squared(j).coeff(j)


def test_twist_minus_one_vanishes(reports):
    rpt = reports[-1]
    zero = QSeries((0,) * (WM + 1), WM)
    assert rpt.h0_character == zero and rpt.h1_character == zero
    assert all(e["dim_h0"] == 0 and e["dim_h1"] == 0 for e in rpt.entries.values())


def test_weight_zero_blocks():
    assert cech_block(0, 0, 0)["dim_h0"] == 1
    assert cech_block(2, 0, 2)["dim_h0"] == 1
    assert cech_block(2, 0, 4)["dim_h0"] == 0
    # global polynomial sections of degree n: one per mu in {-n..n} step 2
    total = sum(cech_block(3, 0, mu)["dim_h0"] for mu in mu_window(3, 0))
    assert total == 4


def test_h0_entries_cross_check_affine(reports):
    # H^0 of a dominant twist is the irreducible quotient; its bidegree dims
    # are bounded by the restricted Verma dims (equality at the top slice)
    rpt = reports[2]
    for (N, mu), e in rpt.entries.items():
        assert e["dim_h0"] <= restricted_verma_dim(2, N, mu)
    assert rpt.entries[(0, 2)]["dim_h0"] == restricted_verma_dim(2, 0, 2)


def test_delta_matrix_matches_the_state_path():
    # every block of `tcdo cech --n -4..4 --weight-max 4` (doubled window):
    # the integer images of the gluing core against incl(s) and -glue(s) of
    # the one-term section states, as coordinate rows over the overlap basis
    blocks = 0
    for n in range(-4, 5):
        for N in range(5):
            for mu in mu_window(n, 4, 2):
                basis0, basisinf, basisov, images = _delta_matrix(n, N, mu)
                index = {m: i for i, m in enumerate(basisov)}
                states0 = [FreeState({m: 1}, Chart.ZERO.ring, n) for m in basis0]
                statesinf = [FreeState({m: 1}, Chart.INFTY.ring, n) for m in basisinf]
                want = coordinate_rows(
                    [include_overlap(s) for s in states0] + [-1 * glue(s) for s in statesinf],
                    index,
                )
                assert images == want, (n, N, mu)
                blocks += 1
    assert blocks == 2245


def test_overlap_order_keeps_every_rank():
    # every block of `tcdo cech --n -4..4 --weight-max 4` (doubled window):
    # delta over the overlap basis sorted by descending ground power, as
    # _delta_matrix numbers it, has the rank it has over the basis in the
    # order of sections_bidegree
    blocks = 0
    for n in range(-4, 5):
        for N in range(5):
            for mu in mu_window(n, 4, 2):
                basis0, basisinf, basisov, images = _delta_matrix(n, N, mu)
                plain = {m: i for i, m in enumerate(sections_bidegree(Chart.OVERLAP, n, N, mu))}
                assert sorted(plain) == sorted(basisov)
                assert [m.power for m in basisov] == sorted((m.power for m in basisov), reverse=True)
                renumbered = [{plain[basisov[k]]: c for k, c in image.items()} for image in images]
                assert rank(renumbered) == rank(images), (n, N, mu)
                blocks += 1
    assert blocks == 2245


def test_kernel_basis_feeds_the_shortest_rows_first(monkeypatch):
    # the kernel echelon of every base-window block of n = 0, weight <= 5,
    # as kernel_basis builds it, keeps strictly fewer nonzero entries than
    # the same rows fed in the order their keys first appear in the images
    # (3055 against 5525 when this was written)
    cores = []

    class Recording(_Echelon):
        def __init__(self):
            super().__init__()
            cores.append(self)

    monkeypatch.setattr(tcdo.linalg, "_Echelon", Recording)
    fill = appearance_fill = 0
    for N in range(6):
        for mu in mu_window(0, 5):
            *_, images = _delta_matrix(0, N, mu)
            cores.clear()
            kernel_basis(images)
            (core,) = cores
            fill += sum(map(len, core.rows.values()))
            rows = {}
            for j, image in enumerate(images):
                for key, c in image.items():
                    rows.setdefault(key, {})[j] = c
            plain = _Echelon()
            for row in rows.values():
                plain.add(_integer_row(row)[0])
            assert sorted(plain.rows) == sorted(core.rows), (N, mu)
            appearance_fill += sum(map(len, plain.rows.values()))
    assert fill < appearance_fill


@pytest.mark.parametrize(
    "stray",
    [
        ((), (), (-1,), 0),  # an LSTAR mode: outside the residue-n sector
        ((), (), (), 1),  # one ground power off: outside the bidegree
    ],
)
def test_delta_matrix_rejects_a_glued_key_outside_the_overlap_basis(monkeypatch, stray):
    monkeypatch.setattr(tcdo.cech, "_glue_mono", lambda mono, ls: ((stray, 1),))
    with pytest.raises(KeyError):
        _delta_matrix(0, 0, 0)
    with pytest.raises(KeyError):
        cech_block(0, 0, 0)


def test_kernel_vectors_are_cocycles():
    basis0, basisinf, kernel = cech_kernel(1, 1, 1)
    assert len(kernel) == cech_block(1, 1, 1)["dim_h0"]
    for vec in kernel:
        assert len(vec) == len(basis0) + len(basisinf)


def test_singular_vector_unique_at_ground(reports):
    for n in (0, 1, 3):
        sing, _ = scan_h0_sl2(n, 2)
        assert len(sing) == 1
        N, mu, rep = sing[0]
        assert (N, mu) == (0, n)
        assert rep == vacuum(lstar=n)


def test_sl2_stability_of_kernel():
    for n in (-2, 0, 1):
        _, rep = scan_h0_sl2(n, 1)
        assert rep.passed
        assert rep.checks > 0


@pytest.mark.parametrize("n, weight_max", [(0, 4), (1, 4), (2, 4), (3, 4), (0, 5)])
def test_scan_matches_the_two_state_path_scans(n, weight_max):
    # the reference stacks the rows of e_0 and of e, h, f at every mode
    # 1..N, so from weight 3 up it also has rows at m >= 3 that the scan
    # leaves to the four raising generators
    found, rep = scan_h0_sl2(n, weight_max)
    assert found == ref_singular_vectors_h0(n, weight_max)
    assert all(isinstance(v, FreeState) for *_, v in found)
    assert rep.as_dict() == ref_check_sl2_stability(n, weight_max).as_dict()


def test_scan_stability_matches_the_state_path_at_negative_n():
    for weight_max in range(3):
        _, rep = scan_h0_sl2(-2, weight_max)
        assert rep.as_dict() == ref_check_sl2_stability(-2, weight_max).as_dict()


def test_scan_fails_on_a_corrupted_gluing(monkeypatch):
    # the kernels come from the true delta; only the cocycle test of the
    # images sees the one corrupted coefficient
    kernels = {(N, mu): cech_kernel(0, N, mu) for N in range(3) for mu in mu_window(0, 2)}
    monkeypatch.setattr(tcdo.cech, "cech_kernel", lambda n, N, mu: kernels[N, mu])
    real = tcdo.cech._glue_mono
    calls = []

    def corrupted(mono, ls):
        out = real(mono, ls)
        calls.append(mono)
        if len(calls) > 1:
            return out
        (key, c), *rest = out
        return ((key, c + 1), *rest)

    monkeypatch.setattr(tcdo.cech, "_glue_mono", corrupted)
    _, rep = scan_h0_sl2(0, 2)
    assert calls and not rep.passed
    assert len(rep.failures) == 1


def test_unstable_report_refuses_aggregates():
    rpt = BigradedReport(n=0, weight_max=1, stable=False)
    rpt.h0_character = QSeries((1, 3), 1)
    rpt.h1_character = QSeries((0, 1), 1)
    with pytest.raises(StabilityError):
        euler_check(rpt)
    with pytest.raises(StabilityError):
        character_check(rpt)


def test_report_serialization_roundtrip(reports):
    d = reports[0].as_dict()
    assert d["n"] == 0 and d["stable"] is True
    assert d["h0_character"] == [1, 3, 8, 18]
    assert all("," in key for key in d["entries"])
