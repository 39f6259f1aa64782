"""Čech cohomology of the degree-n sheaf: dimensions, characters, stability."""

import pytest

import tcdo
import tcdo.cech
import tcdo.p1tcdo
from tcdo.cech import (
    BigradedReport,
    StabilityError,
    _block_rows,
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
import tcdo.modespace
from tcdo.linalg import _Echelon, _integer_row, kernel_basis, rank
from tcdo.modespace import FreeState, Monomial, _flat, _shared, _terms, engine_property_suite, vacuum
from tcdo.p1tcdo import Chart, glue, include_overlap, sections_bidegree
from tcdo.qseries import QSeries, eta_inverse_squared

from references import (
    rank_nullity_consistent,
    ref_block_rows,
    ref_cech_dims,
    ref_cech_kernel,
    ref_check_sl2_stability,
    ref_principal_delta,
    ref_singular_vectors_h0,
)

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
            assert diff.coeffs[j] == (n + 1) * eta_inverse_squared(j).coeffs[j]


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
    # G_- is the negative-power part of glue(s) of the one-term infinity
    # section states, as coordinate rows over the overlap basis sorted by
    # descending ground power, one row per infinity monomial, and dim0
    # counts the overlap monomials with ground power >= 0
    blocks = 0
    for n in range(-4, 5):
        for N in range(5):
            for mu in mu_window(n, 4, 2):
                dim_overlap, dim0, principal = _delta_matrix(n, N, mu)
                basisinf = sections_bidegree(Chart.INFTY, n, N, -mu)
                basisov = sorted(sections_bidegree(Chart.OVERLAP, n, N, mu), key=lambda m: -m.power)
                assert (len(principal), dim_overlap) == (len(basisinf), len(basisov))
                index = {m: i for i, m in enumerate(basisov)}
                assert dim0 == sum(m.power >= 0 for m in basisov)
                glued = [glue(FreeState({m: 1}, Chart.INFTY.ring, n)) for m in basisinf]
                want = [{index[m]: c for m, c in s.terms.items() if m.power < 0} for s in glued]
                assert principal == want, (n, N, mu)
                blocks += 1
    assert blocks == 2245


def test_overlap_order_keeps_every_rank():
    # every block of `tcdo cech --n -4..4 --weight-max 4` (doubled window):
    # the overlap basis in the column order of _block_rows, as _delta_matrix
    # numbers it, is sorted by descending ground power, puts the zero-chart
    # monomials first, and G_- over it has the rank it has over the basis in
    # the order of sections_bidegree
    blocks = 0
    for n in range(-4, 5):
        for N in range(5):
            columns, negated, rows = _block_rows(n, N)
            assert len(set(columns)) == len(columns) == len(rows)
            assert negated == [-shift for *_, shift in columns]
            assert all(0 <= column < len(columns) for *_, glued in rows for column, _ in glued)
            for mu in mu_window(n, 4, 2):
                dim_overlap, dim0, principal = _delta_matrix(n, N, mu)
                basisov = [
                    Monomial(amodes, bmodes, lmodes, (n + shift - mu) // 2)
                    for amodes, bmodes, lmodes, shift in columns
                ][:dim_overlap]
                plain = {m: i for i, m in enumerate(sections_bidegree(Chart.OVERLAP, n, N, mu))}
                assert sorted(plain) == sorted(basisov)
                assert [m.power for m in basisov] == sorted((m.power for m in basisov), reverse=True)
                assert all(m.power >= 0 for m in basisov[:dim0]) and all(m.power < 0 for m in basisov[dim0:])
                renumbered = [{plain[basisov[k]]: c for k, c in image.items()} for image in principal]
                assert rank(renumbered) == rank(principal), (n, N, mu)
                blocks += 1
    assert blocks == 2245


def test_kernel_basis_feeds_the_shortest_rows_first(monkeypatch):
    # the kernel echelon of every base-window block of n = 0, weight <= 5,
    # as kernel_basis builds it, keeps strictly fewer nonzero entries than
    # the same rows fed in the order their keys first appear in the images
    # (1334 against 3745 when this was written)
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
    # the vacuum shape's table in sector 0 glues to the stray term alone; the
    # column view, built from the patched table, refuses it
    monkeypatch.setattr(tcdo.cech, "_glue_table", lambda shape, ls: ((stray, (1,)),))
    _block_rows.cache_clear()
    try:
        with pytest.raises(KeyError):
            _delta_matrix(0, 0, 0)
        with pytest.raises(KeyError):
            cech_block(0, 0, 0)
    finally:
        _block_rows.cache_clear()


def test_block_rows_match_the_per_shape_columns():
    # the certificate of the block table: for n = -6..6 and weight <= 5 it
    # holds the column numbering, negated shifts and rows that the overlap
    # columns of each weight and the glue table of each shape mapped onto
    # them give, shape by shape
    for n in range(-6, 7):
        for N in range(6):
            assert _block_rows(n, N) == ref_block_rows(n, N), (n, N)


def test_delta_matrix_matches_the_monomial_path():
    # the certificate of the column view: on every block of n = -6..6,
    # weight <= 5, over the doubled window, _delta_matrix gives the G_- rows
    # (same column numbers), dim0 and basis sizes of the monomial path that
    # indexes the glued keys of _glue_mono over the sorted overlap basis
    blocks = 0
    for n in range(-6, 7):
        for N in range(6):
            for mu in mu_window(n, 5, 2):
                _, basisov, dim0, principal = ref_principal_delta(n, N, mu)
                assert _delta_matrix(n, N, mu) == (len(basisov), dim0, principal), (n, N, mu)
                blocks += 1
    assert blocks == 4830


def test_kernel_vectors_are_cocycles():
    # every kernel vector of G_- over the infinity basis, on the blocks of
    # n = -2..2, weight <= 3, glues by the state path to the inclusion of a
    # valid polynomial zero-chart state: the pair is a cocycle of delta
    checked = 0
    for n in range(-2, 3):
        for N in range(4):
            for mu in mu_window(n, 3):
                basisinf, kernel = cech_kernel(n, N, mu)
                assert len(kernel) == cech_block(n, N, mu)["dim_h0"]
                basis0 = sections_bidegree(Chart.ZERO, n, N, mu)
                for vec in kernel:
                    assert len(vec) == len(basisinf)
                    glued = glue(FreeState(dict(zip(basisinf, vec)), Chart.INFTY.ring, n))
                    s0 = FreeState({m: glued.terms.get(m, 0) for m in basis0}, Chart.ZERO.ring, n)
                    assert include_overlap(s0) == glued, (n, N, mu)
                    checked += 1
    assert checked == 141


def test_principal_part_matches_the_full_delta():
    # the certificate of the principal part: on every block of n = -6..6,
    # weight <= 5, over the doubled window, cech_block gives the dims of
    # the full delta [I | -G] and counts the zero-chart basis in dim_c0
    blocks = 0
    for n in range(-6, 7):
        for N in range(6):
            for mu in mu_window(n, 5, 2):
                got = cech_block(n, N, mu)
                assert got == ref_cech_dims(n, N, mu), (n, N, mu)
                assert got["dim_c0"] == len(sections_bidegree(Chart.ZERO, n, N, mu))
                blocks += 1
    assert blocks == 4830


def test_kernel_vectors_match_the_full_delta():
    # on every base-window block of n = -6..6, weight <= 5, each kernel
    # vector of the full delta is (its zero half, read off the gluing, ++
    # the matching kernel vector of G_-), in the same order
    vectors = 0
    for n in range(-6, 7):
        for N in range(6):
            for mu in mu_window(n, 5):
                basis0, basisinf, want = ref_cech_kernel(n, N, mu)
                got_basisinf, kernel = cech_kernel(n, N, mu)
                assert got_basisinf == basisinf
                got = []
                for vec in kernel:
                    glued = glue(FreeState(dict(zip(basisinf, vec)), Chart.INFTY.ring, n))
                    assert set(glued.terms) <= set(basis0), (n, N, mu)
                    got.append([glued.terms.get(m, 0) for m in basis0] + vec)
                assert got == want, (n, N, mu)
                vectors += len(got)
    assert vectors == 2374


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
    # the kernels come from the true delta, and so do the zero halves the
    # first kernel vector's glue calls build; the call after them glues the
    # first image for the cocycle subtraction, and only that image's cocycle
    # test sees its one corrupted coefficient
    kernels = {(N, mu): cech_kernel(0, N, mu) for N in range(3) for mu in mu_window(0, 2)}
    monkeypatch.setattr(tcdo.cech, "cech_kernel", lambda n, N, mu: kernels[N, mu])
    first = next(vecs[0] for _, vecs in kernels.values() if vecs)
    target = sum(1 for c in first if c) + 1
    real = tcdo.cech._glue_mono
    calls = []

    def corrupted(mono, ls):
        out = real(mono, ls)
        calls.append(mono)
        if len(calls) != target:
            return out
        (key, c), *rest = _terms(out)
        return _flat([(key, c + 1), *rest])

    monkeypatch.setattr(tcdo.cech, "_glue_mono", corrupted)
    _, rep = scan_h0_sl2(0, 2)
    assert len(calls) > target and not rep.passed
    assert len(rep.failures) == 1


def test_scan_fails_on_a_corrupted_infinity_current(monkeypatch):
    # the infinity images reach the scan only through the cocycle
    # subtraction img0 - glue(imginf): with the one coefficient of the INFTY
    # f current off by one, the f images fail their cocycle test and every
    # e and h image still passes
    real = tcdo.cech._sl2_currents

    def corrupted(chart):
        currents = real(chart)
        if chart is Chart.INFTY:
            ((mono, c),) = currents["f"]
            currents = {**currents, "f": ((mono, c + 1),)}
        return currents

    monkeypatch.setattr(tcdo.cech, "_sl2_currents", corrupted)
    _, rep = scan_h0_sl2(0, 2)
    assert not rep.passed
    assert [failure for failure in rep.failures if " f_(" not in failure] == []


def test_glued_keys_are_the_intern_tables_own_tuples(monkeypatch):
    # every key of every image _glue_mono caches during a scan, from the
    # scan itself and from the tails of the glue tables, is the intern
    # table's plain tuple, so one copy of each glued monomial serves the
    # engine and every image that holds it
    tcdo.clear_caches()
    real = tcdo.p1tcdo._glue_mono
    calls = set()

    def recording(mono, ls):
        calls.add((mono, ls))
        return real(mono, ls)

    monkeypatch.setattr(tcdo.cech, "_glue_mono", recording)
    monkeypatch.setattr(tcdo.p1tcdo, "_glue_mono", recording)
    scan_h0_sl2(0, 4)
    info = real.cache_info()
    assert info.currsize == len(calls)
    keys = [key for mono, ls in calls for key, _ in _terms(real(mono, ls))]
    assert real.cache_info().misses == info.misses
    assert keys and [key for key in keys if type(key) is not tuple or _shared(key) is not key] == []


def test_engine_and_glue_memos_hold_flat_term_tuples(monkeypatch):
    # every value _apply_mono and _glue_mono cache during a property sweep
    # and a scan, from cold caches, is one flat tuple (k0, c0, k1, c1, ...):
    # an id of the intern table (_apply_mono) or the table's own tuple
    # (_glue_mono) at each even slot, an int coefficient at each odd one,
    # and no (key, coeff) pair object
    tcdo.clear_caches()
    engine, gluing = tcdo.modespace._apply_mono, tcdo.p1tcdo._glue_mono
    calls = {engine: set(), gluing: set()}

    def recording(real):
        def call(*args):
            calls[real].add(args)
            return real(*args)
        return call

    monkeypatch.setattr(tcdo.modespace, "_apply_mono", recording(engine))
    monkeypatch.setattr(tcdo.cech, "_glue_mono", recording(gluing))
    monkeypatch.setattr(tcdo.p1tcdo, "_glue_mono", recording(gluing))
    assert all(rep.passed for rep in engine_property_suite(20, 1))
    scan_h0_sl2(0, 4)
    monos = tcdo.modespace._MONOS
    key_ok = {
        engine: lambda key: type(key) is int and 0 <= key < len(monos),
        gluing: lambda key: type(key) is tuple and _shared(key) is key,
    }
    for real, seen in calls.items():
        info = real.cache_info()
        assert seen and info.currsize == len(seen), real.__name__
        bad = []
        for args in seen:
            out = real(*args)
            if not (
                type(out) is tuple and len(out) % 2 == 0
                and all(map(key_ok[real], out[::2]))
                and all(type(c) is int for c in out[1::2])
            ):
                bad.append((args, out))
        assert real.cache_info().misses == info.misses
        assert bad == [], real.__name__


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
