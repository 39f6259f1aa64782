"""Chart change, sl2 currents, Sugawara image, section enumeration.

check_involution is the arbiter for the mirror's sign conventions; the
Sugawara image is required exactly, not up to scalars.
"""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest

import tcdo.modespace
import tcdo.p1tcdo
from tcdo import clear_caches
from tcdo.modespace import (
    LAURENT,
    POLY,
    FreeState,
    Monomial,
    _terms,
    apply_mode,
    binom,
    gen_a,
    ground,
    normal_forms,
    random_state,
    vacuum,
)
from tcdo.p1tcdo import (
    Chart,
    _glue_mono,
    _glue_table,
    _sl2_currents,
    check_gluing_morphism,
    check_involution,
    check_sl2_embedding,
    check_sl2_global,
    glue,
    include_overlap,
    sections_bidegree,
    sl2_embedding,
    sugawara_image,
    sugawara_zero_mode_value,
)
from tcdo.cech import mu_window

from references import bigrade, ref_check_involution, ref_glue_mono

SEED = 42


def test_glue_generator_anchors():
    assert glue(ground(1)) == ground(-1, LAURENT)
    assert glue(vacuum()) == vacuum(LAURENT)
    expected = FreeState(
        {
            Monomial(amodes=(-1,), power=2): -1,
            Monomial(bmodes=(-2,)): -2,
            Monomial(lmodes=(-1,), power=1): 1,
        },
        LAURENT,
    )
    assert glue(gen_a()) == expected
    lam = FreeState({Monomial(lmodes=(-1,)): 1})
    assert glue(lam) == include_overlap(lam)


def test_glue_module_transition():
    # the sector fixes the line-bundle transition: y^j goes to x^(n - j)
    for n in (-3, 0, 2):
        assert glue(vacuum(lstar=n)) == ground(n, LAURENT, n)
        assert glue(ground(2, lstar=n)) == ground(n - 2, LAURENT, n)


def test_gluing_morphism_symbolic():
    rep = check_gluing_morphism(None, samples=60, seed=SEED)
    assert rep.passed, rep.failures[:3]
    assert rep.checks == 18 + 60
    assert rep.details["transition_degree"] == 0


@pytest.mark.parametrize("n", [-2, 0, 3])
def test_gluing_morphism_specialized(n):
    rep = check_gluing_morphism(n, samples=40, seed=SEED)
    assert rep.passed, rep.failures[:3]
    assert rep.details["transition_degree"] == n


def test_gluing_morphism_zero_samples_warns():
    rep = check_gluing_morphism(None, samples=0, seed=SEED)
    assert rep.passed
    assert rep.details["warning"] == "samples=0: vacuous pass"


def test_involution_symbolic():
    rep = check_involution(None, weight_max=3)
    assert rep.passed, rep.failures[:3]


@pytest.mark.parametrize("n", [-2, 1])
def test_involution_specialized(n):
    rep = check_involution(n, weight_max=2)
    assert rep.passed, rep.failures[:3]


@pytest.mark.parametrize("twist", [None, -2, 3])
def test_involution_matches_the_state_path(twist):
    # the integer round trip against glue(glue(u)) == u on states, at the
    # CLI's default weight
    rep = check_involution(twist, weight_max=4)
    assert rep.as_dict() == ref_check_involution(twist, weight_max=4).as_dict()
    assert rep.passed and rep.checks == (1118 if twist is None else 494)


@pytest.mark.parametrize("ls", [None, *range(-4, 5)])
def test_glue_shape_table_matches_the_per_power_recursion(ls):
    # every normal-form shape of weight <= 5, glued from its interpolated
    # table at each ground power of the doubled Cech window and at the
    # negative overlap powers, against the recursion run at that power (its
    # memo lives for this call only)
    powers = sorted(set(mu_window(ls or 0, 5, 2)) | set(range(-25, 0)))
    memo = {}
    for weight in range(6):
        for amodes, bmodes, lmodes, _ in normal_forms(weight, ls is None):
            for k in powers:
                mono = (amodes, bmodes, lmodes, k)
                assert dict(_terms(_glue_mono(mono, ls))) == ref_glue_mono(mono, ls, memo), mono


# the integer sectors a shape is glued in before it switches to
# interpolation, in three arrival orders: ascending from -6, descending from
# 6, and the order of `cech-scan` seed 7 in perfbench
SECTOR_ORDERS = {
    "ascending": list(range(-6, 7)),
    "descending": list(range(6, -7, -1)),
    "seed-7": [-3, 2, 3, 0, -4, 4, -1, -2, 1],
}
SHAPES = [(a, b, lm) for weight in range(6) for a, b, lm, _ in normal_forms(weight)]


@lru_cache(maxsize=None)
def _cold_tables() -> dict:
    """{n: {shape: table}} for n = -6..6 and every shape of SHAPES, each
    sector glued from cold caches, so that it is every shape's first and
    every table in it is glued directly."""
    tables = {}
    for n in range(-6, 7):
        clear_caches()
        tables[n] = {shape: _glue_table(shape, n) for shape in SHAPES}
        assert all(tcdo.p1tcdo._SECTORS[shape] == [n] for shape in SHAPES)
    return tables


def _nonzero_rows(table: tuple) -> dict:
    """A glue table as a dict, without its all-zero rows (zero sums of a
    direct gluing stay in its table)."""
    return {key: diffs for key, diffs in table if any(diffs)}


@pytest.mark.parametrize("order", SECTOR_ORDERS)
def test_shared_glue_table_matches_the_per_n_tables(order):
    # every normal-form shape of weight <= 5 is glued at the first
    # len(amodes) + 1 sectors of the order, and every other sector is
    # interpolated in n from those; read through _glue_mono at n = -6..6 and
    # at each ground power of the doubled Cech window and the negative
    # overlap powers, it must equal that sector's table glued from cold
    cold = _cold_tables()
    clear_caches()
    for shape in SHAPES:
        for n in SECTOR_ORDERS[order][: len(shape[0]) + 2]:
            _glue_mono(shape + (0,), n)
    for n in range(-6, 7):
        powers = sorted(set(mu_window(n, 5, 2)) | set(range(-25, 0)))
        for shape in SHAPES:
            for k in powers:
                weights = [binom(k, i) for i in range(len(shape[0]) + 1)]
                want = {}
                for (a, b, lm, q), diffs in cold[n][shape]:
                    c = sum(map(mul, weights, diffs))
                    if c:
                        want[(a, b, lm, q - k)] = c
                assert dict(_terms(_glue_mono(shape + (k,), n))) == want, (shape, n, k)
    # no sector past the nodes was glued directly
    assert all(tcdo.p1tcdo._SECTORS[shape] == SECTOR_ORDERS[order][: len(shape[0]) + 1] for shape in SHAPES)


def test_losing_the_glue_tables_keeps_every_sector():
    # every shape of weight <= 4 switched to interpolation, then its tables
    # dropped but its node sectors kept, as a bounded cache would: each
    # node is glued again directly, never interpolated from itself, and
    # every sector -6..6 still equals its table glued from cold
    cold = _cold_tables()
    clear_caches()
    shapes = [(a, b, lm) for weight in range(5) for a, b, lm, _ in normal_forms(weight)]
    for shape in shapes:
        for n in SECTOR_ORDERS["seed-7"][: len(shape[0]) + 2]:
            _glue_table(shape, n)
    nodes = {shape: list(tcdo.p1tcdo._SECTORS[shape]) for shape in shapes}
    _glue_table.cache_clear()
    _glue_mono.cache_clear()
    for n in range(-6, 7):
        for shape in shapes:
            assert _nonzero_rows(_glue_table(shape, n)) == _nonzero_rows(cold[n][shape]), (shape, n)
    assert {shape: tcdo.p1tcdo._SECTORS[shape] for shape in shapes} == nodes


def test_non_integer_sectors_never_reach_the_gluing():
    # a half-integral sector is refused where the state is made, before or
    # after another sector of its shape has been glued
    for _ in range(2):
        with pytest.raises(TypeError):
            glue(ground(1, lstar=Fraction(1, 2)))
        with pytest.raises(TypeError):
            glue(ground(1, lstar=2.0))
        assert glue(ground(1, lstar=2)) == ground(1, LAURENT, 2)


def test_clear_caches_empties_every_cache_and_the_sector_state():
    # a shape switched to interpolation and read in a new sector, then one
    # clear_caches leaves every cache of every loaded module empty, the
    # intern table that holds the glued keys among them
    clear_caches()
    for n in range(-2, 3):
        glue(FreeState({Monomial(amodes=(-1,), bmodes=(-2,), power=2): 1}, POLY, n))
    assert tcdo.p1tcdo._SECTORS and tcdo.modespace._MONOS
    assert tcdo.p1tcdo._SECTORS[((-1,), (-2,), ())] == [-2, -1] and _glue_table.cache_info().currsize
    clear_caches()
    assert (tcdo.p1tcdo._SECTORS, tcdo.modespace._MONOS) == ({}, [])
    cached = [
        (name, value)
        for name, module in sys.modules.items() if name.startswith("tcdo.")
        for value in vars(module).values() if hasattr(value, "cache_info")
    ]
    assert cached and [(name, v.__name__) for name, v in cached if v.cache_info().currsize] == []


def test_clear_caches_reaches_caches_behind_a_recorder(monkeypatch):
    # with recorders bound over the module names of _glue_mono and
    # _apply_mono, a gluing fills both real caches through them, and
    # clear_caches still empties both: each cache is registered where it is
    # defined, so no memo outlives the intern table its keys index
    clear_caches()
    engine, gluing = tcdo.modespace._apply_mono, tcdo.p1tcdo._glue_mono
    seen = []

    def recording(real):
        def call(*args):
            seen.append(real)
            return real(*args)
        return call

    monkeypatch.setattr(tcdo.modespace, "_apply_mono", recording(engine))
    monkeypatch.setattr(tcdo.p1tcdo, "_glue_mono", recording(gluing))
    glue(FreeState({Monomial(amodes=(-1, -1), bmodes=(-2,), power=2): 1}, POLY, 1))
    assert {engine, gluing} <= set(seen)
    assert engine.cache_info().currsize and gluing.cache_info().currsize
    clear_caches()
    assert (engine.cache_info().currsize, gluing.cache_info().currsize) == (0, 0)
    assert tcdo.modespace._MONOS == []


def test_glue_is_weight_preserving_and_h_negating():
    # global h-weight of a glued section is minus its intrinsic h-weight
    rng = random.Random(SEED)
    for n in (-2, 0, 3):
        for _ in range(15):
            u = random_state(rng, 3, lstar=n, max_terms=1)
            got = glue(u)
            if got.is_zero:
                continue
            nu, mu = bigrade(u, twist=n)
            assert bigrade(got, twist=n) == (nu, -mu)


@pytest.mark.parametrize("chart", [Chart.ZERO, Chart.INFTY])
def test_sl2_relations(chart):
    rep = check_sl2_embedding(chart)
    assert rep.passed, rep.failures[:3]
    assert rep.checks == 18


def test_sl2_embedding_rejects_overlap():
    with pytest.raises(ValueError):
        sl2_embedding(Chart.OVERLAP)


def test_sl2_global_agreement():
    rep = check_sl2_global()
    assert rep.passed, rep.failures


def test_sugawara_image_exact():
    s = sugawara_image(sl2_embedding(Chart.ZERO))
    expected = FreeState(
        {Monomial(lmodes=(-1, -1)): Fraction(1, 2), Monomial(lmodes=(-2,)): -1}
    )
    assert s == expected
    # no a- or b-modes anywhere in the image
    assert all(not m.amodes and not m.bmodes for m in s.terms)


def test_sugawara_zero_mode_regression():
    # frozen engine values; cross-checked against the affine Casimir n(n+2)/2
    for n in range(-4, 5):
        assert sugawara_zero_mode_value(n) == Fraction(n * n, 2) + n


def test_sugawara_zero_mode_value_rejects_non_scalar(monkeypatch):
    import tcdo.p1tcdo

    monkeypatch.setattr(tcdo.p1tcdo, "apply_mode", lambda w, m, u: ground(1, lstar=u.lstar))
    with pytest.raises(ValueError, match="scalar"):
        sugawara_zero_mode_value(2)


def test_sugawara_annihilates_by_positive_modes():
    s = sugawara_image(sl2_embedding(Chart.INFTY))
    for n in (-1, 2):
        u = vacuum(lstar=n)
        assert apply_mode(s, 2, u).is_zero  # strictly-positive weight mode
        assert apply_mode(s, 3, u).is_zero


# -- the filtered enumeration that normal_forms replaced, frozen as the
# reference: every weight <= budget is built, then filtered


def _ref_mode_tuples(budget, min_part):
    results = [()]
    def rec(prefix, remaining, max_part):
        for part in range(1, min(remaining, max_part) + 1):
            tup = prefix + (part,)
            results.append(tup)
            rec(tup, remaining - part, part)
    rec((), budget, budget)
    out = []
    for tup in results:
        modes = tuple(sorted(-(p + min_part - 1) for p in tup))
        out.append(modes)
    return out


def _ref_sections(chart, n, weight_max, h_window):
    """Basis states of weight <= weight_max and h-weight inside h_window."""
    if weight_max < 0:
        return []
    lo, hi = h_window
    out = []
    for amodes in _ref_mode_tuples(weight_max, 1):
        wa = sum(-m for m in amodes)
        for bmodes in _ref_mode_tuples(weight_max - wa, 2):
            shift = n + 2 * len(amodes) - 2 * len(bmodes)
            klo = (shift - hi + 1) // 2
            khi = (shift - lo) // 2
            if chart is not Chart.OVERLAP:
                klo = max(klo, 0)
            for k in range(klo, khi + 1):
                h = shift - 2 * k
                if lo <= h <= hi:
                    out.append(
                        FreeState(
                            {Monomial(amodes, bmodes, (), k): 1}, chart.ring, n
                        )
                    )
    return out


def _ref_tower_basis(chart, n, weight, mu):
    """The monomials of exact weight and h-weight with the lambda*-tower free."""
    if weight < 0:
        return []
    out = []
    for amodes in _ref_mode_tuples(weight, 1):
        wa = sum(-m for m in amodes)
        for bmodes in _ref_mode_tuples(weight - wa, 2):
            wb = sum(-m - 1 for m in bmodes)
            for lmodes in _ref_mode_tuples(weight - wa - wb, 1):
                if wa + wb + sum(-m for m in lmodes) != weight:
                    continue
                shift = n + 2 * len(amodes) - 2 * len(bmodes)
                if (shift - mu) % 2:
                    continue
                k = (shift - mu) // 2
                if chart is Chart.OVERLAP or k >= 0:
                    out.append(Monomial(amodes, bmodes, lmodes, k))
    return out


def _ref_overlap_basis(weight_max, h_bound, lstar):
    out = []
    for amodes in _ref_mode_tuples(weight_max, 1):
        wa = sum(-m for m in amodes)
        for bmodes in _ref_mode_tuples(weight_max - wa, 2):
            wb = sum(-m - 1 for m in bmodes)
            lchoices = [()] if lstar is not None else _ref_mode_tuples(weight_max - wa - wb, 1)
            for lmodes in lchoices:
                shift = 2 * len(amodes) - 2 * len(bmodes)
                for k in range((shift - h_bound + 1) // 2, (shift + h_bound) // 2 + 1):
                    out.append(Monomial(amodes, bmodes, lmodes, k))
    return out


def _window_sections(chart, n, weights, mus, tower=False):
    """sections_bidegree summed over a window of bidegrees."""
    return [m for N in weights for mu in mus for m in sections_bidegree(chart, n, N, mu, tower)]


def _overlap_window(weight_max, h_bound, lstar):
    """The overlap bases ``check_involution`` walks for sector lstar."""
    return _window_sections(Chart.OVERLAP, 0, range(weight_max + 1), range(-h_bound, h_bound + 1), lstar is None)


def test_normal_forms_are_exact_weight_shapes():
    for tower in (False, True):
        assert normal_forms(-1, tower) == ()
        for N in range(6):
            shapes = normal_forms(N, tower)
            assert len(set(shapes)) == len(shapes)
            for amodes, bmodes, lmodes, shift in shapes:
                mono = Monomial(amodes, bmodes, lmodes)
                assert mono.weight == N and mono.h_shift == shift
                assert tower or not lmodes


def test_sections_zero_chart_weight_zero():
    sec = _window_sections(Chart.ZERO, 0, [0], range(-6, 1))
    powers = sorted(m.power for m in sec)
    assert powers == [0, 1, 2, 3]
    # residue-0 specialized: no LSTAR modes, so each builds a residue-0 state
    assert all(not m.lmodes and FreeState({m: 1}, POLY, 0).lstar == 0 for m in sec)


def test_sections_overlap_single_bidegree():
    for n in (-2, 3):
        for mu in range(-4, 5):
            sec = sections_bidegree(Chart.OVERLAP, n, 0, mu)
            if (n - mu) % 2 == 0:
                assert len(sec) == 1
                assert sec[0].power == (n - mu) // 2
            else:
                assert sec == []


def test_sections_respect_window_and_ring():
    for N in range(3):
        for mu in range(-3, 4):
            for m in sections_bidegree(Chart.ZERO, 1, N, mu):
                assert (m.weight, 1 + m.h_shift) == (N, mu)
                assert FreeState({m: 1}, Chart.ZERO.ring, 1).ring == POLY and m.power >= 0
    # empty bidegrees: negative weight, odd parity, h-weight out of reach of
    # a polynomial chart (at weight 2 the largest shift is two A-modes, +4)
    assert sections_bidegree(Chart.ZERO, 0, -1, 0) == []
    assert sections_bidegree(Chart.ZERO, 0, 2, 1) == []
    assert sections_bidegree(Chart.ZERO, 0, 2, 6) == []


def test_sections_bidegree_matches_filtered_sections():
    # the exact-weight walk against filtering every weight <= N, in the same
    # order (Cech kernel vectors are coordinates over this basis)
    for chart in Chart:
        for n in range(-4, 5):
            window = mu_window(n, 5, 2)
            for N in range(-1, 6):
                want = {}
                for s in _ref_sections(chart, n, N, (window[0], window[-1])):
                    w, mu = bigrade(s, twist=n)
                    if w == N:
                        want.setdefault(mu, []).append(s)
                for mu in window:
                    got = sections_bidegree(chart, n, N, mu)
                    assert all(type(m) is Monomial for m in got)
                    assert got == [m for s in want.get(mu, []) for m in s.terms], (chart, n, N, mu)


def test_unclamped_sections_dim_matches_filtered_count():
    for chart in Chart:
        for n in range(-4, 5):
            for N in range(-1, 6):
                for mu in mu_window(n, 5, 2):
                    assert len(sections_bidegree(chart, n, N, mu, tower=True)) == len(
                        _ref_tower_basis(chart, n, N, mu)
                    ), (chart, n, N, mu)


def test_tower_sections_are_the_free_tower_monomials():
    # the count above cannot see a basis that repeats a shape's monomial in
    # place of another's (its LSTAR modes dropped, say); the set can
    for chart in Chart:
        for n in (-3, 0, 2):
            for N in range(5):
                for mu in mu_window(n, 4, 2):
                    got = sections_bidegree(chart, n, N, mu, tower=True)
                    assert len(got) == len(set(got)), (chart, n, N, mu)
                    assert set(got) == set(_ref_tower_basis(chart, n, N, mu)), (chart, n, N, mu)
                    assert all(m.weight == N and n + m.h_shift == mu for m in got)


def test_overlap_basis_matches_filtered_enumeration():
    for lstar in (None, 0, -2):
        for weight_max in range(5):
            for h_bound in (0, 3, 12):
                got = _overlap_window(weight_max, h_bound, lstar)
                want = _ref_overlap_basis(weight_max, h_bound, lstar)
                assert len(got) == len(set(got))
                assert set(got) == set(want)
            want = len(_ref_overlap_basis(weight_max, 2 * weight_max + 4, lstar))
            assert check_involution(lstar, weight_max).checks == want


def test_h_weight_eigenvalue_on_sections():
    # rho(h)'s zero mode is diagonal with the combinatorial h-weight
    rho = sl2_embedding(Chart.ZERO)
    for n in (-2, 0, 3):
        for m in _window_sections(Chart.ZERO, n, range(3), range(n - 4, n + 5)):
            s = FreeState({m: 1}, Chart.ZERO.ring, n)
            _, mu = bigrade(s, twist=n)
            assert apply_mode(rho["h"], 0, s) == mu * s


def test_overlap_basis_respects_bounds():
    for mono in _overlap_window(2, 6, None):
        assert mono.weight <= 2
        assert abs(mono.h_shift) <= 6


def test_sl2_currents_are_the_embedding_with_int_coefficients():
    for chart in (Chart.ZERO, Chart.INFTY):
        currents = _sl2_currents(chart)
        for gen, state in sl2_embedding(chart).items():
            assert dict(currents[gen]) == state.terms
            assert all(type(k) is tuple and type(c) is int for k, c in currents[gen])


def test_sl2_currents_refuse_a_non_integer_coefficient(monkeypatch):
    import tcdo.p1tcdo

    real = tcdo.p1tcdo.sl2_embedding

    def halved(chart):
        rho = real(chart)
        rho["h"] = Fraction(1, 2) * rho["h"]
        return rho

    monkeypatch.setattr(tcdo.p1tcdo, "sl2_embedding", halved)
    with pytest.raises(ValueError, match="not integral"):
        _sl2_currents(Chart.ZERO)
