"""Chart change, sl2 currents, Sugawara image, section enumeration.

check_involution is the arbiter for the mirror's sign conventions; the
Sugawara image is required exactly, not up to scalars.
"""

import random
from fractions import Fraction

import pytest

from tcdo.modespace import (
    LAURENT,
    FreeState,
    Monomial,
    SpecializationError,
    apply_mode,
    bigrade,
    gen_a,
    ground,
    random_state,
    vacuum,
)
from tcdo.p1tcdo import (
    Chart,
    GluingMap,
    check_gluing_morphism,
    check_involution,
    check_sl2_embedding,
    check_sl2_global,
    glue,
    include_overlap,
    overlap_basis,
    sections,
    sections_bidegree,
    sl2_embedding,
    sugawara_image,
    sugawara_zero_mode_value,
)
from tcdo.cech import mu_window

SEED = 42


def test_glue_generator_anchors():
    g = GluingMap(None)
    assert glue(ground(1), g) == ground(-1, LAURENT)
    assert glue(vacuum(), g) == vacuum(LAURENT)
    expected = FreeState(
        {
            Monomial(amodes=(-1,), power=2): -1,
            Monomial(bmodes=(-2,)): -2,
            Monomial(lmodes=(-1,), power=1): 1,
        },
        LAURENT,
    )
    assert glue(gen_a(), g) == expected
    lam = FreeState({Monomial(lmodes=(-1,)): 1})
    assert glue(lam, g) == include_overlap(lam)


def test_glue_module_transition():
    for n in (-3, 0, 2):
        g = GluingMap(n)
        assert glue(vacuum(lstar=n), g, transition_degree=n) == ground(n, LAURENT, n)
        assert glue(ground(2, lstar=n), g, transition_degree=n) == ground(
            n - 2, LAURENT, n
        )


def test_glue_twist_sector_guard():
    with pytest.raises(SpecializationError):
        glue(vacuum(), GluingMap(2))
    with pytest.raises(SpecializationError):
        glue(vacuum(lstar=1), GluingMap(2))
    with pytest.raises(SpecializationError):
        glue(vacuum(lstar=1), GluingMap(None))


def test_gluing_morphism_symbolic():
    rep = check_gluing_morphism(GluingMap(None), samples=60, seed=SEED)
    assert rep.passed, rep.failures[:3]
    assert rep.checks == 18 + 60


@pytest.mark.parametrize("n", [-2, 0, 3])
def test_gluing_morphism_specialized(n):
    rep = check_gluing_morphism(GluingMap(n), samples=40, seed=SEED)
    assert rep.passed, rep.failures[:3]
    assert rep.details["transition_degree"] == n


def test_gluing_morphism_zero_samples_warns():
    rep = check_gluing_morphism(GluingMap(None), samples=0, seed=SEED)
    assert rep.passed
    assert "warning" in rep.details


def test_involution_symbolic():
    rep = check_involution(GluingMap(None), weight_max=3)
    assert rep.passed, rep.failures[:3]


@pytest.mark.parametrize("n", [-2, 1])
def test_involution_specialized(n):
    rep = check_involution(GluingMap(n), weight_max=2)
    assert rep.passed, rep.failures[:3]


def test_glue_is_weight_preserving_and_h_negating():
    # global h-weight of a glued section is minus its intrinsic h-weight
    rng = random.Random(SEED)
    for n in (-2, 0, 3):
        g = GluingMap(n)
        for _ in range(15):
            u = random_state(rng, 3, lstar=n, max_terms=1)
            got = glue(u, g, transition_degree=n)
            if got.is_zero:
                continue
            nu, mu = bigrade(u, twist=n)
            assert bigrade(got, twist=n) == (nu, -mu)


@pytest.mark.parametrize("chart", [Chart.ZERO, Chart.INFTY])
def test_sl2_relations(chart):
    rep = check_sl2_embedding(sl2_embedding(chart))
    assert rep.passed, rep.failures[:3]
    assert rep.checks == 18


def test_sl2_embedding_rejects_overlap():
    with pytest.raises(ValueError):
        sl2_embedding(Chart.OVERLAP)


def test_sl2_global_agreement():
    rep = check_sl2_global(GluingMap(None))
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


def test_sections_zero_chart_weight_zero():
    sec = sections(Chart.ZERO, 0, 0, (-6, 0))
    powers = sorted(next(iter(s.terms)).power for s in sec)
    assert powers == [0, 1, 2, 3]
    assert all(s.lstar == 0 for s in sec)


def test_sections_overlap_single_bidegree():
    for n in (-2, 3):
        for mu in range(-4, 5):
            sec = sections_bidegree(Chart.OVERLAP, n, 0, mu)
            if (n - mu) % 2 == 0:
                assert len(sec) == 1
                assert next(iter(sec[0].terms)).power == (n - mu) // 2
            else:
                assert sec == []


def test_sections_respect_window_and_ring():
    sec = sections(Chart.ZERO, 1, 2, (-3, 3))
    for s in sec:
        nw, mu = bigrade(s, twist=1)
        assert nw <= 2 and -3 <= mu <= 3
        assert all(m.power >= 0 for m in s.terms)
    # empty window is allowed
    assert sections(Chart.ZERO, 0, 2, (5, 4)) == []
    assert sections(Chart.ZERO, 0, -1, (0, 0)) == []


def test_sections_bidegree_matches_filtered_sections():
    # the exact-weight enumeration against filtering every weight <= N, in
    # the same order (Cech kernel vectors are coordinates over this basis)
    for chart in Chart:
        for n in range(-3, 4):
            for N in range(-1, 4):
                for mu in mu_window(n, 3, 2):
                    want = [
                        s
                        for s in sections(chart, n, N, (mu, mu))
                        if bigrade(s, twist=n) == (N, mu)
                    ]
                    assert sections_bidegree(chart, n, N, mu) == want, (chart, n, N, mu)


def test_h_weight_eigenvalue_on_sections():
    # rho(h)'s zero mode is diagonal with the combinatorial h-weight
    rho = sl2_embedding(Chart.ZERO)
    for n in (-2, 0, 3):
        for s in sections(Chart.ZERO, n, 2, (n - 4, n + 4)):
            _, mu = bigrade(s, twist=n)
            assert apply_mode(rho["h"], 0, s) == mu * s


def test_overlap_basis_respects_bounds():
    for mono in overlap_basis(2, 6):
        assert mono.weight <= 2
        assert abs(mono.h_shift) <= 6
