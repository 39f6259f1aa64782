"""The eight acceptance gates, one test and one printed verdict line each.

Everything is exact rational/integer arithmetic, so every comparison below is
== with tolerance 0.  Run with `pytest -s tests/test_acceptance.py` to see the
verdict lines (pytest captures stdout otherwise).
"""

import random
import time
from fractions import Fraction

import pytest

from tcdo.affine import (
    _default_mu_window,
    irreducible_char_oracle,
    restricted_verma_dim,
    verma_basis,
    verma_to_sections,
)
from tcdo.cech import cech_dims, character_check, expected_characters
from tcdo.modespace import (
    FreeState,
    Monomial,
    apply_mode,
    engine_property_suite,
    gen_a,
    gen_lstar,
    ground,
    random_state,
    vacuum,
)
from tcdo.p1tcdo import (
    Chart,
    check_gluing_morphism,
    check_involution,
    check_sl2_embedding,
    check_sl2_global,
    sections_bidegree,
    sl2_embedding,
    sugawara_image,
)
from tcdo.qseries import char_L, eta_inverse_squared
from tcdo.zhu import (
    check_alpha_relations,
    check_zhu_of_tcdo_chart,
    diffop,
    diffop_one,
    zhu_reduce,
    zhu_star,
)

N_RANGE = range(-4, 5)
WEIGHT_MAX = 4


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def cech_reports():
    start = time.perf_counter()
    reports = {n: cech_dims(n, WEIGHT_MAX) for n in N_RANGE}
    return reports, time.perf_counter() - start


def test_criterion_1_character_tables(cech_reports):
    reports, elapsed = cech_reports
    ok = all(character_check(r) for r in reports.values())
    zero_h0, zero_h1 = expected_characters(-1, WEIGHT_MAX)
    ok = ok and not any(zero_h0.coeffs) and not any(zero_h1.coeffs)
    ok = ok and reports[-1].h0_character == zero_h0
    ok = ok and reports[-1].h1_character == zero_h1
    verdict(
        1,
        ok,
        f"H^0/H^1 characters match the closed forms for n in [-4,4], "
        f"weight <= {WEIGHT_MAX} ({elapsed:.1f}s)",
    )


def test_criterion_2_euler_identity(cech_reports):
    reports, _ = cech_reports
    ok = True
    for n, rep in reports.items():
        euler = rep.h0_character - rep.h1_character
        for j in range(WEIGHT_MAX + 1):
            ok = ok and euler.coeffs[j] == (n + 1) * eta_inverse_squared(j).coeffs[j]
    verdict(2, ok, "sum_mu (h0 - h1) at weight j = (n+1) * p2(j) for j <= 4, exact")


def test_criterion_3_sugawara_image():
    ok = True
    for chart in (Chart.ZERO, Chart.INFTY):
        image = sugawara_image(sl2_embedding(chart))
        expected = FreeState(
            {
                Monomial(lmodes=(-1, -1)): Fraction(1, 2),
                Monomial(lmodes=(-2,)): -1,
            },
            image.ring,
        )
        ok = ok and image == expected
    verdict(3, ok, "e(-1)f + f(-1)e + 1/2 h(-1)h = 1/2 l*(-1)l* - l*(-2) on both charts")


def test_criterion_4_gluing_coherence():
    morphism = check_gluing_morphism(None, samples=100)
    involution = check_involution(None, weight_max=4)
    morphism_t = check_gluing_morphism(3, samples=100)
    involution_t = check_involution(3, weight_max=4)
    ok = (
        morphism.passed
        and morphism.checks >= 118  # 3x3 generator pairs at two modes + samples
        and involution.passed
        and morphism_t.passed
        and involution_t.passed
    )
    verdict(
        4,
        ok,
        f"gluing morphism ({morphism.checks}+{morphism_t.checks} checks) and "
        f"involution ({involution.checks}+{involution_t.checks} basis monomials)",
    )


def test_criterion_5_sl2_embedding():
    zero = check_sl2_embedding(Chart.ZERO)
    infty = check_sl2_embedding(Chart.INFTY)
    through = check_sl2_global()
    ok = zero.passed and infty.passed and through.passed
    verdict(
        5,
        ok,
        "level -2 brackets and pairings on both charts, matched through the gluing",
    )


def _low_mode_sample(rng):
    w = random_state(rng, 2)
    if rng.random() < 0.5:
        return apply_mode(ground(rng.randint(0, 2)), rng.randint(-3, -2), w)
    pool = (gen_a(), gen_lstar(), FreeState({Monomial(bmodes=(-2,)): 1}))
    y = pool[rng.randrange(3)]
    m = rng.randint(-3, -2)
    return apply_mode(y, m, w) + apply_mode(y, m + 1, w)


def test_criterion_6_zhu_correspondence():
    d, x = diffop(p=1), diffop(k=1)
    weyl = d * x - x * d == diffop_one()
    weyl = weyl and zhu_reduce(zhu_star(gen_a(), vacuum())) == diffop(p=1)
    relations = check_alpha_relations()
    chart = check_zhu_of_tcdo_chart(cutoff=3)

    rng = random.Random(42)
    closure = 0
    for _ in range(100):
        o = _low_mode_sample(rng)
        if not zhu_reduce(o).is_zero:
            continue
        acted = apply_mode(ground(rng.randint(0, 2)), rng.randint(-2, -1), o)
        if zhu_reduce(acted).is_zero:
            closure += 1
    ok = weyl and relations.passed and chart.passed and closure == 100
    verdict(
        6,
        ok,
        f"Weyl relation, central symbol, R1-R4 ({relations.checks} checks), "
        f"ideal closure on {closure} samples, normal forms independent to degree 3",
    )


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    chars = all(
        irreducible_char_oracle(n, 5) == char_L(n, 5) for n in range(0, 4)
    )

    dims = True
    for n in range(-3, 4):
        for d in range(0, 5):
            for mu in _default_mu_window(n, 4):
                clamped = len(sections_bidegree(Chart.ZERO, n, d, mu))
                dims = dims and restricted_verma_dim(n, d, mu) == clamped
                raw = len(sections_bidegree(Chart.ZERO, n, d, mu, tower=True))
                dims = dims and len(verma_basis(n, d, mu)) == raw

    replay = True
    for n in (-2, -3):
        table = verma_to_sections(n, 4)
        for raw, restricted, secdim, rank in table.values():
            replay = replay and rank == restricted == secdim
    elapsed = time.perf_counter() - start
    verdict(
        7,
        chars and dims and replay,
        f"depth-5 character oracle, bidegree dimensions for n in [-3,3] to depth 4, "
        f"full-rank replay for n in {{-2,-3}} ({elapsed:.1f}s)",
    )


def test_criterion_8_property_suites(cech_reports):
    reports, _ = cech_reports
    stable = all(rep.stable for rep in reports.values())
    seeds_ok = True
    for seed in (42, 7, 11, 23, 101, 2026):
        suite = engine_property_suite(samples=200, seed=seed)
        seeds_ok = seeds_ok and all(rep.passed for rep in suite)
    verdict(
        8,
        seeds_ok and stable,
        "engine property suites at 200 samples under 6 seeds, "
        "mu-window stability on the doubled window",
    )
