"""The graded product, the low-mode ideal, and the differential-operator image.

The structural facts under test: zhu_reduce kills exactly the span of low
modes (so the product descends), the induced algebra is the Weyl algebra with
a central symbol adjoined, and the nine generating-relation families hold.
"""

import random
from fractions import Fraction

import pytest

from tcdo.modespace import (
    LAURENT,
    POLY,
    FreeState,
    Monomial,
    apply_mode,
    gen_a,
    gen_b,
    gen_lstar,
    ground,
    normal_forms,
    random_state,
    translation,
    vacuum,
)
from tcdo.zhu import (
    DiffOp,
    GradingError,
    check_alpha_relations,
    check_zhu_of_tcdo_chart,
    diffop,
    diffop_one,
    zhu_reduce,
    zhu_star,
)

from references import ref_zhu_reduce, weight_components, zhu_star_linear, zhu_star_n

SEED = 42

V1_POOL = [
    gen_a(),
    gen_lstar(),
    FreeState({Monomial(amodes=(-1,), power=2): 1}),
    FreeState({Monomial(lmodes=(-1,), power=1): 1}),
    FreeState({Monomial(bmodes=(-2,), power=1): 1}),
]


def rand_homogeneous(rng, wmax):
    while True:
        comps = weight_components(random_state(rng, wmax, max_terms=2))
        if comps:
            return list(comps.values())[rng.randrange(len(comps))]


def low_mode_element(rng, w=None):
    """A sample from the spanning set of the low-mode ideal."""
    if w is None:
        w = random_state(rng, 2)
    if rng.random() < 0.5:
        f = ground(rng.randint(0, 2))
        return apply_mode(f, rng.randint(-3, -2), w)
    y = rng.choice(V1_POOL)
    n = rng.randint(-3, -2)
    return apply_mode(y, n, w) + apply_mode(y, n + 1, w)


def test_diffop_weyl_algebra():
    d, x = diffop(p=1), diffop(k=1)
    assert d * x - x * d == diffop_one()
    assert d * diffop(k=3) == diffop(k=3, p=1) + diffop(k=2, c=3)
    lam = diffop(e=1)
    assert lam * d == d * lam
    # Laurent symbols: d x^-1 = x^-1 d - x^-2
    assert d * diffop(k=-1) == diffop(k=-1, p=1) + diffop(k=-2, c=-1)


def test_zhu_star_examples():
    a, x = gen_a(), gen_b()
    # ground elements multiply
    assert zhu_star(ground(2), ground(1)) == ground(3)
    # weight-1 elements pick up the zero mode
    assert zhu_star(a, x) == apply_mode(a, -1, x) + vacuum()
    # the Weyl relation, already at state level
    assert zhu_star(a, x) - zhu_star(x, a) == vacuum()


def test_zhu_star_requires_homogeneous_left_factor():
    mixed = vacuum() + gen_a()
    with pytest.raises(GradingError):
        zhu_star(mixed, vacuum())
    # the linear extension splits the components
    assert zhu_star_linear(mixed, gen_b()) == zhu_star(vacuum(), gen_b()) + zhu_star(
        gen_a(), gen_b()
    )


def test_zhu_star_n_coincidences():
    rng = random.Random(SEED)
    for _ in range(10):
        a = rand_homogeneous(rng, 2)
        b = random_state(rng, 2)
        assert zhu_star_n(a, -1, b) == zhu_star(a, b)
    f = ground(2)
    v = random_state(rng, 2)
    for n in range(-3, 2):
        assert zhu_star_n(f, n, v) == apply_mode(f, n, v)


def test_reduce_anchors():
    assert zhu_reduce(vacuum()) == diffop_one()
    assert zhu_reduce(ground(3)) == diffop(k=3)
    assert zhu_reduce(gen_a()) == diffop(p=1)
    assert zhu_reduce(FreeState({Monomial(amodes=(-2,)): 1})) == diffop(p=1, c=-1)
    assert zhu_reduce(FreeState({Monomial(amodes=(-3,)): 1})) == diffop(p=1)
    assert zhu_reduce(gen_lstar()) == diffop(e=1)
    # exact one-form states die
    for k in (1, 2, 3):
        assert zhu_reduce(translation(ground(k))).is_zero
        assert zhu_reduce(apply_mode(ground(2), -1, translation(ground(k)))).is_zero


def test_reduce_kills_all_b_modes():
    rng = random.Random(SEED + 1)
    for _ in range(20):
        mono = None
        while mono is None or not mono.bmodes:
            s = random_state(rng, 3, max_terms=1)
            mono = next(iter(s.terms))
        assert zhu_reduce(FreeState({mono: 1})).is_zero


def test_low_mode_ideal_reduces_to_zero():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        assert zhu_reduce(low_mode_element(rng)).is_zero


def test_low_mode_ideal_closure():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        o = low_mode_element(rng)
        f = ground(rng.randint(0, 2))
        assert zhu_reduce(apply_mode(f, rng.randint(-2, -1), o)).is_zero
        y = rng.choice(V1_POOL)
        assert zhu_reduce(apply_mode(y, rng.randint(-2, 0), o)).is_zero


def test_star_n_lands_in_ideal_below_minus_one():
    rng = random.Random(SEED + 4)
    for _ in range(40):
        a = rand_homogeneous(rng, 2)
        b = random_state(rng, 2)
        n = rng.randint(-4, -2)
        assert zhu_reduce(zhu_star_n(a, n, b)).is_zero


def test_product_descends_to_classes():
    rng = random.Random(SEED + 5)
    done = 0
    while done < 25:
        a = rand_homogeneous(rng, 2)
        b = random_state(rng, 2)
        wa = next(iter(a.weights()))
        if wa < 1:
            continue
        src = rand_homogeneous(rng, wa - 1)
        o = apply_mode(ground(rng.randint(0, 2)), -2, src)
        if o.weights() not in ({wa}, set()):
            continue
        assert zhu_reduce(zhu_star(a + o, b)) == zhu_reduce(zhu_star(a, b))
        o_right = low_mode_element(rng)
        assert zhu_reduce(zhu_star(a, b + o_right)) == zhu_reduce(zhu_star(a, b))
        done += 1


def test_associativity_mod_ideal():
    rng = random.Random(SEED + 6)
    for _ in range(30):
        a = rand_homogeneous(rng, 2)
        b = rand_homogeneous(rng, 2)
        c = rand_homogeneous(rng, 2)
        lhs = zhu_reduce(zhu_star(a, zhu_star(b, c)))
        rhs = zhu_reduce(zhu_star_linear(zhu_star(a, b), c))
        assert lhs == rhs


def test_alpha_relation_report():
    rep = check_alpha_relations()
    assert rep.passed, rep.failures
    assert rep.checks == 54


def test_chart_zhu_report():
    rep = check_zhu_of_tcdo_chart(3)
    assert rep.passed, rep.failures
    assert rep.details["words"] == 20


def test_reduce_is_linear():
    rng = random.Random(SEED + 7)
    for _ in range(15):
        u, v = random_state(rng, 3), random_state(rng, 3)
        lhs = zhu_reduce(u + 3 * v)
        assert lhs == zhu_reduce(u) + Fraction(3) * zhu_reduce(v)


# the closed form against the rewriting rules it replaced, in every sector: the
# ground powers each ring allows and the symbolic twist (the only sector with
# lambda*-modes) besides three specialized ones
ZHU_SECTORS = [
    (ring, twist, powers)
    for ring, powers in ((POLY, range(0, 4)), (LAURENT, range(-3, 4)))
    for twist in (None, 0, 2, -3)
]


def test_closed_form_matches_the_rewriting_reference_on_every_small_monomial():
    seen = 0
    for ring, twist, powers in ZHU_SECTORS:
        for weight in range(7):
            for amodes, bmodes, lmodes, _ in normal_forms(weight, twist is None):
                for k in powers:
                    u = FreeState({Monomial(amodes, bmodes, lmodes, k): 1}, ring, twist)
                    assert zhu_reduce(u) == ref_zhu_reduce(u), u
                    seen += 1
    assert seen == 9152


def test_closed_form_matches_the_rewriting_reference_on_sums():
    rng = random.Random(SEED + 8)
    for ring, twist, _ in ZHU_SECTORS:
        for _ in range(10):
            u = random_state(rng, 5, ring, twist, max_terms=4)
            v = random_state(rng, 5, ring, twist, max_terms=4)
            w = u + Fraction(-2, 3) * v
            assert zhu_reduce(w) == ref_zhu_reduce(w)
            assert zhu_reduce(w) == zhu_reduce(u) + Fraction(-2, 3) * zhu_reduce(v)


def test_diffop_rejects_bad_keys():
    with pytest.raises(ValueError):
        DiffOp({(0, -1, 0): 1})
    with pytest.raises(ValueError):
        DiffOp({(0, 0, -2): 1})


def test_diffop_floats_are_rejected():
    with pytest.raises(TypeError):
        DiffOp({(0, 0, 0): 0.25})
    with pytest.raises(TypeError):
        0.5 * diffop_one()
