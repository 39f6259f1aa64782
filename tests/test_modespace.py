"""Property and anchor tests for the free-field mode engine.

The deep invariant is the Borcherds identity, sampled over seeded random
states in every ground-ring/twist sector; everything else (translation
covariance, grading bookkeeping, commutator formula, specialization rules)
pins the individual moving parts.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcdo import clear_caches, modespace
from tcdo.modespace import (
    GEN_A,
    GEN_B,
    GEN_LSTAR,
    LAURENT,
    POLY,
    FreeState,
    InexactDivisionError,
    Monomial,
    RingMismatchError,
    SpecializationError,
    _apply_mono,
    _borcherds_numerators,
    _exact_div,
    apply_mode,
    binom,
    check_borcherds,
    engine_property_suite,
    gen_a,
    gen_b,
    gen_lstar,
    ground,
    linear_combination,
    normal_forms,
    random_state,
    translation,
    vacuum,
    zero,
)
from tcdo.p1tcdo import glue

from references import bigrade, commutator_sides, core_borcherds_sides, ref_borcherds_sides, weight_components

SEED = 42


def test_binom_negative_upper_index():
    # C(-1, j) = (-1)^j, C(-2, j) = (-1)^j (j+1)
    assert [binom(-1, j) for j in range(5)] == [1, -1, 1, -1, 1]
    assert [binom(-2, j) for j in range(5)] == [1, -2, 3, -4, 5]
    assert binom(3, 5) == 0
    with pytest.raises(ValueError):
        binom(2, -1)


def test_generator_contractions():
    a, x, v = gen_a(), gen_b(), vacuum()
    assert apply_mode(a, 0, x) == v                     # [a_(0), x] = 1
    assert apply_mode(x, 0, a) == -1 * v                # opposite order flips sign
    assert apply_mode(x, -1, x) == ground(2)            # x_(-1) multiplies
    assert apply_mode(a, -1, x) == FreeState({Monomial(amodes=(-1,), power=1): 1})
    assert apply_mode(a, 1, a).is_zero                  # a pairs only with x-modes
    assert apply_mode(gen_lstar(), 0, x).is_zero        # central, zero pairing


def test_vacuum_is_the_unit():
    rng = random.Random(SEED)
    for _ in range(20):
        u = random_state(rng, 3)
        assert apply_mode(vacuum(), -1, u) == u
        assert apply_mode(vacuum(), 0, u).is_zero
        assert apply_mode(u, -1, vacuum()) == u  # creation reproduces the state


def test_laurent_ground_multiplication():
    xinv = ground(-1, LAURENT)
    assert apply_mode(xinv, -1, ground(3, LAURENT)) == ground(2, LAURENT)
    # a_(0) x^-1 = -x^-2
    assert apply_mode(gen_a(), 0, xinv) == -1 * ground(-2, LAURENT)


def test_derivative_reduction_of_low_modes():
    # x_(-2)|0> = translation(x) applied at -1... concretely b_(-2)|0>
    got = apply_mode(gen_b(), -2, vacuum())
    assert got == FreeState({Monomial(bmodes=(-2,)): 1})
    # (x^2)_(-2)|0> = (1/1)(2 x b_(-2))|0>
    got2 = apply_mode(ground(2), -2, vacuum())
    assert got2 == FreeState({Monomial(bmodes=(-2,), power=1): 2})


def test_translation_covariance():
    rng = random.Random(SEED)
    for _ in range(30):
        w = random_state(rng, 2)
        u = random_state(rng, 2)
        m = rng.randint(-3, 2)
        lhs = apply_mode(translation(w), m, u)
        rhs = (-m) * apply_mode(w, m - 1, u)
        assert lhs == rhs


def test_translation_of_vacuum_vanishes():
    assert translation(vacuum()).is_zero
    assert translation(ground(2)) == FreeState({Monomial(bmodes=(-2,), power=1): 2})


def test_borcherds_samples_polynomial_chart():
    rng = random.Random(SEED)
    for _ in range(80):
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        c = random_state(rng, 2)
        m, n, k = (rng.randint(-2, 2) for _ in range(3))
        assert check_borcherds(a, b, c, m, n, k), (m, n, k)


def test_borcherds_samples_laurent_chart():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        a = random_state(rng, 2, ring=LAURENT)
        b = random_state(rng, 2, ring=LAURENT)
        c = random_state(rng, 2, ring=LAURENT)
        m, n, k = (rng.randint(-2, 2) for _ in range(3))
        assert check_borcherds(a, b, c, m, n, k), (m, n, k)


def test_borcherds_samples_specialized_module():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        c = random_state(rng, 2, lstar=rng.choice([-3, 0, 2]))
        m, n, k = (rng.randint(-2, 2) for _ in range(3))
        assert check_borcherds(a, b, c, m, n, k), (m, n, k)


@pytest.mark.parametrize("sector", ["poly", "laurent", "module"])
def test_borcherds_sides_match_the_fraction_composition(sector):
    # the integer-core numerators, as the states they are the numerators
    # of, against the same sides composed from public apply_mode calls and
    # summed as Fraction states, on the suite's samples
    rng = random.Random(SEED + 4)
    for _ in range(40):
        if sector == "poly":
            a, b, c = (random_state(rng, 3) for _ in range(3))
        elif sector == "laurent":
            a, b, c = (random_state(rng, 3, LAURENT) for _ in range(3))
        else:
            a, b = random_state(rng, 3), random_state(rng, 3)
            c = random_state(rng, 3, lstar=rng.randint(-3, 3))
        m, n, k = (rng.randint(-2, 2) for _ in range(3))
        got = core_borcherds_sides(a, b, c, m, n, k)
        assert got == ref_borcherds_sides(a, b, c, m, n, k), (m, n, k)
        assert all(type(key) is Monomial for side in got for key in side.terms)


def test_check_borcherds_catches_one_wrong_structure_constant(monkeypatch):
    # (a_(0) x)_(-1) x = a_(0)(x^2) - x (a_(0) x) reads x = 2x - x; one wrong
    # coefficient of a_(0) x^2, met only on the right, must break it.  The
    # fault runs behind a fresh cache, so the engine's own memo stays clean.
    a, x = gen_a(), gen_b()
    assert check_borcherds(a, x, x, 0, 0, -1)
    core = modespace._apply_mono.__wrapped__
    target = (modespace._intern(Monomial(amodes=(-1,))), 0, modespace._intern(Monomial(power=2)), None)

    @lru_cache(maxsize=None)
    def faulty(w, m, u, ls):
        out = core(w, m, u, ls)
        if (w, m, u, ls) == target:
            (mono, c), *rest = modespace._terms(out)
            out = modespace._flat([(mono, c + 1), *rest])
        return out

    monkeypatch.setattr(modespace, "_apply_mono", faulty)
    assert not check_borcherds(a, x, x, 0, 0, -1)


@pytest.mark.parametrize(
    "a, b, c, error",
    [
        # a Laurent a acting on a polynomial c
        (ground(-1, LAURENT), gen_b(LAURENT), vacuum(POLY), RingMismatchError),
        # a specialized a acting on a symbolic c
        (vacuum(lstar=2), ground(1, lstar=2), vacuum(), SpecializationError),
    ],
)
def test_borcherds_sides_raise_the_sector_errors(a, b, c, error):
    with pytest.raises(error):
        ref_borcherds_sides(a, b, c, 0, 0, -1)
    with pytest.raises(error):
        _borcherds_numerators(a, b, c, 0, 0, -1)
    with pytest.raises(error):
        check_borcherds(a, b, c, 0, 0, -1)


def test_commutator_formula():
    rng = random.Random(SEED + 3)
    for _ in range(50):
        w = random_state(rng, 2)
        v = random_state(rng, 2)
        u = random_state(rng, 2, lstar=rng.choice([None, 1]))
        r, m = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs, rhs = commutator_sides(w, r, v, m, u)
        assert lhs == rhs, (r, m)


@given(st.integers(-3, 3), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_ground_modes_of_powers(m, k, j):
    """(x^k)_(m) x^j: multiplication at -1, zero at >= 0, exact at lower modes."""
    got = apply_mode(ground(k), m, ground(j))
    if m >= 0:
        assert got.is_zero
    elif m == -1:
        assert got == ground(k + j)
    else:
        # cross-check through translation covariance
        alt = Fraction(1, -m - 1) * apply_mode(translation(ground(k)), m + 1, ground(j))
        assert got == alt


def test_grading_bookkeeping():
    rng = random.Random(SEED + 4)
    for _ in range(60):
        mw = random_state(rng, 3, max_terms=1)
        mu = random_state(rng, 3, max_terms=1)
        m = rng.randint(-3, 2)
        got = apply_mode(mw, m, mu)
        if got.is_zero:
            continue
        (nw, hw), (nu, hu) = bigrade(mw), bigrade(mu)
        assert bigrade(got) == (nw + nu - m - 1, hw + hu)


def test_negative_weight_targets_vanish():
    # any mode high enough to push the weight negative must annihilate
    rng = random.Random(SEED + 5)
    for _ in range(30):
        w = random_state(rng, 2, max_terms=1)
        u = random_state(rng, 2, max_terms=1)
        nw, nu = bigrade(w)[0], bigrade(u)[0]
        m = nw + nu  # weight of result = -1
        assert apply_mode(w, m, u).is_zero


def test_specialized_twist_zero_mode_is_scalar():
    lam = gen_lstar()
    rng = random.Random(SEED + 6)
    for n in (-2, 0, 3):
        for _ in range(15):
            u = random_state(rng, 3, lstar=n)
            assert apply_mode(lam, 0, u) == n * u
            assert apply_mode(lam, -1, u).is_zero
            assert apply_mode(lam, 2, u).is_zero


def test_specialized_composite_action():
    # :x lstar:_(m) acts on the residue-n quotient as n x_(m-1)
    w = FreeState({Monomial(lmodes=(-1,), power=1): 1})
    x = gen_b()
    rng = random.Random(SEED + 7)
    for n in (0, 3, -2):
        for _ in range(15):
            u = random_state(rng, 3, lstar=n)
            m = rng.randint(-3, 2)
            assert apply_mode(w, m, u) == n * apply_mode(x, m - 1, u)


def test_h_weight_zero_mode_diagonality():
    # the zero mode of -2 :a x: + lstar scales a bihomogeneous vector by its
    # h-weight (twist included)
    op = -2 * FreeState({Monomial(amodes=(-1,), power=1): 1}) + gen_lstar()
    rng = random.Random(SEED + 8)
    for n in (0, 2, -3):
        for _ in range(20):
            u = random_state(rng, 3, lstar=n, max_terms=1)
            (mono,) = u.terms
            assert apply_mode(op, 0, u) == (n + mono.h_shift) * u


def test_sector_guards():
    with pytest.raises(RingMismatchError):
        apply_mode(ground(-1, LAURENT), -1, vacuum(POLY))
    with pytest.raises(SpecializationError):
        apply_mode(vacuum(lstar=2), -1, vacuum())
    with pytest.raises(SpecializationError):
        apply_mode(vacuum(lstar=2), -1, vacuum(lstar=3))
    with pytest.raises(SpecializationError):
        vacuum(lstar=1) + vacuum(lstar=2)
    with pytest.raises(RingMismatchError):
        ground(-2, POLY)
    # widening is fine: POLY acting on LAURENT
    assert apply_mode(gen_b(POLY), -1, ground(-1, LAURENT)) == vacuum(LAURENT)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        FreeState({Monomial(): 0.5})
    with pytest.raises(TypeError):
        0.5 * vacuum()


@given(st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_state_algebra(seed):
    rng = random.Random(seed)
    u = random_state(rng, 3)
    v = random_state(rng, 3)
    assert u - u == zero()
    assert u + v == v + u
    assert 2 * u == u + u
    assert (-1) * (u - v) == v - u


def test_weight_components_partition_the_state():
    rng = random.Random(SEED + 9)
    u = random_state(rng, 4, max_terms=4)
    comps = weight_components(u)
    total = zero()
    for w, part in comps.items():
        assert part.weights() == {w}
        total = total + part
    assert total == u


def test_monomial_rejects_bad_mode_tuples():
    Monomial((-3, -1), (-4, -2), (-2, -1), -5)  # sorted, in range: fine
    for bad in (
        dict(amodes=(0,)),
        dict(amodes=(-1, -2)),
        dict(bmodes=(-1,)),
        dict(bmodes=(-2, -3)),
        dict(lmodes=(-3, 0)),
        dict(lmodes=(-1, -1, -2)),
    ):
        with pytest.raises(ValueError):
            Monomial(**bad)


def test_monomial_is_its_field_tuple():
    mono = Monomial((-2,), (-3,), (-1,), 4)
    fields = ((-2,), (-3,), (-1,), 4)
    assert mono == fields and hash(mono) == hash(fields)
    assert (mono.amodes, mono.bmodes, mono.lmodes, mono.power) == fields
    assert sorted([mono, Monomial(), Monomial(power=-1)]) == [Monomial(power=-1), Monomial(), mono]
    assert repr(mono) == "Monomial(amodes=(-2,), bmodes=(-3,), lmodes=(-1,), power=4)"
    with pytest.raises(AttributeError):
        mono.power = 5


def test_monomial_survives_copy_and_pickle():
    mono = Monomial((-3, -1), (-4, -2), (-2,), -5)
    clones = [copy.copy(mono), copy.deepcopy(mono)]
    clones += [pickle.loads(pickle.dumps(mono, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert clone == mono
        assert type(clone) is Monomial


def test_state_keys_must_be_monomials():
    # a plain 4-tuple equals the Monomial with its fields, but only a
    # Monomial has been validated
    for ring in (POLY, LAURENT):
        with pytest.raises(TypeError):
            FreeState({((-1,), (), (), 2): 1}, ring)
        with pytest.raises(TypeError):
            FreeState({((), (), (), 0): 1}, ring, 2)


def test_ground_powers_and_twist_sectors_must_be_ints():
    # a half-integral or float power or sector is no monomial and no residue
    # n: both are refused where they enter, not deep inside the engine.  A
    # bool is an int that equals and hashes as 0 or 1: accepted, True would
    # render as n=True and, once interned, be the key of every later x^1
    for power in (Fraction(1, 2), 0.5, 2.0, True, False):
        with pytest.raises(TypeError):
            Monomial(power=power)
    for lstar in (Fraction(1, 2), Fraction(2), 2.0, "2", True, False):
        with pytest.raises(TypeError):
            FreeState({Monomial(): 1}, LAURENT, lstar)
        with pytest.raises(TypeError):
            ground(1, lstar=lstar)
    assert FreeState({Monomial(): 1}, POLY, -3).lstar == -3


def test_mode_entries_must_be_ints():
    # a float or Fraction mode in range and in order is still no mode: it is
    # refused by the constructor, not deep inside the engine
    for bad in (
        dict(amodes=(-1.5,)),
        dict(amodes=(-2, -1.0)),
        dict(bmodes=(Fraction(-5, 2),)),
        dict(bmodes=(-3, -2.0)),
        dict(lmodes=(-1.5, 1.5)),
        dict(amodes=(-1,), lmodes=(Fraction(-1),)),
    ):
        with pytest.raises(TypeError):
            Monomial(**bad)
    assert Monomial(amodes=(-2, -1), bmodes=(-2,), lmodes=(-1,), power=-3).amodes == (-2, -1)


def test_invariants_raise_under_optimize_flag():
    # python -O strips assert statements; the invariants must survive it
    script = """
import pytest
import tcdo.modespace as M
for bad in (dict(amodes=(0,)), dict(bmodes=(-1,)), dict(lmodes=(-1, -2))):
    with pytest.raises(ValueError):
        M.Monomial(**bad)
with pytest.raises(M.InexactDivisionError):
    M._exact_div(7, 2)
print("ok")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_linear_combination_matches_repeated_sums():
    rng = random.Random(SEED + 11)
    for ring, lstar in ((POLY, None), (LAURENT, None), (POLY, 2)):
        states = [random_state(rng, 3, ring, lstar, max_terms=3) for _ in range(4)]
        scales = [Fraction(1, 2), -3, Fraction(0), Fraction(-2, 3)]
        want = zero(ring, lstar)
        for c, u in zip(scales, states):
            want = want + c * u
        got = linear_combination(zip(scales, (u.terms.items() for u in states)), ring, lstar)
        assert got == want
    assert linear_combination([], LAURENT, 1) == zero(LAURENT, 1)


# -- the integer engine against a Fraction copy of the recursion it replaced --
#
# The reference below is the engine as it was before its structure constants
# became ints: every coefficient a Fraction, and the one division of
# _ground_apply a Fraction(k, -m-1), on validated Monomials throughout (its
# _ref_head is the engine's _head from before the core moved to plain
# 4-tuples).  It is kept verbatim here so the integer engine can be checked
# against it.


def _ref_gen_mode_mono(gen, m, u, ls):
    one = Fraction(1)
    if m <= -1:
        if gen == GEN_A:
            return {Monomial(modespace._insort(u.amodes, m), u.bmodes, u.lmodes, u.power): one}
        if gen == GEN_B:
            if m == -1:
                return {Monomial(u.amodes, u.bmodes, u.lmodes, u.power + 1): one}
            return {Monomial(u.amodes, modespace._insort(u.bmodes, m), u.lmodes, u.power): one}
        if ls is not None:
            return {}
        return {Monomial(u.amodes, u.bmodes, modespace._insort(u.lmodes, m), u.power): one}
    out = {}
    if gen == GEN_A:
        t = -1 - m
        if t <= -2:
            mult = u.bmodes.count(t)
            if mult:
                out[Monomial(u.amodes, modespace._remove_one(u.bmodes, t), u.lmodes, u.power)] = Fraction(mult)
        if m == 0 and u.power:
            mono = Monomial(u.amodes, u.bmodes, u.lmodes, u.power - 1)
            out[mono] = out.get(mono, Fraction(0)) + u.power
    elif gen == GEN_B:
        r = -1 - m
        mult = u.amodes.count(r)
        if mult:
            out[Monomial(modespace._remove_one(u.amodes, r), u.bmodes, u.lmodes, u.power)] = Fraction(-mult)
    else:
        if ls is not None and m == 0:
            return {u: Fraction(ls)}
    return out


def _ref_gen_mode_terms(gen, m, terms, ls):
    out = {}
    for mono, c in terms.items():
        for mono2, c2 in _ref_gen_mode_mono(gen, m, mono, ls).items():
            out[mono2] = out.get(mono2, Fraction(0)) + c * c2
    return out


def _ref_merge(out, terms, scale):
    if not scale:
        return
    for mono, c in terms.items():
        out[mono] = out.get(mono, Fraction(0)) + scale * c


def _ref_head(w):
    if w.amodes:
        return GEN_A, w.amodes[0], Monomial(w.amodes[1:], w.bmodes, w.lmodes, w.power)
    if w.bmodes:
        return GEN_B, w.bmodes[0], Monomial((), w.bmodes[1:], w.lmodes, w.power)
    if w.lmodes:
        return GEN_LSTAR, w.lmodes[0], Monomial((), (), w.lmodes[1:], w.power)
    return None


@lru_cache(maxsize=None)
def _ref_apply_mono(w, m, u, ls):
    head = _ref_head(w)
    if head is None:
        out = _ref_ground_apply(w.power, m, u, ls)
    else:
        gen, mode, tail = head
        s = -mode
        out = {}
        j = 0
        while tail.weight + u.weight - (m + j) - 1 >= 0:
            inner = _ref_apply_mono(tail, m + j, u, ls)
            if inner:
                created = _ref_gen_mode_terms(gen, mode - j, dict(inner), ls)
                _ref_merge(out, created, Fraction((-1) ** j * binom(mode, j)))
            j += 1
        sign = -((-1) ** s)
        for j in range(u.weight + 1):
            gu = _ref_gen_mode_mono(gen, j, u, ls)
            for mono, c in gu.items():
                inner = _ref_apply_mono(tail, mode + m - j, mono, ls)
                _ref_merge(out, dict(inner), Fraction(sign * (-1) ** j * binom(mode, j)) * c)
    return tuple(out.items())


def _ref_ground_apply(k, m, u, ls):
    if k == 0:
        return {u: Fraction(1)} if m == -1 else {}
    if u.amodes:
        r = u.amodes[0]
        tail = Monomial(u.amodes[1:], u.bmodes, u.lmodes, u.power)
        out = {}
        _ref_merge(out, _ref_gen_mode_terms(GEN_A, r, _ref_ground_apply(k, m, tail, ls), ls), Fraction(1))
        _ref_merge(out, _ref_ground_apply(k - 1, m + r, tail, ls), Fraction(-k))
        return out
    if u.bmodes or u.lmodes:
        out = _ref_ground_apply(k, m, Monomial(power=u.power), ls)
        for mode in u.lmodes:
            out = _ref_gen_mode_terms(GEN_LSTAR, mode, out, ls)
        for mode in u.bmodes:
            out = _ref_gen_mode_terms(GEN_B, mode, out, ls)
        return out
    if m >= 0:
        return {}
    if m == -1:
        return {Monomial(power=k + u.power): Fraction(1)}
    inner = _ref_apply_mono(Monomial(bmodes=(-2,), power=k - 1), m + 1, u, ls)
    out = {}
    _ref_merge(out, dict(inner), Fraction(k, -m - 1))
    return out


# (ring, lstar): the polynomial and Laurent charts, symbolic, and the
# specialized sectors lstar = -3..3 over both rings
SECTORS = [(POLY, None), (LAURENT, None)] + [(ring, n) for n in range(-3, 4) for ring in (POLY, LAURENT)]


@st.composite
def monomials(draw, weight_max, ring, symbolic=True):
    """A normal-form monomial of weight <= weight_max."""
    budget = draw(st.integers(0, weight_max))
    modes = {"A": [], "B": [], "L": []}
    while budget > 0:
        kind = draw(st.sampled_from("ABL" if symbolic else "AB"))
        s = draw(st.integers(1, budget))
        modes[kind].append(-s - 1 if kind == "B" else -s)
        budget -= s
    power = draw(st.integers(-3, 3) if ring == LAURENT else st.integers(0, 3))
    return Monomial(*(tuple(sorted(modes[k])) for k in "ABL"), power)


@st.composite
def engine_cases(draw, weight_max):
    """(w, m, u, lstar): a symbolic w acting on u in one sector."""
    ring, ls = draw(st.sampled_from(SECTORS))
    w = draw(monomials(weight_max, ring))
    u = draw(monomials(weight_max, ring, symbolic=ls is None))
    return w, draw(st.integers(-3, 3)), u, ls


def _core(w, m, u, ls):
    """``_apply_mono`` on two monomials through the intern table: its
    (monomial 4-tuple, int) terms, in order."""
    out = _apply_mono(modespace._intern(w), m, modespace._intern(u), ls)
    return [(modespace._MONOS[i], c) for i, c in modespace._terms(out)]


@given(engine_cases(4))
@example((Monomial(amodes=(-1,), power=1), 1, Monomial(bmodes=(-3, -2)), None))
@settings(max_examples=300, deadline=None)
def test_apply_mono_matches_fraction_reference(case):
    # the same terms in the same order, zero sums included; the example
    # contracts A_(j) with two distinct B-modes, where the j order shows
    w, m, u, ls = case
    got = _core(w, m, u, ls)
    assert all(type(c) is int for _, c in got)
    assert got == list(_ref_apply_mono(w, m, u, ls))


@pytest.mark.parametrize("ring, ls", SECTORS)
def test_apply_mono_matches_fraction_reference_on_every_small_pair(ring, ls):
    """Every pair of normal-form monomials w, u of combined weight <= 3, at
    ground powers 0..2 (-2..2 over LAURENT), with u in sector ls, and every
    m in -3..3: the same terms in the same order, zero sums included."""
    powers = range(-2, 3) if ring == LAURENT else range(3)

    def monomials_of(weight, tower):
        return [Monomial(a, b, lm, p) for a, b, lm, _ in normal_forms(weight, tower) for p in powers]

    for ww in range(4):
        for uw in range(4 - ww):
            for w in monomials_of(ww, True):
                for u in monomials_of(uw, ls is None):
                    for m in range(-3, 4):
                        assert _core(w, m, u, ls) == list(_ref_apply_mono(w, m, u, ls)), (w, m, u)


# -- Wick's pole-order bound, certified against the unpruned reference --
#
# The engine skips every action w_(m) u with m >= _poles(w, u, ls).  That is
# sound only if such an action has no terms at all, not even zero sums, which
# the reference above (bounded by conformal weight alone) must confirm.


def _past_the_poles(w, u, ls):
    """m from _poles(w, u, ls) to two past it, with the reference at each."""
    poles = modespace._poles(modespace._intern(w), modespace._intern(u), ls)
    return [(m, _ref_apply_mono(w, m, u, ls)) for m in range(poles, poles + 3)]


@pytest.mark.parametrize("ring, ls", SECTORS)
def test_no_action_at_or_past_the_poles_on_every_small_pair(ring, ls):
    """Every pair of normal-form monomials w, u of combined weight <= 3, at
    ground powers 0..2 (-2..2 over LAURENT), with u in sector ls: the
    reference w_(m) u is () for m from _poles to _poles + 2."""
    powers = range(-2, 3) if ring == LAURENT else range(3)

    def monomials_of(weight, tower):
        return [Monomial(a, b, lm, p) for a, b, lm, _ in normal_forms(weight, tower) for p in powers]

    for ww in range(4):
        for uw in range(4 - ww):
            for w in monomials_of(ww, True):
                for u in monomials_of(uw, ls is None):
                    for m, out in _past_the_poles(w, u, ls):
                        assert out == (), (w, m, u)


@given(engine_cases(6))
@settings(max_examples=200, deadline=None)
def test_no_action_at_or_past_the_poles_up_to_weight_6(case):
    w, _, u, ls = case
    for m, out in _past_the_poles(w, u, ls):
        assert out == (), (w, m, u)


def test_the_recursion_never_enters_an_action_past_its_poles(monkeypatch):
    """The pruning stays: with cold caches, during a property sweep, no call
    that ``_apply_mono`` or ``_ground_apply`` makes from a call within the
    bound lies past it.  For ``_apply_mono`` the bound is _poles(w, u, ls);
    for ``_ground_apply`` it is the A weight of u, which is _poles(x^k, u,
    ls) for k != 0 (the vacuum, k = 0, is a cheap exit).  The top-level
    calls, one per pair of terms an action is asked for, are not checked."""
    frames = []  # for each open call, whether it lies within the bound
    calls, past = [], []

    def recorder(core, within):
        def call(*args):
            ok = within(*args)
            if frames and frames[-1]:
                calls.append(args)
                if not ok:
                    past.append(args)
            frames.append(ok)
            try:
                return core(*args)
            finally:
                frames.pop()
        return call

    clear_caches()
    monkeypatch.setattr(modespace, "_apply_mono", recorder(
        modespace._apply_mono, lambda w, m, u, ls: m < modespace._poles(w, u, ls)))
    monkeypatch.setattr(modespace, "_ground_apply", recorder(
        modespace._ground_apply, lambda k, m, u, ls: not k or m < modespace._REACH[u][0]))
    assert all(rep.passed for rep in engine_property_suite(20, 1))
    assert len(calls) > 1000
    assert past == []


def test_the_ground_action_checks_both_branches_against_the_tail(monkeypatch):
    # (x^2)_(2) A_(-1) t = A_(-1) (x^2)_(2) t - 2 (x^1)_(1) t for t = A_(-1),
    # and both terms lie at or past t's A weight 1, so neither is entered,
    # though the action itself, as a top-level call may, lies past its bound
    core = modespace._ground_apply
    seen = []

    def spy(k, m, u, ls):
        seen.append((k, m, u))
        return core(k, m, u, ls)

    u = modespace._intern(Monomial(amodes=(-1, -1)))
    monkeypatch.setattr(modespace, "_ground_apply", spy)
    assert spy(2, 2, u, None) == {}
    assert seen == [(2, 2, u)]


_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_apply_mode_matches_fraction_reference(data):
    ring, ls = data.draw(st.sampled_from(SECTORS))
    wterms = data.draw(st.dictionaries(monomials(3, ring), _COEFFS, min_size=1, max_size=3))
    uterms = data.draw(st.dictionaries(monomials(3, ring, symbolic=ls is None), _COEFFS, min_size=1, max_size=3))
    m = data.draw(st.integers(-3, 3))
    want = {}
    for mw, cw in wterms.items():
        for mu, cu in uterms.items():
            _ref_merge(want, dict(_ref_apply_mono(mw, m, mu, ls)), Fraction(cw) * cu)
    got = apply_mode(FreeState(wterms, ring), m, FreeState(uterms, ring, ls))
    assert got == FreeState(want, ring, ls)
    assert all(type(c) is Fraction for c in got.terms.values())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_public_outputs_are_keyed_by_monomials(data):
    """The engine core works on plain 4-tuples; every state that leaves
    through the public operations is keyed by validated Monomials."""
    ring, ls = data.draw(st.sampled_from(SECTORS))
    wterms = data.draw(st.dictionaries(monomials(3, ring), _COEFFS, min_size=1, max_size=3))
    uterms = data.draw(st.dictionaries(monomials(3, ring, symbolic=ls is None), _COEFFS, min_size=1, max_size=3))
    m = data.draw(st.integers(-3, 3))
    w, u = FreeState(wterms, ring), FreeState(uterms, ring, ls)
    core = _core(next(iter(wterms)), m, next(iter(uterms)), ls)
    outputs = [
        apply_mode(w, m, u),
        glue(u),
        linear_combination([(Fraction(1, 2), core), (-3, u.terms.items())], ring, ls),
        translation(u),
    ]
    for out in outputs:
        assert all(type(key) is Monomial for key in out.terms), out


@given(engine_cases(6))
@settings(max_examples=200, deadline=None)
def test_structure_constants_are_integers_up_to_weight_6(case):
    """The Fraction recursion never leaves the integers: every coefficient of
    w_(m) u has denominator 1 for monomials of weight <= 6, which is what
    lets the engine keep its structure constants as ints."""
    w, m, u, ls = case
    assert all(c.denominator == 1 for _, c in _ref_apply_mono(w, m, u, ls))


def test_exact_division_certificate():
    assert _exact_div(12, 4) == 3
    assert _exact_div(-6, 3) == -2
    with pytest.raises(InexactDivisionError):
        _exact_div(7, 2)


def test_ground_apply_raises_on_inexact_division(monkeypatch):
    # (x^1)_(-3) x^0 divides k * c by 2; a fake inner coefficient of 1 is odd
    odd = modespace._flat([(modespace._intern(Monomial(power=1)), 1)])
    monkeypatch.setattr(modespace, "_apply_mono", lambda w, m, u, ls: odd)
    with pytest.raises(InexactDivisionError):
        modespace._ground_apply(1, -3, modespace._intern(Monomial()), None)


def test_states_are_the_same_after_clear_caches():
    # an id means nothing once the intern table is cleared, so clear_caches
    # empties the table and every memo of ids together; the same requests,
    # made in another order after the clear so the ids are handed out anew,
    # give the same states
    rng = random.Random(SEED + 13)
    cases = [(random_state(rng, 3), rng.randint(-2, 2), random_state(rng, 3)) for _ in range(20)]
    before = [apply_mode(w, m, u) for w, m, u in cases]
    clear_caches()
    after = [apply_mode(w, m, u) for w, m, u in reversed(cases)]
    assert after[::-1] == before
