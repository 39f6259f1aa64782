"""Affine PBW engine: bracket consistency, Sugawara, characters, replay map."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tcdo.affine import (
    LEVEL,
    PBWVector,
    act,
    act_word,
    check_affine_relations,
    check_singular_generator,
    check_sugawara_centrality,
    highest_weight_vector,
    irreducible_char_oracle,
    irreducible_dims,
    quotient_dims,
    random_pbw,
    restricted_verma_dim,
    singular_bidegrees,
    sugawara_apply,
    sugawara_zero_eigenvalue,
    verma_basis,
    verma_dim,
    verma_to_sections,
    word_depth,
    word_h_shift,
)
from tcdo.p1tcdo import Chart, sections_bidegree, unclamped_sections_dim
from tcdo.qseries import char_L

SEED = 42


# -- an independent counting oracle for verma_dim --------------------------------
#
# Dimensions of Verma bidegrees are multiset counts: pick a multiset of
# negative modes with three colors, plus a power of f_0 fixed by the h-weight.
# This enumeration is deliberately different from affine._negative_words
# (itertools over colored partitions instead of recursive descent).


def brute_verma_dim(nu, d, mu):
    def partitions(total):
        if total == 0:
            yield ()
            return
        for first in range(total, 0, -1):
            for rest in partitions(total - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    count = 0
    for shape in partitions(d):
        groups = itertools.groupby(shape)
        choices = [
            list(itertools.combinations_with_replacement("ehf", len(list(g))))
            for _, g in groups
        ]
        for combo in itertools.product(*choices):
            shift = sum({"e": 2, "h": 0, "f": -2}[g] for grp in combo for g in grp)
            gap = Fraction(nu) + shift - Fraction(mu)
            if gap.denominator == 1 and gap >= 0 and gap % 2 == 0:
                count += 1
    return count


def test_verma_dim_against_brute_count():
    for nu in (0, 3, -2, Fraction(1, 2)):
        for d in range(5):
            for j in range(-6, 7):
                mu = Fraction(nu) + 2 * j
                assert verma_dim(nu, d, mu) == brute_verma_dim(nu, d, mu)


def test_verma_dim_anchors():
    nu = Fraction(7)
    for j in range(5):
        assert verma_dim(nu, 0, nu - 2 * j) == 1
    assert verma_dim(nu, 0, nu + 2) == 0
    assert verma_dim(nu, 1, nu) == 2  # h_{-1} and e_{-1} f_0


def test_highest_weight_anchors():
    v = highest_weight_vector(Fraction(5))
    assert act("h", 0, v) == Fraction(5) * v
    assert act("e", 0, v).is_zero
    for gen in "ehf":
        assert act(gen, 2, v).is_zero
    # [e_1, f_{-1}] = h_0 + (e|f) K  ->  (nu - 2) on the highest-weight vector
    assert act("e", 1, act("f", -1, v)) == (Fraction(5) + LEVEL) * v


def test_bracket_property_sampled():
    rng = random.Random(SEED)
    for _ in range(80):
        nu = rng.choice([Fraction(0), Fraction(2), Fraction(-3), Fraction(1, 2)])
        v = random_pbw(rng, 3, nu)
        xg, yg = rng.choice("ehf"), rng.choice("ehf")
        m, k = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs = act(xg, m, act(yg, k, v)) - act(yg, k, act(xg, m, v))
        table = {
            ("e", "f"): (1, "h"), ("f", "e"): (-1, "h"),
            ("h", "e"): (2, "e"), ("e", "h"): (-2, "e"),
            ("h", "f"): (-2, "f"), ("f", "h"): (2, "f"),
        }
        rhs = PBWVector({}, nu)
        if (xg, yg) in table:
            c, g = table[(xg, yg)]
            rhs = c * act(g, m + k, v)
        if m + k == 0:
            pairing = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}.get((xg, yg), 0)
            rhs = rhs + (m * pairing * LEVEL) * v
        assert lhs == rhs


def test_check_reports_pass():
    assert check_affine_relations(40).passed
    assert check_sugawara_centrality(15, seed=7).passed


def test_sugawara_on_highest_weight():
    for nu in (Fraction(0), Fraction(4), Fraction(-3), Fraction(5, 3)):
        v = highest_weight_vector(nu)
        assert sugawara_apply(1, v).is_zero
        assert sugawara_apply(2, v).is_zero
        assert sugawara_zero_eigenvalue(nu) == nu * (nu + 2) / 2
        down = sugawara_apply(-1, v)
        assert not down.is_zero
        assert all(word_depth(w) == 1 for w in down.terms)


def test_sugawara_commutes_with_action_exact():
    rng = random.Random(SEED)
    for _ in range(12):
        nu = rng.choice([Fraction(1), Fraction(-2), Fraction(5, 3)])
        v = random_pbw(rng, 2, nu)
        for gen, m, k in (("e", -1, -1), ("f", 1, -2), ("h", 0, 1)):
            assert sugawara_apply(k, act(gen, m, v)) == act(gen, m, sugawara_apply(k, v))


def _sugawara_by_vector_sums(k, v):
    # the slow path: one PBWVector per partial sum
    m = k + 1
    out = PBWVector({}, v.nu)
    dmax = v.depth_max()
    for coef, xg, yg in ((Fraction(1), "e", "f"), (Fraction(1), "f", "e"), (Fraction(1, 2), "h", "h")):
        for j in range(dmax - m + 1):
            out = out + coef * act(xg, -1 - j, act(yg, m + j, v))
        for j in range(dmax + 1):
            out = out + coef * act(yg, m - 1 - j, act(xg, j, v))
    return out


def test_sugawara_matches_vector_sums():
    rng = random.Random(SEED)
    for _ in range(20):
        nu = rng.choice([Fraction(0), Fraction(3), Fraction(-2), Fraction(5, 3)])
        v = random_pbw(rng, 3, nu)
        k = rng.randint(-3, 2)
        assert sugawara_apply(k, v) == _sugawara_by_vector_sums(k, v)


def test_pbw_invariants_raise():
    with pytest.raises(ValueError, match="non-lowering"):
        PBWVector({(("e", 1),): 1})
    with pytest.raises(ValueError, match="PBW order"):
        PBWVector({(("f", 0), ("e", -1)): 1})
    with pytest.raises(ValueError, match="nu="):
        highest_weight_vector(0) + highest_weight_vector(1)


def test_sugawara_zero_eigenvalue_rejects_non_scalar(monkeypatch):
    import tcdo.affine

    monkeypatch.setattr(tcdo.affine, "sugawara_apply", lambda k, v: PBWVector({(("f", 0),): 1}, v.nu))
    with pytest.raises(ValueError, match="scalar"):
        sugawara_zero_eigenvalue(0)


def test_invariants_raise_under_optimize_flag():
    # python -O strips assert statements; the invariants must survive it
    script = """
import pytest
import tcdo.affine as A
from tcdo.linalg import kernel_basis
for bad in (
    lambda: A.PBWVector({(("e", 1),): 1}),
    lambda: A.PBWVector({(("f", 0), ("e", -1)): 1}),
    lambda: A.highest_weight_vector(0) + A.highest_weight_vector(1),
    lambda: kernel_basis([[1, 2, 3]], 2),
):
    with pytest.raises(ValueError):
        bad()
A.sugawara_apply = lambda k, v: A.PBWVector({(("f", 0),): 1}, v.nu)
with pytest.raises(ValueError):
    A.sugawara_zero_eigenvalue(0)
print("ok")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_singular_generator_annihilated():
    for n in (0, 1, 3):
        assert check_singular_generator(n).passed


def test_singular_bidegrees_integral_and_generic():
    mus = [m for m in range(-9, 6)]
    for n in (0, 2):
        window = [m for m in mus if (n - m) % 2 == 0]
        found = singular_bidegrees(n, 2, window)
        assert found == [(0, -n - 2, 1)]
    # nu = -1 and generic rationals: nothing beyond the highest-weight vector
    assert singular_bidegrees(-1, 2, [m for m in mus if m % 2]) == []
    for nu in (Fraction(1, 2), Fraction(5, 3)):
        window = [nu + 2 * k for k in range(-5, 3)]
        assert singular_bidegrees(nu, 2, window) == []


def test_quotient_depth_zero_is_f0_orbit():
    dims = quotient_dims(3, 0, [3 - 2 * j for j in range(-2, 6)])
    for j in range(-2, 6):
        assert dims[(0, 3 - 2 * j)] == (1 if j >= 0 else 0)


def test_irreducible_oracle_matches_closed_form():
    for n in range(4):
        assert irreducible_char_oracle(n, 3) == char_L(n, 3)


def test_irreducible_oracle_top_coefficient():
    for n in (0, 2, 5):
        assert irreducible_char_oracle(n, 0).coeff(0) == n + 1


def test_irreducible_oracle_rejects_negative():
    with pytest.raises(ValueError):
        irreducible_dims(-2, 1, [0])


def test_restricted_dims_match_sections():
    for n in (-2, -1, 0, 1):
        for d in range(4):
            for mu in range(n - 2 * (3 + abs(n) + 2), n + 2 * 3 + 1):
                if (n - mu) % 2:
                    continue
                assert restricted_verma_dim(n, d, mu) == len(
                    sections_bidegree(Chart.ZERO, n, d, mu)
                )


def test_raw_verma_matches_unclamped_fock():
    for n in (-3, 0, 2):
        for d in range(4):
            for mu in range(n - 10, n + 7):
                if (n - mu) % 2:
                    continue
                assert verma_dim(n, d, mu) == unclamped_sections_dim(
                    Chart.ZERO, n, d, mu
                )


def test_replay_is_iso_for_very_negative_twist():
    for n in (-2, -3):
        table = verma_to_sections(n, 3)
        assert table  # nonempty
        for (d, mu), (raw, restricted, secdim, rk) in table.items():
            assert rk == restricted == secdim
            assert raw >= restricted


def test_replay_rank_equals_irreducible_dims_for_dominant_twist():
    n, d_max = 1, 3
    table = verma_to_sections(n, d_max)
    mus = sorted({mu for _, mu in table})
    ldims = irreducible_dims(n, d_max, mus)
    for key, (_, _, _, rk) in table.items():
        assert rk == ldims[key]


def test_replay_image_of_hw_killed_by_f0_power():
    # the ground state of the degree-n module spans the (n+1)-dimensional
    # sl2-representation: f_0^(n+1) kills it
    from tcdo.modespace import apply_mode, vacuum
    from tcdo.p1tcdo import sl2_embedding

    rho = sl2_embedding(Chart.ZERO)
    for n in (0, 1, 2):
        img = vacuum(lstar=n)
        for _ in range(n + 1):
            img = apply_mode(rho["f"], 0, img)
        assert img.is_zero


def test_act_word_composition():
    v = highest_weight_vector(Fraction(2))
    w = act_word((("e", -1), ("f", 0)), v)
    assert w == act("e", -1, act("f", 0, v))
    assert all(word_depth(t) == 1 and word_h_shift(t) == 0 for t in w.terms)
