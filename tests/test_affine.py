"""Affine PBW engine: bracket consistency, Sugawara, characters, replay map."""

import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcdo.affine import (
    LEVEL,
    PBWVector,
    _act_word,
    _central_image,
    _core_nu,
    _default_mu_window,
    _is_lowering,
    _key,
    _negative_words,
    _replay,
    _straighten,
    _t_image,
    act,
    check_affine_relations,
    check_singular_generator,
    check_sugawara_centrality,
    highest_weight_vector,
    irreducible_char_oracle,
    irreducible_dims,
    random_pbw,
    restricted_verma_dim,
    singular_bidegrees,
    sugawara_apply,
    sugawara_zero_eigenvalue,
    verma_basis,
    verma_to_sections,
    word_depth,
    word_h_shift,
)
from tcdo.cli import main
from tcdo.modespace import VACUUM_MONO, _act
from tcdo.p1tcdo import Chart, _sl2_currents, sections_bidegree
from tcdo.qseries import char_L

from references import pbw_depth_max, ref_irreducible_dims, ref_verma_images

SEED = 42


# -- an independent counting oracle for the Verma bidegree dimensions --------------------------------
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
                # even, odd and non-integral gaps between nu and mu
                for mu in (Fraction(nu) + 2 * j, Fraction(nu) + 2 * j + 1, Fraction(nu) + j + Fraction(1, 3)):
                    assert len(verma_basis(nu, d, mu)) == brute_verma_dim(nu, d, mu)


def test_verma_dim_anchors():
    nu = Fraction(7)
    for j in range(5):
        assert len(verma_basis(nu, 0, nu - 2 * j)) == 1
    assert len(verma_basis(nu, 0, nu + 2)) == 0
    assert len(verma_basis(nu, 1, nu)) == 2  # h_{-1} and e_{-1} f_0


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
    dmax = pbw_depth_max(v)
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


# -- the integer core -------------------------------------------------------------


def _core_words(d_max, f0_max=2):
    return [neg + (("f", 0),) * j for d in range(d_max + 1) for neg in _negative_words(d) for j in range(f0_max + 1)]


@pytest.mark.parametrize("nu", [0, 3, -2, Fraction(1, 2), Fraction(5, 3)])
def test_t_image_is_twice_the_sugawara_reference(nu):
    core = _core_nu(nu)
    for word in _core_words(2):
        for k in range(-3, 3):
            got = _t_image(k, word, core)
            want = _sugawara_by_vector_sums(k, PBWVector({word: 1}, nu))
            assert len(dict(got)) == len(got)
            assert dict(got) == {w: 2 * c for w, c in want.terms.items()}
            assert all(c != 0 for _, c in got)


# -- the Sugawara span by centrality ------------------------------------------------
#
# _sugawara_span takes 2 T_(-k)(w v) as w applied to the cached 2 T_(-k) v,
# which is only right because T is central at the critical level.  The
# certificate compares that shortcut with the module expansion of
# _t_image, word by word, so a fault in either shows as a mismatch.

CENTRAL_NUS = (0, 1, 3, -2, Fraction(1, 2), Fraction(5, 3))


def _central_mismatches(central, depth_max=4, ks=range(-4, 2), nus=CENTRAL_NUS):
    """The (k, word, nu) on which ``central`` differs from the module
    expansion or keeps a zero coefficient, over every word neg + f_0^j with
    j <= 2 and word_depth(neg) + |k| <= depth_max, and the number of cases."""
    bad, cases = [], 0
    for nu in nus:
        core = _core_nu(nu)
        for k in ks:
            for word in _core_words(depth_max - abs(k)):
                cases += 1
                got = central(k, word, core)
                if dict(got) != dict(_t_image(k, word, core)) or any(c == 0 for _, c in got):
                    bad.append((k, word, nu))
    return bad, cases


def test_central_image_equals_the_module_expansion():
    bad, cases = _central_mismatches(_central_image)
    assert bad == []
    assert cases > 2500


def test_central_certificate_catches_a_skipped_head_action():
    # the certificate must see a shortcut that forgets to act with the word
    def headless(k, word, nu):
        return _t_image(k, (), nu)

    bad, _ = _central_mismatches(headless, depth_max=2)
    assert bad


def test_corrupted_base_image_breaks_the_oracle_and_the_cli(monkeypatch, capsys):
    # add h_(-1) v to 2 T_(-1) v.  Scaling a coefficient would not do: at
    # nu = 0 the image is the single term 4 e_(-1)f_0 v, and a multiple of it
    # spans the same line, so every dim would stay as it is
    import tcdo.affine

    real = tcdo.affine._t_image

    def corrupted(k, word, nu):
        items = real(k, word, nu)
        if k == -1 and word == ():
            items = items + (((("h", -1),), 1),)
        return items

    _central_image.cache_clear()
    monkeypatch.setattr(tcdo.affine, "_t_image", corrupted)
    try:
        assert irreducible_char_oracle(0, 4) != char_L(0, 4)
        assert main(["affine", "char", "--n", "0", "--depth", "4"]) == 1
        assert "[FAIL] irreducible-character n=0" in capsys.readouterr().out
    finally:
        _central_image.cache_clear()


def test_integral_weights_keep_int_coefficients():
    # the core must not slide back to Fraction: for integral nu, whichever
    # type the weight came in, every cached coefficient is an int
    for nu in (0, 3, -2, Fraction(4), Fraction(-1)):
        core = _core_nu(nu)
        assert type(core) is int and core == nu
        sugawara_apply(-1, PBWVector({(("f", 0),): 1}, nu))
        for word in _core_words(2):
            assert all(type(c) is int for _, c in _straighten((("e", -1),) + word))
            for k in range(-2, 2):
                assert all(type(c) is int for _, c in _t_image(k, word, core))
                assert all(type(c) is int for _, c in _central_image(k, word, core))
            for gen in "ehf":
                for m in range(-2, 3):
                    assert all(type(c) is int for _, c in _act_word(gen, m, word, core))
    for nu in (Fraction(1, 2), Fraction(-5, 3)):
        assert _core_nu(nu) == nu and type(_core_nu(nu)) is Fraction
    with pytest.raises(TypeError):
        _core_nu(0.5)


def test_int_and_fraction_weights_share_cache_entries():
    # the public path takes the weight as a Fraction; the core entries it
    # fills are the ones an int weight hits, and they hold ints
    word = (("e", -3), ("h", -2), ("f", 0))
    v = PBWVector({word: 1}, Fraction(2))
    assert act("h", 0, v) == 2 * v  # h-weight 2 + 2 + 0 - 2
    # the span path: T_(-1) of the depth-1 word (h_(-1), f_0) lands in (2, 0)
    restricted_verma_dim(Fraction(2), 2, 0)
    for cached, args in (
        (_act_word, ("h", 0, word, 2)),
        (_central_image, (-1, (("h", -1), ("f", 0)), 2)),
    ):
        before = cached.cache_info()
        items = cached(*args)
        after = cached.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert items and all(type(c) is int for _, c in items)


def _act_validated(gen, m, v):
    # the validating path: raw sums over the cached word actions, then the
    # public constructor re-checks every word and coerces every coefficient
    out = {}
    for word, c in v.terms.items():
        for w, a in _act_word(gen, m, word, _core_nu(v.nu)):
            out[w] = out.get(w, 0) + c * a
    return PBWVector(out, v.nu)


def _sugawara_validated(k, v):
    m = k + 1
    out = {}
    dmax = pbw_depth_max(v)
    for coef, xg, yg in ((Fraction(1), "e", "f"), (Fraction(1), "f", "e"), (Fraction(1, 2), "h", "h")):
        images = [_act_validated(xg, -1 - j, _act_validated(yg, m + j, v)) for j in range(dmax - m + 1)]
        images += [_act_validated(yg, m - 1 - j, _act_validated(xg, j, v)) for j in range(dmax + 1)]
        for img in images:
            for w, c in img.terms.items():
                out[w] = out.get(w, 0) + coef * c
    return PBWVector(out, v.nu)


def _assert_normal(vec):
    for word, c in vec.terms.items():
        assert all(_is_lowering(g, m) for g, m in word)
        assert list(word) == sorted(word, key=_key)
        assert type(c) is Fraction and c != 0


@given(
    st.integers(0, 2**32),
    st.sampled_from([Fraction(0), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3)]),
    st.sampled_from("ehf"),
    st.integers(-3, 3),
)
@settings(max_examples=60, deadline=None)
def test_unvalidated_results_match_validating_constructor(seed, nu, gen, m):
    v = random_pbw(random.Random(seed), 3, nu)
    got = act(gen, m, v)
    assert got == _act_validated(gen, m, v)
    assert got == PBWVector(got.terms, nu)
    _assert_normal(got)
    sug = sugawara_apply(m, v)
    assert sug == _sugawara_validated(m, v)
    assert sug == PBWVector(sug.terms, nu)
    _assert_normal(sug)


def test_pbw_floats_are_rejected():
    with pytest.raises(TypeError):
        PBWVector({(): 0.5}, 0)
    with pytest.raises(TypeError):
        0.5 * PBWVector({(): 1}, 0)


def test_pbw_float_weight_is_rejected():
    # a float nu would silently become a binary fraction
    with pytest.raises(TypeError):
        PBWVector({(): 1}, 0.1)
    with pytest.raises(TypeError):
        highest_weight_vector(0.5)
    assert PBWVector({(): 1}, 2).nu == Fraction(2)
    assert highest_weight_vector(Fraction(1, 3)).nu == Fraction(1, 3)


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
for bad in (
    lambda: A.PBWVector({(("e", 1),): 1}),
    lambda: A.PBWVector({(("f", 0), ("e", -1)): 1}),
    lambda: A.highest_weight_vector(0) + A.highest_weight_vector(1),
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


def test_singular_bidegrees_builds_each_sugawara_span_once(monkeypatch):
    import tcdo.affine

    built = []
    real = tcdo.affine._sugawara_span

    def counting(nu, d, mu):
        built.append((nu, d, mu))
        return real(nu, d, mu)

    monkeypatch.setattr(tcdo.affine, "_sugawara_span", counting)
    window = [m for m in range(-9, 6) if m % 2 == 0]
    assert singular_bidegrees(2, 2, window) == [(0, -4, 1)]
    assert len(built) == len(set(built))
    built.clear()
    window = [Fraction(1, 2) + 2 * k for k in range(-4, 3)]
    assert singular_bidegrees(Fraction(1, 2), 2, window) == []
    assert built and len(built) == len(set(built))


def test_verma_vs_sections_builds_each_sugawara_span_once(monkeypatch, capsys):
    # the replay table carries the quotient dimension the command checks, so
    # no bidegree's Sugawara span is built a second time for the check
    import tcdo.affine

    built = []
    real = tcdo.affine._sugawara_span

    def counting(nu, d, mu, first=()):
        built.append((nu, d, mu))
        return real(nu, d, mu, first)

    monkeypatch.setattr(tcdo.affine, "_sugawara_span", counting)
    assert main(["affine", "verma-vs-sections", "--n", "0..1", "--depth", "3", "--format", "json"]) == 0
    capsys.readouterr()
    assert built and len(built) == len(set(built))


def _recording_trackers(monkeypatch) -> list:
    """The list that every SpanTracker tcdo.affine builds from now on joins;
    each keeps in ``grew`` what each of its adds returned, in order."""
    import tcdo.affine

    trackers = []

    class Recording(tcdo.affine.SpanTracker):
        def __init__(self):
            super().__init__()
            self.grew = []
            trackers.append(self)

        def add(self, vec):
            grew = super().add(vec)
            self.grew.append(grew)
            return grew

    monkeypatch.setattr(tcdo.affine, "SpanTracker", Recording)
    return trackers


def _fill(trackers) -> int:
    """The nonzero entries kept in the echelon rows of the trackers."""
    return sum(len(row) for t in trackers for row in t._core.rows.values())


def _oracle_under(monkeypatch, columns):
    """Per-bidegree dims of irreducible_char_oracle(n, 4), n = 0..3, the
    singular bidegrees of n = 0..2 at depth 3, and the total nonzero entries
    kept in the echelon rows of every span built, with the span columns
    numbered by ``columns``."""
    import tcdo.affine

    trackers = _recording_trackers(monkeypatch)
    monkeypatch.setattr(tcdo.affine, "_span_columns", columns)
    dims = {n: irreducible_dims(n, 4) for n in range(4)}
    fill = _fill(trackers)
    singular = {n: singular_bidegrees(n, 3, tcdo.affine._default_mu_window(n, 3)) for n in range(3)}
    return dims, singular, fill


def test_span_columns_keep_every_dim_and_cut_the_fill(monkeypatch):
    # the leading-word-first numbering against the basis order: the same
    # dims and singular bidegrees, and strictly fewer nonzero echelon entries
    # (4061 against 4346 when this was written)
    import tcdo.affine

    dims, singular, fill = _oracle_under(monkeypatch, tcdo.affine._span_columns)
    basis_dims, basis_singular, basis_fill = _oracle_under(
        monkeypatch, lambda words: {w: i for i, w in enumerate(words)}
    )
    assert dims == basis_dims
    assert singular == basis_singular
    assert fill < basis_fill


def test_singular_descendants_enter_first_and_cut_the_fill(monkeypatch):
    # each bidegree's span takes the images of the singular vector's
    # descendants before the Sugawara images, each one growing it, and keeps
    # fewer echelon entries than the Sugawara-first order of
    # ref_irreducible_dims (4061 against 12628 when this was written)
    trackers = _recording_trackers(monkeypatch)
    for n in range(4):
        start = len(trackers)
        irreducible_dims(n, 4)
        spans = iter(trackers[start:])
        for d in range(5):
            for mu in _default_mu_window(n, 4):
                descendants = len(verma_basis(-n - 2, d, mu))
                grew = next(spans).grew
                assert len(grew) >= descendants and all(grew[:descendants]), (n, d, mu)
        assert next(spans, None) is None
    fill = _fill(trackers)
    trackers.clear()
    for n in range(4):
        ref_irreducible_dims(n, 4, _default_mu_window(n, 4))
    assert fill < _fill(trackers)


def test_quotient_depth_zero_is_f0_orbit():
    for j in range(-2, 6):
        assert restricted_verma_dim(3, 0, 3 - 2 * j) == (1 if j >= 0 else 0)


def test_irreducible_oracle_matches_closed_form():
    for n in range(4):
        assert irreducible_char_oracle(n, 3) == char_L(n, 3)


def test_irreducible_oracle_top_coefficient():
    for n in (0, 2, 5):
        assert irreducible_char_oracle(n, 0).coeffs[0] == n + 1


def test_irreducible_oracle_rejects_negative():
    with pytest.raises(ValueError):
        irreducible_dims(-2, 1)


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
                assert len(verma_basis(n, d, mu)) == len(
                    sections_bidegree(Chart.ZERO, n, d, mu, tower=True)
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
    ldims = irreducible_dims(n, d_max)
    for key, (_, _, _, rk) in table.items():
        assert rk == ldims[key]
    # the quotient column is the dimension the command checks the rank
    # against: L_n at n >= 0, M_{n/z} below
    for n in range(-3, 3):
        table = verma_to_sections(n, d_max)
        assert table
        if n >= 0:
            ldims = irreducible_dims(n, d_max)
        for (d, mu), (_, quotient, _, _) in table.items():
            assert quotient == (ldims[(d, mu)] if n >= 0 else restricted_verma_dim(n, d, mu))


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


# -- the shared word replay against the state path ----------------------------------
#
# verma_to_sections replays its PBW words with _replay over the integer
# currents of _sl2_currents; the reference replays the same words through
# FreeState and apply_mode.  At negative n a corrupted current keeps every
# rank full, so this word-by-word comparison is what catches one there.

REPLAY_DEPTH = 5


@functools.lru_cache(maxsize=None)
def _replay_reference(n):
    """Every word verma_to_sections(n, 5) replays, each with its state-path
    image as a {4-tuple: coefficient} dict; shared by the tests below."""
    window = _default_mu_window(n, REPLAY_DEPTH)
    words = [w for d in range(REPLAY_DEPTH + 1) for mu in window for w in verma_basis(n, d, mu)]
    images = ref_verma_images(n, words)
    return tuple((w, {tuple(mono): c for mono, c in img.terms.items()}) for w, img in zip(words, images))


def _replay_mismatches(replay=_replay, currents=None, ns=range(-3, 3), depth_max=REPLAY_DEPTH):
    """The (n, word) on which ``replay`` over ``currents`` (by default the
    integer ZERO-chart ones) differs from the state path or keeps a zero
    coefficient, over the words of depth <= depth_max, and the number of
    words compared."""
    currents = currents or _sl2_currents(Chart.ZERO)
    bad, cases = [], 0
    for n in ns:
        def act_one(gen, m, items):
            return _act(currents[gen], m, items, n)

        memo = {(): ((VACUUM_MONO, 1),)}
        for word, want in _replay_reference(n):
            if word_depth(word) <= depth_max:
                cases += 1
                got = replay(word, act_one, memo)
                if dict(got) != want or any(c == 0 for _, c in got):
                    bad.append((n, word))
    return bad, cases


def test_replay_matches_the_state_path_word_by_word():
    bad, cases = _replay_mismatches()
    assert bad == []
    assert cases > 10000


def test_replay_certificate_catches_a_skipped_head_action():
    def headless(word, act_one, memo):
        return _replay(word[1:], act_one, memo) if word else memo[()]

    bad, _ = _replay_mismatches(headless, ns=(-1, 0), depth_max=2)
    assert bad


@pytest.mark.parametrize("gen", ["e", "h"])
def test_replay_certificate_catches_a_corrupted_current(gen):
    # one coefficient off by one: e_(-1) a_(-1) becomes 2 a_(-1), and h's
    # -2 a_(-1) x becomes -a_(-1) x
    currents = _sl2_currents(Chart.ZERO)
    (key, c), *rest = currents[gen]
    currents[gen] = ((key, c + 1), *rest)
    bad, _ = _replay_mismatches(currents=currents, ns=(-3,), depth_max=3)
    assert bad


def test_corrupted_lowering_current_fails_verma_vs_sections(monkeypatch, capsys):
    # f's B_(-2) coefficient -2 becomes -1; at n = 0..1 the rank then falls
    # short of an irreducible dimension
    import tcdo.affine

    real = tcdo.affine._sl2_currents
    b2 = ((), (-2,), (), 0)

    def corrupted(chart):
        currents = real(chart)
        assert (b2, -2) in currents["f"]
        currents["f"] = tuple((k, -1 if k == b2 else c) for k, c in currents["f"])
        return currents

    monkeypatch.setattr(tcdo.affine, "_sl2_currents", corrupted)
    assert main(["affine", "verma-vs-sections", "--n", "0..1", "--depth", "3", "--format", "json"]) == 1
    capsys.readouterr()


def test_irreducible_dims_match_the_from_scratch_replay():
    for n in range(4):
        assert irreducible_dims(n, 4) == ref_irreducible_dims(n, 4, _default_mu_window(n, 4))


def test_act_word_composition():
    v = highest_weight_vector(Fraction(2))
    w = act("e", -1, act("f", 0, v))
    assert all(word_depth(t) == 1 and word_h_shift(t) == 0 for t in w.terms)
