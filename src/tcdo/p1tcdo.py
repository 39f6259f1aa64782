"""The projective-line layer: charts, the twisted gluing, the critical-level
sl2 embedding, its Sugawara image, and section spaces of the twisted sheaves.

The two affine charts carry the same free-field chart algebra; the overlap is
its Laurent extension.  Writing x for the coordinate on the ZERO chart and y
for the INFTY one, the gluing is

    y |-> x^{-1},    d_y |-> -a_(-1)x^2 - 2 d(x) + x_(-1) l*,    l* |-> l*,

and its mirror is the same formula with the letters exchanged, so in the
shared representation the gluing is an involution — which is exactly what
``check_involution`` verifies.  On the residue-n quotient the l*-term of the
d_y image collapses to "n times x", an equality of weight-indexed modes; the
recursion therefore always acts through the symbolic images, whose raw modes
on a specialized state produce precisely that collapse.

Module sections of the degree-n sheaf glue with the extra line-bundle factor
x^n, so the sector of a state fixes its gluing: ``glue`` sends the ground y^j
of a residue-n state to x^(n-j), and of a symbolic state to x^(-j).

Section bases of one bidegree are read off the walk ``modespace.normal_forms``;
only the ground power that lands on the h-weight depends on the chart.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import mul
import random

from .modespace import (
    GEN_A,
    GEN_B,
    GEN_LSTAR,
    LAURENT,
    POLY,
    FreeState,
    Monomial,
    _act,
    _head,
    apply_mode,
    binom,
    gen_a,
    gen_lstar,
    ground,
    linear_combination,
    normal_forms,
    random_state,
    translation,
    vacuum,
    zero,
)
from .reports import CheckReport


class Chart(Enum):
    ZERO = "zero"
    INFTY = "infty"
    OVERLAP = "overlap"

    @property
    def ring(self) -> str:
        return LAURENT if self is Chart.OVERLAP else POLY


def include_overlap(u: FreeState) -> FreeState:
    """The restriction of a polynomial-chart state to the overlap."""
    return FreeState(u.terms, LAURENT, u.lstar)


# -- the gluing ---------------------------------------------------------------


# images of the INFTY generators on the overlap, as (monomial, int) pairs:
# y -> x^(-1), d_y -> -a_(-1)x^2 - 2 d(x) + x_(-1) l*, l* -> l*
_SYMBOLIC_IMAGES = {
    GEN_B: ((Monomial(power=-1), 1),),
    GEN_A: (
        (Monomial(amodes=(-1,), power=2), -1),
        (Monomial(bmodes=(-2,)), -2),
        (Monomial(lmodes=(-1,), power=1), 1),
    ),
    GEN_LSTAR: ((Monomial(lmodes=(-1,)), 1),),
}


@lru_cache(maxsize=None)
def _glue_shape(amodes: tuple, bmodes: tuple, lmodes: tuple, ls) -> tuple:
    """The glued image of the INFTY mode shape (amodes, bmodes, lmodes) of
    sector ls as a polynomial in its ground power k: ((key, diffs), ...),
    where the term keyed (amodes', bmodes', lmodes', q) is the monomial
    (amodes', bmodes', lmodes', q - k) with coefficient
    sum_i diffs[i] * C(k, i).

    The shape is glued by the head/tail recursion (the head generator's
    symbolic image acts on the glued tail) at the sample powers
    k = 0..len(amodes), and ``diffs`` are the integer Newton forward
    differences of each coefficient over the samples.  That many samples
    determine the polynomial.  h-weight is preserved, so each output power
    is (ls or 0) - k plus a shift fixed by its modes.  k enters a
    coefficient only where the A_(0) of an image contracts with the ground
    of the glued tail (in ``_contractions``): the factor is the ground
    power, linear in k.  Each symbolic image carries at most one A-mode, so
    a term picks up at most one such factor per A-mode of the shape, and
    its degree in k is at most len(amodes).  The identity holds for every
    integer k, negative ones included."""
    samples = len(amodes) + 1
    values: dict[tuple, list] = {}
    for k in range(samples):
        head = _head((amodes, bmodes, lmodes, k))
        if head is None:
            out = {((), (), (), (ls or 0) - k): 1}
        else:
            gen, m, tail = head
            out = _act(_SYMBOLIC_IMAGES[gen], m, _glue_mono(tail, ls), ls)
        for (a, b, lm, power), c in out.items():
            values.setdefault((a, b, lm, power + k), [0] * samples)[k] = c
    table = []
    for key, ys in values.items():
        diffs = []
        while ys:
            diffs.append(ys[0])
            ys = [y1 - y0 for y0, y1 in zip(ys, ys[1:])]
        table.append((key, tuple(diffs)))
    return tuple(table)


# one shared 4-tuple per distinct glued monomial: after cech_dims(0, 9) the
# memoized images of _glue_mono hold 977k terms over 19708 distinct keys, and
# sharing them took the peak RSS of `cech --n 0 --weight-max 10` from 672 to
# 411 MB
_GLUED_KEYS: dict[tuple, tuple] = {}


@lru_cache(maxsize=None)
def _glue_mono(mono: tuple, ls) -> tuple:
    """The glued image of one INFTY monomial 4-tuple of sector ls:
    ((4-tuple, int coeff), ...), its shape's ``_glue_shape`` table
    evaluated at the ground power.  Each output key is the one shared copy
    in ``_GLUED_KEYS``."""
    amodes, bmodes, lmodes, k = mono
    weights = [binom(k, i) for i in range(len(amodes) + 1)]
    out = []
    for (a, b, lm, q), diffs in _glue_shape(amodes, bmodes, lmodes, ls):
        c = sum(map(mul, diffs, weights))
        if c:
            key = (a, b, lm, q - k)
            out.append((_GLUED_KEYS.setdefault(key, key), c))
    return tuple(out)


def glue(u: FreeState) -> FreeState:
    """Push a state through the INFTY -> OVERLAP chart change, monomial by
    monomial: peel the head mode, map its generator through the symbolic
    images, and act on the glued tail (once per mode shape, see
    ``_glue_shape``).  The sector fixes the line-bundle
    transition: the ground y^k of a residue-n state lands on x^(n - k), and
    of a symbolic state on x^(-k)."""
    return linear_combination(
        ((c, _glue_mono(mono, u.lstar)) for mono, c in u.terms.items()),
        LAURENT,
        u.lstar,
    )


def check_gluing_morphism(twist: int | None, samples: int = 100, seed: int = 42) -> CheckReport:
    """Exactness of glue(u_(m) v) = glue(u)_(m) glue(v): all generator pairs
    at m in {0, 1} (symbolic sector — these pin the vertex-algebra morphism),
    then `samples` pseudo-random pairs of weight <= 3 with v in sector
    ``twist`` (None for symbolic, or the residue n).

    In a specialized sector the left slot stays symbolic — the module carries
    an action of the chart algebra, not of itself — and the module side
    travels with the degree-n line-bundle transition:
    glue_n(u_(m) v) = glue_0(u)_(m) glue_n(v)."""
    rep = CheckReport(
        "gluing-morphism",
        details={"samples": samples, "seed": seed, "transition_degree": twist or 0},
    )
    gens = {name: FreeState({mono: 1}) for name, mono in {
        "d_y": Monomial(amodes=(-1,)),
        "y": Monomial(power=1),
        "l*": Monomial(lmodes=(-1,)),
    }.items()}
    for xn, xi in gens.items():
        for en, eta in gens.items():
            for m in (0, 1):
                lhs = glue(apply_mode(xi, m, eta))
                rhs = apply_mode(glue(xi), m, glue(eta))
                rep.record(lhs == rhs, f"generators ({xn})_({m}) {en}")

    rng = random.Random(seed)
    if samples == 0:
        rep.details["warning"] = "samples = 0: sampled portion is vacuous"
    for i in range(samples):
        u = random_state(rng, 3, ring=POLY)
        v = random_state(rng, 3, ring=POLY, lstar=twist)
        m = rng.randint(-2, 2)
        lhs = glue(apply_mode(u, m, v))
        rhs = apply_mode(glue(u), m, glue(v))
        rep.record(
            lhs == rhs,
            f"sample {i}: ({u.render('y')})_({m}) {v.render('y')}",
        )
    return rep


def overlap_basis(weight_max: int, h_bound: int, lstar: int | None = None):
    """All overlap normal-form monomials with weight <= weight_max and
    |twist-free h-weight| <= h_bound."""
    out = []
    for weight in range(weight_max + 1):
        for amodes, bmodes, lmodes, shift in normal_forms(weight, lstar is None):
            # |shift - 2k| <= h_bound
            for k in range((shift - h_bound + 1) // 2, (shift + h_bound) // 2 + 1):
                out.append(Monomial(amodes, bmodes, lmodes, k))
    return out


def check_involution(twist: int | None, weight_max: int = 4) -> CheckReport:
    """glue after its mirror is the identity on every overlap basis monomial
    of sector ``twist`` with weight <= weight_max and |h-weight| <=
    2 weight_max + 4.  The mirror is the same formula with the letters
    exchanged, hence the same table in the shared representation, so the
    round trip glues twice.  Specialized sections round-trip through the
    degree-n transition (the two coordinate descriptions of the degree-n
    sheaf are identified by x^n, not by 1)."""
    rep = CheckReport("gluing-involution", details={"weight_max": weight_max})
    h_bound = 2 * weight_max + 4
    for mono in overlap_basis(weight_max, h_bound, twist):
        u = FreeState({mono: 1}, LAURENT, twist)
        rep.record(glue(glue(u)) == u, f"round trip of {mono.render()}")
    return rep


# -- the sl2 embedding ----------------------------------------------------------


def sl2_embedding(chart: Chart) -> dict[str, FreeState]:
    """Images of the sl2 generators e, h, f as weight-1 chart states
    (symbolic twist)."""
    if chart is Chart.OVERLAP:
        raise ValueError("the embedding is defined on the affine charts")
    a_x2 = FreeState({Monomial(amodes=(-1,), power=2): 1})
    a_x = FreeState({Monomial(amodes=(-1,), power=1): 1})
    x_l = FreeState({Monomial(lmodes=(-1,), power=1): 1})
    lowering = -1 * a_x2 - 2 * translation(ground(1)) + x_l
    if chart is Chart.ZERO:
        return {"e": gen_a(), "h": -2 * a_x + gen_lstar(), "f": lowering}
    return {"e": lowering, "h": 2 * a_x - 1 * gen_lstar(), "f": gen_a()}


# the sl2 structure constants: [x, y] = coeff * gen on ordered pairs (a
# missing pair brackets to zero), and the invariant form (x|y)
SL2_BRACKETS = {
    ("e", "f"): (1, "h"),
    ("f", "e"): (-1, "h"),
    ("h", "e"): (2, "e"),
    ("e", "h"): (-2, "e"),
    ("h", "f"): (-2, "f"),
    ("f", "h"): (2, "f"),
}

SL2_FORM = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}

# the raising generators (x, m) for x_(m): e_0, e_1, h_1 and f_1 generate the
# positive part of the affine algebra (Kac, Infinite-dimensional Lie algebras,
# 1.3), so a vector they kill is killed by every raising mode
RAISING = (("e", 0), ("e", 1), ("h", 1), ("f", 1))


def check_sl2_embedding(chart: Chart) -> CheckReport:
    """The level-(-2) affine sl2 relations for the embedded currents:
    rho(x)_(0) rho(y) = rho([x,y]) and rho(x)_(1) rho(y) = -2 (x|y) |0>."""
    rho = sl2_embedding(chart)
    rep = CheckReport("sl2-embedding", details={"chart": chart.value})
    for xn in "ehf":
        for yn in "ehf":
            br = SL2_BRACKETS.get((xn, yn))
            expect = zero() if br is None else br[0] * rho[br[1]]
            got = apply_mode(rho[xn], 0, rho[yn])
            rep.record(got == expect, f"[{xn},{yn}] on {chart.value}")
            pairing = SL2_FORM.get((xn, yn), 0)
            got = apply_mode(rho[xn], 1, rho[yn])
            rep.record(
                got == (-2 * pairing) * vacuum(),
                f"({xn}|{yn}) level term on {chart.value}",
            )
    return rep


def check_sl2_global() -> CheckReport:
    """The two chart embeddings agree on the overlap: the ZERO images included
    directly equal the INFTY images pushed through the gluing."""
    rep = CheckReport("sl2-global")
    rho0 = sl2_embedding(Chart.ZERO)
    rhoi = sl2_embedding(Chart.INFTY)
    for name in "ehf":
        lhs = include_overlap(rho0[name])
        rhs = glue(rhoi[name])
        rep.record(lhs == rhs, f"rho({name}) glues globally")
    return rep


def sugawara_image(rho: dict[str, FreeState]) -> FreeState:
    """rho(e)_(-1) rho(f) + rho(f)_(-1) rho(e) + 1/2 rho(h)_(-1) rho(h)."""
    e, h, f = rho["e"], rho["h"], rho["f"]
    return (
        apply_mode(e, -1, f)
        + apply_mode(f, -1, e)
        + Fraction(1, 2) * apply_mode(h, -1, h)
    )


def sugawara_zero_mode_value(n: int) -> Fraction:
    """Eigenvalue of the Sugawara zero mode (the weight-degree operator's
    central companion) on the residue-n quotient's ground states."""
    s = sugawara_image(sl2_embedding(Chart.ZERO))
    got = apply_mode(s, 1, vacuum(lstar=n))  # weight-2 state: zero mode = _(1)
    if got.is_zero:
        return Fraction(0)
    if set(got.terms) != {Monomial()}:
        raise ValueError(f"Sugawara zero mode is not a scalar on n={n}: {got.render()}")
    return got.terms[Monomial()]


# -- section spaces ---------------------------------------------------------------


def _ground_power(chart: Chart, shift: int, mu: int) -> int | None:
    """The ground exponent k with h-weight shift - 2k = mu, or None when
    there is none on the chart (parity, or k < 0 on a polynomial chart)."""
    k, odd = divmod(shift - mu, 2)
    if odd or (k < 0 and chart is not Chart.OVERLAP):
        return None
    return k


def sections_bidegree(chart: Chart, n: int, weight: int, mu: int):
    """Normal-form monomial basis of the chart sections of the degree-n sheaf,
    residue-n specialized, at one exact (weight, h-weight) bidegree: each
    A/B mode shape of ``normal_forms(weight)``, in its order, with the one
    ground power that lands on mu.  The basis is a list of ``Monomial``s with
    no LSTAR modes; the state of one is ``FreeState({m: 1}, chart.ring, n)``."""
    out = []
    for amodes, bmodes, _, shift in normal_forms(weight):
        k = _ground_power(chart, n + shift, mu)
        if k is not None:
            out.append(Monomial(amodes, bmodes, (), k))
    return out


def unclamped_sections_dim(chart: Chart, n: int, weight: int, mu: int) -> int:
    """Monomial count at one bidegree with the central lambda*-tower left
    free instead of clamped to the residue n.  The free tower restores the
    third mode family, which is what lines up with raw PBW counts in the
    Verma module (the clamped spaces line up with its central quotient)."""
    return sum(
        _ground_power(chart, n + shift, mu) is not None
        for *_, shift in normal_forms(weight, True)
    )
