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
of a residue-n state to x^(n-j), and of a symbolic state to x^(-j).  Glued
coefficients of a shape with d A-modes have degree <= d in (j, n): a shape is
glued in d + 1 integer sectors and interpolated in n for all the others.

Every section basis of one bidegree is ``sections_bidegree``, read off the
walk ``modespace.normal_forms`` with the lambda*-tower clamped to the residue
or left free (``tower``); only the ground power that lands on the h-weight
depends on the chart.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
import math
from operator import mul
import random

from . import _register_containers, _registered
from .linalg import _integer_row, _merge
from .modespace import (
    GEN_A,
    GEN_B,
    GEN_LSTAR,
    LAURENT,
    POLY,
    FreeState,
    Monomial,
    _act,
    _exact_div,
    _flat,
    _head,
    _nonzero,
    _shared,
    _terms,
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


def _differences(ys: list) -> tuple:
    """The forward differences of values at t = 0, 1, ...: their coefficients on C(t, 0), C(t, 1), ..."""
    out = []
    while ys:
        out.append(ys[0])
        ys = [y1 - y0 for y0, y1 in zip(ys, ys[1:])]
    return tuple(out)


# the integer sectors each shape was glued in directly: its interpolation nodes
_SECTORS: dict[tuple, list] = {}
_register_containers(__name__, _SECTORS=_SECTORS)


@_registered
@lru_cache(maxsize=None)
def _glue_table(shape: tuple, ls) -> tuple:
    """The glued image of the INFTY mode shape (amodes, bmodes, lmodes) of
    sector ls as a polynomial in its ground power k: ((key, diffs), ...),
    where the term keyed (amodes', bmodes', lmodes', q) is the monomial
    (amodes', bmodes', lmodes', q - k) with coefficient sum_i diffs[i] * C(k, i).

    The symbolic sector and a shape's nodes, the first len(amodes) + 1
    integer sectors that ask for it (kept in ``_SECTORS``), are glued
    directly: the head/tail recursion (the head generator's symbolic image
    acts on the glued tail) glues the shape at k = 0..len(amodes), and
    ``diffs`` are the integer Newton forward differences over these samples.
    They determine the polynomial for every integer k: h-weight is
    preserved, so each output power is (ls or 0) - k plus a shift fixed by
    its modes, and k enters a coefficient only where the A_(0) of an image
    contracts with the ground power of the glued tail (in
    ``_contractions``).  Each symbolic image carries at most one A-mode, so
    the degree in k is at most len(amodes).

    An integer sector n enters only by that ground power n - k and the
    scalar n of LSTAR_(0), so with keys normalized to q - n, diffs[i] has
    degree <= len(amodes) - i in n.  Every other integer sector takes the
    Lagrange value at n of the node tables, with no new gluing: den, the
    Vandermonde product of the nodes, clears the Lagrange denominators, and
    an entry it does not divide (a degree past the bound) raises
    InexactDivisionError."""
    nodes = [ls] if ls is None else _SECTORS.setdefault(shape, [])
    samples = len(shape[0]) + 1
    if ls not in nodes and len(nodes) == samples:
        den = math.prod(y - x for s, x in enumerate(nodes) for y in nodes[s + 1:])
        sums: dict[tuple, list] = {}
        for s, n in enumerate(nodes):
            others = nodes[:s] + nodes[s + 1:]
            w = den // math.prod(n - o for o in others) * math.prod(ls - o for o in others)
            for (a, b, lm, q), diffs in _glue_table(shape, n):
                row = sums.setdefault((a, b, lm, q - n + ls), [0] * samples)
                for i, d in enumerate(diffs):
                    row[i] += w * d
        return tuple((key, tuple(_exact_div(c, den) for c in row)) for key, row in sums.items())
    if ls not in nodes:
        nodes.append(ls)
    values: dict[tuple, list] = {}
    for k in range(samples):
        head = _head(shape + (k,))
        if head is None:
            out = {((), (), (), (ls or 0) - k): 1}
        else:
            gen, m, tail = head
            out = _act(_SYMBOLIC_IMAGES[gen], m, _terms(_glue_mono(tail, ls)), ls)
        for (a, b, lm, power), c in out.items():
            values.setdefault((a, b, lm, power + k), [0] * samples)[k] = c
    return tuple((key, _differences(ys)) for key, ys in values.items())


# entries after one request: 130 on `cech-scan` (cold and warm passes),
# 1268 on `cech --n -4..4 --weight-max 7`, 6285 on `affine singular --n 0
# --weight-max 7 --depth 5` (87 MB peak, 16.6 MB of them these images as
# flat term tuples; 122 MB and 38.3 MB as tuples of (key, coeff) pairs, and
# 162 MB with a fresh tuple per key as well) and 11,483 at its weight
# ceiling (677k hits)
@_registered
@lru_cache(maxsize=16384)
def _glue_mono(mono: tuple, ls) -> tuple:
    """The glued image of one INFTY monomial 4-tuple of sector ls as the
    flat term tuple (4-tuple, int coeff, 4-tuple, int coeff, ...)
    (``_flat``): its shape's ``_glue_table`` evaluated at the ground power,
    each key the intern table's own tuple (``_shared``), which the engine's
    output keys and every other cached image share."""
    shape, k = mono[:3], mono[3]
    weights = [binom(k, i) for i in range(len(shape[0]) + 1)]
    return _flat(
        (_shared((a, b, lm, q - k)), c)
        for (a, b, lm, q), diffs in _glue_table(shape, ls)
        if (c := sum(map(mul, diffs, weights)))
    )


def glue(u: FreeState) -> FreeState:
    """Push a state through the INFTY -> OVERLAP chart change, monomial by
    monomial: peel the head mode, map its generator through the symbolic
    images, and act on the glued tail (once per mode shape and sector, see
    ``_glue_table``).  The sector fixes the line-bundle transition: the
    ground y^k of a residue-n state lands on x^(n - k), and of a symbolic
    state on x^(-k)."""
    return linear_combination(
        ((c, _terms(_glue_mono(mono, u.lstar))) for mono, c in u.terms.items()),
        LAURENT,
        u.lstar,
    )


def _glued(pairs, ls) -> dict:
    """glue on integer (monomial 4-tuple, int) pairs of sector ls: the
    nonzero terms of the merged ``_glue_mono`` images, each scaled by its
    coefficient; a zero coefficient glues nothing."""
    out: dict = {}
    for mono, c in pairs:
        if c:
            _merge(out, _terms(_glue_mono(mono, ls)), c)
    return _nonzero(out)


def check_gluing_morphism(twist: int | None, samples: int = 100, seed: int = 42) -> CheckReport:
    """Exactness of glue(u_(m) v) = glue(u)_(m) glue(v): all generator pairs
    at m in {0, 1} (symbolic sector — these pin the vertex-algebra morphism),
    then `samples` pseudo-random pairs of weight <= 3 with v in sector
    ``twist`` (None for symbolic, or the residue n).

    In a specialized sector the left slot stays symbolic — the module carries
    an action of the chart algebra, not of itself — and the module side
    travels with the degree-n line-bundle transition:
    glue_n(u_(m) v) = glue_0(u)_(m) glue_n(v).

    The generator checks run on states.  Each sample decides on the integer
    core and builds no state: u and v are scaled to integers by their
    denominators du and dv, and both sides, over du * dv, are compared as
    integer dicts, the left one the ``_glued`` image of ``_act``'s output,
    the right one ``_act`` on the ``_glued`` images of u and v.  The draws
    and the failure text are those of the same check on states, which
    ``tests/references.py`` keeps as the reference."""
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

    def trial(rng, i):
        u = random_state(rng, 3, ring=POLY)
        v = random_state(rng, 3, ring=POLY, lstar=twist)
        m = rng.randint(-2, 2)
        (urow, _), (vrow, _) = _integer_row(u.terms), _integer_row(v.terms)
        lhs = _glued(_act(urow.items(), m, vrow.items(), twist).items(), twist)
        rhs = _act(_glued(urow.items(), None).items(), m, _glued(vrow.items(), twist).items(), twist)
        ok = lhs == _nonzero(rhs)
        return ok, lambda: f"sample {i}: ({u.render('y')})_({m}) {v.render('y')}"

    return rep.sample(random.Random(seed), samples, trial)


def check_involution(twist: int | None, weight_max: int = 4) -> CheckReport:
    """glue after its mirror is the identity on every overlap basis monomial
    of sector ``twist`` (``sections_bidegree``, the tower left free in the
    symbolic sector) with weight <= weight_max and |twist-free h-weight| <=
    2 weight_max + 4.  The mirror is the same formula with the letters
    exchanged, hence the same table in the shared representation, so the
    round trip glues twice.  Specialized sections round-trip through the
    degree-n transition (the two coordinate descriptions of the degree-n
    sheaf are identified by x^n, not by 1).  The round trip runs on the
    integer core: the ``_glued`` image of the monomial's ``_glue_mono``
    image is compared with {monomial: 1}, and no state is built."""
    rep = CheckReport("gluing-involution", details={"weight_max": weight_max})
    h_bound = 2 * weight_max + 4
    for weight in range(weight_max + 1):
        for mu in range(-h_bound, h_bound + 1):
            for mono in sections_bidegree(Chart.OVERLAP, 0, weight, mu, twist is None):
                ok = _glued(_terms(_glue_mono(mono, twist)), twist) == {mono: 1}
                rep.record(ok, "" if ok else f"round trip of {mono.render()}")
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


def _sl2_currents(chart: Chart) -> dict:
    """``sl2_embedding(chart)`` for the integer core, {gen: ((monomial
    4-tuple, int), ...)}; a non-integer coefficient raises ValueError."""
    rho = sl2_embedding(chart)
    if any(c.denominator != 1 for s in rho.values() for c in s.terms.values()):
        raise ValueError(f"the sl2 currents on the {chart.value} chart are not integral")
    return {g: tuple((tuple(k), int(c)) for k, c in s.terms.items()) for g, s in rho.items()}


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


def sections_bidegree(chart: Chart, n: int, weight: int, mu: int, tower: bool = False):
    """Normal-form monomial basis of the chart sections of the degree-n sheaf
    at one exact (weight, h-weight) bidegree: each mode shape of
    ``normal_forms(weight, tower)``, in its order, at the one ground power
    k = (n + shift - mu)/2 that lands on mu, where n + shift - mu is even and
    k >= 0 (any k on the overlap).  The basis is a list of ``Monomial``s; the
    state of one is ``FreeState({m: 1}, chart.ring, n)``.  Without the tower
    the monomials carry no LSTAR modes: the lambda*-tower is clamped to the
    residue n, and the spaces line up with the central quotient of the
    Verma module.  With it they keep the LSTAR modes of their shapes, the
    tower is left free, and the counts line up with raw PBW counts in the
    Verma module itself."""
    out = []
    for amodes, bmodes, lmodes, shift in normal_forms(weight, tower):
        k, odd = divmod(n + shift - mu, 2)
        if not odd and (k >= 0 or chart is Chart.OVERLAP):
            out.append(Monomial(amodes, bmodes, lmodes, k))
    return out
