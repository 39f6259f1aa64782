"""Exact mode calculus for the free-field chart model of a twisted CDO.

The chart algebra is generated by three currents:

* ``A`` -- the derivation current (the lift of d/dx), conformal weight 1;
* ``B`` -- the coordinate current x, conformal weight 0;
* ``LSTAR`` -- the central twist current, conformal weight 1.

All mode indices use the universal convention ``v(z) = sum_m v_(m) z^(-m-1)``,
so the weight-k component of a weight-Delta vector is its ``(k + Delta - 1)``
mode.  The only non-trivial bracket is ``[A_(r), B_(t)] = delta_{r+t,-1}``;
LSTAR commutes with everything and pairs to zero.

States are finite rational combinations of normal-form monomials: A-modes,
then B-modes, then LSTAR-modes (each with weakly decreasing |mode|), applied
to a ground monomial ``x^k``.  ``B_(-1)`` is multiplication by x and is
absorbed into the ground exponent, so stored B-modes are all <= -2.  Ground
exponents are >= 0 over a polynomial chart (``POLY``) and any integer over
the punctured chart (``LAURENT``).  ``normal_forms`` is the one walk over
the normal form: it lists the mode shapes of one exact conformal weight, with
or without the LSTAR tower, and every section basis is read off it.

The twist sector is either symbolic (``lstar=None``: LSTAR-modes are free
commuting variables) or specialized at an integer n (``lstar=n``): then the
module carries no LSTAR-modes at all, creation modes of LSTAR act as 0 and
its zero mode acts as the scalar n, which is the mode transcription of the
residue-n character n/z.

State coefficients are ``fractions.Fraction``; floats are rejected
everywhere.  All operations return new states (value semantics).
``apply_mode`` computes the module action w_(m) u by structural recursion on
w and is exact.  Its per-monomial core is memoized, which is a pure cache and
never changes results, and works on ``int`` structure constants only: the
modes of the normally ordered ``x(z)^k`` have integer coefficients, so the one
division of the recursion (``_ground_apply``) is exact, and ``_exact_div``
certifies that it is, raising instead of rounding.

The core (``_apply_mono`` and the helpers it calls) names a monomial by a
small int id: one intern table maps each plain 4-tuple ``(amodes, bmodes,
lmodes, power)`` to its id and back (hash-consing; Filliâtre and Conchon,
"Type-safe modular hash-consing", 2006), so its memo probes and merged dicts
hash ints instead of four nested tuples.  The weight and the head/tail split
of an id are read off the table, a creation-mode rewrite of an id and the
contractions of an id are memoized, and no id ever decides an order: terms
keep their insertion order.  Its recursion pays only for modes that can act:
a creation mode is a key rewrite of each term (``_gen_mode_terms``), and of
the annihilation modes it runs only those that contract with the target
(``_contractions``).  Nor does it enter an action that Wick's theorem proves
zero: w_(m) u has no terms once m reaches the total pole order that
contractions between w and u can produce (``_poles``, read off a per-id
record of A, B and LSTAR weights), so the recursion skips every such
action (Kac, *Vertex Algebras for Beginners*, 3.3).  The bound only proves
zeros; every result is term for term the one of the recursion bounded by
conformal weight alone.  Ids never leave this module.  ``_act``, which the
gluing (``_glue_table``), the H^0 scan and the word replay call, takes and
returns (4-tuple, int) pairs, its output keyed by the table's shared tuples,
which key the gluing's memoized images (``_glue_mono``) too (``_shared``);
``apply_mode`` and the sampled checks intern their integer rows once and
run every nested action on ids.  Every memoized term list, of
``_apply_mono`` and of ``_glue_mono``, is one flat tuple (k0, c0, k1, c1,
...) of the terms in their order, zero sums included where the recursion
keeps them: ``_flat`` builds it and ``_terms`` reads it back as pairs
(``zip`` over one iterator), so a cached term costs two references and no
pair object of its own.  The gluing runs ``_act`` once per mode shape, at a
few sample ground powers, and reads every other power off the interpolating
polynomial: a ground power enters a structure constant only through the
A_(0) contraction with the ground in ``_contractions``, which is linear in
it.  ``Monomial`` is the validated form of the 4-tuple: a
``tuple`` subclass that equals and hashes as its fields, so the table finds
plain tuples and monomials alike.  Validation and ``Fraction`` enter only at
the public boundary: ``_state`` turns every output key of ``apply_mode``,
``linear_combination`` and ``glue`` into a ``Monomial``, and a ``FreeState``
rejects any other key.  The sampled identity checks of
``engine_property_suite`` never cross that boundary: each scales its drawn
states to integers once and compares integer dicts over their common
denominators (``check_borcherds`` sums each side of the Borcherds identity
as one such dict), so a passing sample builds no state at all.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from . import _register_containers, _registered
from .linalg import LinearCombination, _integer_row, _merge
from .reports import CheckReport

POLY = "poly"
LAURENT = "laurent"

GEN_A = "A"
GEN_B = "B"
GEN_LSTAR = "L"


class RingMismatchError(ValueError):
    """A Laurent state was used where only a polynomial one is allowed."""


class SpecializationError(ValueError):
    """Incompatible symbolic/specialized twist sectors."""


class InexactDivisionError(ArithmeticError):
    """An integer structure constant was not divisible where it must be."""


def binom(n: int, j: int) -> int:
    """Binomial coefficient C(n, j) for any integer n and j >= 0."""
    if j < 0:
        raise ValueError("lower index must be >= 0")
    if n >= 0:
        return math.comb(n, j) if j <= n else 0
    return (-1) ** j * math.comb(-n + j - 1, j)


def _out_of_order(modes: tuple[int, ...], top: int) -> bool:
    """True unless the nonempty ``modes`` is sorted ascending with every
    entry <= top; for a sorted tuple the last entry is the largest.  An
    entry that is not an int raises TypeError, checked by one cheap sum: a
    float or Fraction entry makes it a float or a Fraction."""
    if type(sum(modes)) is not int:
        raise TypeError(f"mode entries must be ints, got {modes}")
    return modes[-1] > top or (len(modes) > 1 and list(modes) != sorted(modes))


def _weight(mono: tuple) -> int:
    """Conformal weight of a monomial 4-tuple: |m| per A/LSTAR mode, |m|-1
    per B mode, 0 for ground."""
    amodes, bmodes, lmodes, _ = mono
    return -sum(amodes) - sum(bmodes) - len(bmodes) - sum(lmodes)


def _h_shift(mono: tuple) -> int:
    """Twist-free h-weight of a monomial 4-tuple: +2 per A mode, -2 per B
    mode and per ground power."""
    return 2 * len(mono[0]) - 2 * len(mono[1]) - 2 * mono[3]


class Monomial(tuple):
    """One normal-form basis monomial: mode tuples plus the ground exponent.

    Mode tuples are sorted ascending (most negative first), which realizes
    the weakly-decreasing-|m| normal order.  A monomial is the validated
    4-tuple (amodes, bmodes, lmodes, power): it compares, sorts and hashes
    as that tuple, so it equals the plain tuple with the same fields.
    """

    __slots__ = ()

    def __new__(cls, amodes: tuple[int, ...] = (), bmodes: tuple[int, ...] = (),
                lmodes: tuple[int, ...] = (), power: int = 0) -> "Monomial":
        if (
            (amodes and _out_of_order(amodes, -1))
            or (bmodes and _out_of_order(bmodes, -2))
            or (lmodes and _out_of_order(lmodes, -1))
        ):
            raise ValueError(
                f"mode tuples must be sorted ascending with A/LSTAR modes <= -1 "
                f"and B modes <= -2, got {amodes}, {bmodes}, {lmodes}"
            )
        if type(power) is not int:
            raise TypeError(f"the ground power must be an int, got {type(power).__name__} {power!r}")
        return tuple.__new__(cls, (amodes, bmodes, lmodes, power))

    def __getnewargs__(self) -> tuple:
        # pickle and copy rebuild through __new__, which takes four fields
        return tuple(self)

    def __repr__(self) -> str:
        return "Monomial(amodes=%r, bmodes=%r, lmodes=%r, power=%r)" % self

    amodes = property(itemgetter(0))
    bmodes = property(itemgetter(1))
    lmodes = property(itemgetter(2))
    power = property(itemgetter(3))

    weight = property(_weight)
    h_shift = property(_h_shift)

    def render(self, letter: str = "x") -> str:
        parts = [f"a({m})" for m in self.amodes]
        parts += [f"{letter}({m})" for m in self.bmodes]
        parts += [f"l*({m})" for m in self.lmodes]
        if self.power == 1:
            parts.append(letter)
        elif self.power:
            parts.append(f"{letter}^{self.power}")
        return " ".join(parts) if parts else "|0>"


VACUUM_MONO = Monomial()


def _partitions(budget: int, exact: bool):
    """Partitions into weakly decreasing parts with sum <= budget (== budget
    when ``exact``), in depth-first preorder: a prefix before its
    extensions, smaller next parts first."""
    def rec(prefix, remaining, top):
        if not exact or not remaining:
            yield prefix
        for part in range(1, min(remaining, top) + 1):
            yield from rec(prefix + (part,), remaining - part, part)
    return rec((), budget, budget)


@_registered
@lru_cache(maxsize=64)
def normal_forms(weight: int, tower: bool = False) -> tuple:
    """Every normal-form mode shape of conformal weight exactly ``weight``:
    ((amodes, bmodes, lmodes, h_shift), ...), where h_shift is the twist-free
    h-weight of the modes (the ground power adds -2 per x).  Without the
    LSTAR ``tower`` every lmodes is ().  The walk is depth-first: A-mode
    tuples of every weight <= ``weight``, then B-mode tuples, then LSTAR-mode
    tuples filling the rest, each family in ``_partitions`` order; basis
    coordinates (Cech kernel vectors among them) are taken over this order."""
    out = []
    for apart in _partitions(weight, False):
        amodes = tuple(-p for p in apart)
        rest = weight - sum(apart)
        for bpart in _partitions(rest, not tower):
            bmodes = tuple(-p - 1 for p in bpart)
            shift = 2 * len(amodes) - 2 * len(bmodes)
            lparts = _partitions(rest - sum(bpart), True) if tower else [()]
            for lpart in lparts:
                out.append((amodes, bmodes, tuple(-p for p in lpart), shift))
    return tuple(out)


class FreeState(LinearCombination):
    """A finite rational combination of normal-form monomials.

    ``ring`` is POLY or LAURENT; ``lstar`` is None for the symbolic twist
    sector or the integer n of the specialized one.  Instances are treated
    as immutable values: every operation builds a new state.
    """

    __slots__ = ("ring", "lstar")
    _SECTOR = ("ring", "lstar")

    def __init__(self, terms=None, ring: str = POLY, lstar: int | None = None):
        if ring not in (POLY, LAURENT):
            raise ValueError(f"unknown ground ring {ring!r}")
        if lstar is not None and type(lstar) is not int:
            raise TypeError(f"the twist sector must be None or an int, got {type(lstar).__name__} {lstar!r}")
        self.ring = ring
        self.lstar = lstar
        super().__init__(terms)

    def _check_key(self, mono: Monomial) -> None:
        if not isinstance(mono, Monomial):
            raise TypeError(f"state keys must be Monomials, got {type(mono).__name__} {mono!r}")
        if self.ring == POLY and mono.power < 0:
            raise RingMismatchError(
                f"negative ground exponent {mono.power} in a polynomial-chart state"
            )
        if self.lstar is not None and mono.lmodes:
            raise SpecializationError("specialized states carry no LSTAR modes")

    def _join(self, other: "FreeState") -> tuple[str, int | None]:
        """Common (ring, lstar) sector for adding two states."""
        if self.lstar != other.lstar:
            raise SpecializationError(f"twist sectors differ: {self.lstar} vs {other.lstar}")
        return (LAURENT if LAURENT in (self.ring, other.ring) else POLY), self.lstar

    # -- grading ----------------------------------------------------------

    def weights(self) -> set[int]:
        return {m.weight for m in self.terms}

    def render(self, letter: str = "x") -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (m.weight, m)):
            c = self.terms[mono]
            bits.append(f"({c}) {mono.render(letter)}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        tag = "sym" if self.lstar is None else f"n={self.lstar}"
        return f"<FreeState {self.ring}/{tag}: {self.render()}>"


# -- constructors ---------------------------------------------------------


def zero(ring: str = POLY, lstar: int | None = None) -> FreeState:
    return FreeState({}, ring, lstar)


def vacuum(ring: str = POLY, lstar: int | None = None) -> FreeState:
    return FreeState({VACUUM_MONO: 1}, ring, lstar)


def ground(k: int, ring: str = POLY, lstar: int | None = None) -> FreeState:
    """The ground monomial x^k (k any integer over LAURENT, k >= 0 over POLY)."""
    if k < 0 and ring == POLY:
        raise RingMismatchError("x^k with k < 0 needs the LAURENT ring")
    return FreeState({Monomial(power=k): 1}, ring, lstar)


def gen_a(ring: str = POLY, lstar: int | None = None) -> FreeState:
    """The derivation generator state a_(-1)|0>."""
    return FreeState({Monomial(amodes=(-1,)): 1}, ring, lstar)


def gen_b(ring: str = POLY, lstar: int | None = None) -> FreeState:
    """The coordinate generator state x|0>."""
    return ground(1, ring, lstar)


def gen_lstar(ring: str = POLY) -> FreeState:
    """The twist generator state l*_(-1)|0> (symbolic sector only)."""
    return FreeState({Monomial(lmodes=(-1,)): 1}, ring, None)


# -- the intern table ---------------------------------------------------------
#
# The id of a monomial is its index in ``_MONOS``.  An id means nothing once
# the table is cleared, so ``tcdo.clear_caches`` empties the table, every
# id-keyed memo below and ``_apply_mono``'s cache together.

_MONOS: list[tuple] = []  # id -> monomial 4-tuple
_IDS: dict[tuple, int] = {}  # monomial 4-tuple -> id
_REACH: list[tuple] = []  # id -> its _reach record
_HEADS: dict[int, tuple | None] = {}  # id -> (generator, mode, tail id), or None
_CREATED: dict[tuple, dict] = {}  # (generator, mode) -> {id: id of the created monomial}
_CONTRACTED: dict[tuple, tuple] = {}  # (generator, id) -> its _contractions
_register_containers(__name__, _MONOS=_MONOS, _IDS=_IDS, _REACH=_REACH, _HEADS=_HEADS,
                     _CREATED=_CREATED, _CONTRACTED=_CONTRACTED)


def _intern(mono) -> int:
    """The id of a monomial 4-tuple (or ``Monomial``); a new one enters the
    table as its plain tuple."""
    i = _IDS.get(mono)
    if i is None:
        mono = tuple(mono)
        i = _IDS[mono] = len(_MONOS)
        _MONOS.append(mono)
        _REACH.append(_reach(mono))
    return i


def _shared(mono) -> tuple:
    """The table's own tuple for a monomial 4-tuple (never its id)."""
    return _MONOS[_intern(mono)]


def _reach(mono) -> tuple:
    """(A weight, B weight, LSTAR weight, has A-modes, has B-modes or a
    nonzero ground power) of a monomial 4-tuple: the weights are the parts of
    its conformal weight carried by each mode family, and the flags say
    which fields a contraction with it can use."""
    amodes, bmodes, lmodes, power = mono
    return -sum(amodes), -sum(bmodes) - len(bmodes), -sum(lmodes), bool(amodes), bool(bmodes) or power != 0


def _poles(w: int, u: int, ls) -> int:
    """A bound on the pole order of w(z) u for the monomials with ids w and
    u: w_(m) u has no terms at all for m >= _poles(w, u, ls).  By Wick's
    theorem the singular part of w(z) u is a sum over contractions of an
    A field of one side with a B field (a B-mode or the ground x^k) of the
    other, and contracting A_(-s) with a B field of weight t has a pole of
    order s + t, so the pole orders of any set of contractions add up to at
    most the A and B weights of the fields that have a partner.  In a sector
    ls != 0 the LSTAR modes of w act through ls/z, a pole of order s for
    each LSTAR_(-s); symbolic LSTAR and ls = 0 contribute nothing."""
    wa, wb, wl, w_has_a, w_has_b = _REACH[w]
    ua, ub, _, u_has_a, u_has_b = _REACH[u]
    return (
        (wa if u_has_b else 0) + (wb if u_has_a else 0)
        + (ua if w_has_b else 0) + (ub if w_has_a else 0)
        + (wl if ls else 0)
    )


def _head_id(w: int):
    """``_head`` of the monomial with id w, its tail as an id."""
    if w not in _HEADS:
        head = _head(_MONOS[w])
        _HEADS[w] = head and (head[0], head[1], _intern(head[2]))
    return _HEADS[w]


# -- single generator modes ------------------------------------------------


def _insort(tup: tuple[int, ...], m: int) -> tuple[int, ...]:
    i = bisect(tup, m)
    return tup[:i] + (m,) + tup[i:]


def _remove_one(tup: tuple[int, ...], m: int) -> tuple[int, ...]:
    lst = list(tup)
    lst.remove(m)
    return tuple(lst)


def _gen_mode_terms(out: dict, gen: str, m: int, terms, ls, scale: int = 1) -> dict:
    """out += scale * g_(m) terms for one creation mode g_(m), m <= -1, on
    (id, coefficient) pairs; returns ``out``.  All creation modes commute,
    so each monomial is rewritten by a normal-form insert with coefficient
    1, memoized per (g, m, id); distinct monomials stay distinct, so no two
    terms merge.  In a specialized sector (``ls`` an integer) every LSTAR
    creation mode acts as 0, its character value."""
    if gen == GEN_LSTAR and ls is not None:
        return out
    created = _CREATED.setdefault((gen, m), {})
    for u, c in terms:
        v = created.get(u)
        if v is None:
            a, b, lm, p = _MONOS[u]
            if gen == GEN_A:
                v = _intern((_insort(a, m), b, lm, p))
            elif gen == GEN_LSTAR:
                v = _intern((a, b, _insort(lm, m), p))
            else:
                v = _intern((a, b, lm, p + 1) if m == -1 else (a, _insort(b, m), lm, p))
            created[u] = v
        out[v] = out.get(v, 0) + scale * c
    return out


def _contractions(gen: str, u: int, ls) -> tuple:
    """(j, id, int coeff) for each annihilation mode g_(j), j >= 0, that does
    not kill the monomial with id u, in ascending j; every other g_(j) acts
    on u as 0.  An annihilation mode commutes through to the ground, picking
    up contractions: A_(0) with the ground x^power, A_(j) with each B-mode
    -1-j, B_(j) with each A-mode -1-j, and in a specialized sector LSTAR_(0)
    is the scalar ``ls``.  Symbolic LSTAR is central with zero pairing, so
    its annihilation modes all act as 0.  The A and B lists are memoized."""
    if gen == GEN_LSTAR:
        return ((0, u, ls),) if ls else ()
    out = _CONTRACTED.get((gen, u))
    if out is None:
        amodes, bmodes, lmodes, power = _MONOS[u]
        if gen == GEN_A:
            out = [(0, _intern((amodes, bmodes, lmodes, power - 1)), power)] if power else []
            for t in sorted(set(bmodes), reverse=True):
                out.append((-1 - t, _intern((amodes, _remove_one(bmodes, t), lmodes, power)), bmodes.count(t)))
        else:
            out = [
                (-1 - r, _intern((_remove_one(amodes, r), bmodes, lmodes, power)), -amodes.count(r))
                for r in sorted(set(amodes), reverse=True)
            ]
        out = _CONTRACTED[(gen, u)] = tuple(out)
    return out


# -- the structural recursion ----------------------------------------------


def _head(w: tuple):
    """(generator, mode, tail) for the leftmost mode of a monomial 4-tuple,
    or None for a pure ground monomial; the tail is a plain 4-tuple."""
    amodes, bmodes, lmodes, power = w
    if amodes:
        return GEN_A, amodes[0], (amodes[1:], bmodes, lmodes, power)
    if bmodes:
        return GEN_B, bmodes[0], ((), bmodes[1:], lmodes, power)
    if lmodes:
        return GEN_LSTAR, lmodes[0], ((), (), lmodes[1:], power)
    return None


def _flat(pairs) -> tuple:
    """(key, coefficient) pairs as one flat tuple (k0, c0, k1, c1, ...), in
    their order: the form of every memoized term list, which holds two
    references per term and no pair object.  Extending a list pair by pair
    measured faster than ``tuple(chain.from_iterable(pairs))`` on the short
    lists the engine builds."""
    flat = []
    for pair in pairs:
        flat += pair
    return tuple(flat)


def _terms(flat: tuple):
    """The (key, coefficient) pairs of a flat term tuple, in order."""
    it = iter(flat)
    return zip(it, it)


def _exact_div(num: int, den: int) -> int:
    """num / den for a division that must come out whole; the zero remainder
    is the certificate, and a nonzero one raises instead of rounding."""
    q, r = divmod(num, den)
    if r:
        raise InexactDivisionError(f"{num} is not divisible by {den}")
    return q


@_registered
@lru_cache(maxsize=None)
def _apply_mono(w: int, m: int, u: int, ls) -> tuple:
    """w_(m) u for the monomials with ids w and u, as the flat term tuple
    (id, int coeff, id, int coeff, ...) (``_flat``)."""
    head = _head_id(w)
    if head is None:
        out = _ground_apply(_MONOS[w][3], m, u, ls)
    else:
        gen, mode, tail = head
        s = -mode  # w = g_(-s) tail with s >= 1
        out = {}
        # (g_(-s) tail)_(m) u
        #   = sum_j C(s+j-1,j) [ g_(-s-j) (tail_(m+j) u)
        #                        - (-1)^s tail_(-s+m-j) (g_(j) u) ],
        # (-1)^j C(-s,j) = C(s+j-1,j); g_(-s-j) is a creation mode, and
        # tail_(m') v vanishes once m' reaches _poles(tail, v, ls); g_(j) u
        # is nonzero only for the j of _contractions, in ascending order
        for j in range(_poles(tail, u, ls) - m):
            inner = _apply_mono(tail, m + j, u, ls)
            if inner:
                _gen_mode_terms(out, gen, mode - j, _terms(inner), ls, math.comb(s + j - 1, j))
        sign = -((-1) ** s)
        for j, mono, c in _contractions(gen, u, ls):
            if mode + m - j < _poles(tail, mono, ls):
                inner = _apply_mono(tail, mode + m - j, mono, ls)
                _merge(out, _terms(inner), sign * math.comb(s + j - 1, j) * c)
    return _flat(out.items())


def _ground_apply(k: int, m: int, u: int, ls) -> dict[int, int]:
    """(x^k)_(m) u for the monomial with id u, including the vacuum case
    k = 0."""
    if k == 0:
        return {u: 1} if m == -1 else {}
    amodes, bmodes, lmodes, power = _MONOS[u]
    if amodes:
        # commute past the head A-mode: [x^k_(m), A_(r)] = -(d/dx x^k)_(m+r);
        # a nonzero ground power acting on the tail has poles only up to the
        # tail's A weight, and x^0 is the vacuum, nonzero at mode -1 alone
        _, r, tail = _head_id(u)
        reach = _REACH[tail][0]
        out = {}
        if m < reach:
            _gen_mode_terms(out, GEN_A, r, _ground_apply(k, m, tail, ls).items(), ls)
        if k == 1 or m + r < reach:
            _merge(out, _ground_apply(k - 1, m + r, tail, ls).items(), -k)
        return out
    if bmodes or lmodes:
        # B and LSTAR modes commute with ground multiplication
        out = _ground_apply(k, m, _intern(((), (), (), power)), ls)
        for mode in lmodes:
            out = _gen_mode_terms({}, GEN_LSTAR, mode, out.items(), ls)
        for mode in bmodes:
            out = _gen_mode_terms({}, GEN_B, mode, out.items(), ls)
        return out
    # pure ground target x^j
    if m >= 0:
        return {}
    if m == -1:
        return {_intern(((), (), (), k + power)): 1}
    # x^k_(m) = (1/(-m-1)) (d(x^k))_(m+1)   with   d(x^k) = k B_(-2) x^(k-1)
    inner = _apply_mono(_intern(((), (-2,), (), k - 1)), m + 1, u, ls)
    return {v: _exact_div(k * c, -m - 1) for v, c in _terms(inner)}


def _interned(terms) -> list[tuple[int, int]]:
    """(monomial 4-tuple, coefficient) pairs as (id, coefficient) pairs."""
    return [(_intern(mono), c) for mono, c in terms]


def _pairs(out: dict[int, int]):
    """The (monomial 4-tuple, coefficient) pairs of an id-keyed dict, each
    key the table's shared tuple, in the dict's order."""
    monos = _MONOS
    return ((monos[i], c) for i, c in out.items())


def _act_ids(wterms, m: int, uterms, ls) -> dict[int, int]:
    """w_(m) u on integer (id, coefficient) pairs."""
    out: dict[int, int] = {}
    for mw, cw in wterms:
        for mu, cu in uterms:
            _merge(out, _terms(_apply_mono(mw, m, mu, ls)), cw * cu)
    return out


def _act(wterms, m: int, uterms, ls) -> dict[tuple, int]:
    """w_(m) u on integer (monomial 4-tuple, coefficient) pairs: the boundary
    of the id core, keyed by the table's shared tuples."""
    return dict(_pairs(_act_ids(_interned(wterms), m, _interned(uterms), ls)))


def _id_row(u: FreeState) -> tuple[list[tuple[int, int]], int]:
    """(terms, den): the terms of ``u`` times den, the lcm of their
    denominators, as integer (id, coefficient) pairs."""
    row, den = _integer_row(u.terms)
    return _interned(row.items()), den


def _state(pairs, den: int, ring: str, lstar) -> FreeState:
    """The state with coefficients c / den over (monomial 4-tuple, c) pairs.
    This is the engine's public boundary: each nonzero key, a 4-tuple from
    the core, is validated into a ``Monomial`` here."""
    return FreeState(
        {Monomial(*mono): Fraction(c, den) for mono, c in pairs if c}, ring, lstar
    )


def _action_sector(wring: str, wls, uring: str, uls) -> tuple[str, int | None]:
    """The (ring, lstar) sector of w_(m) u for w and u of the given sectors,
    raising where w cannot act on u."""
    if wring == LAURENT and uring == POLY:
        raise RingMismatchError("Laurent states cannot act on polynomial-chart states")
    if wls is not None and wls != uls:
        raise SpecializationError(
            f"specialized state (n={wls}) cannot act on sector {uls!r}"
        )
    return (LAURENT if LAURENT in (wring, uring) else POLY), uls


def apply_mode(w: FreeState, m: int, u: FreeState) -> FreeState:
    """The mode action w_(m) u, extended bilinearly over normal-form monomials.

    A Laurent w may only act on a Laurent u; a symbolic w may act on a
    specialized u (that is the character-quotient module action), but a
    specialized state cannot act on a symbolic one.  Both coefficient lists
    are scaled to integers, the sum runs over the integer structure
    constants, and each output coefficient becomes a ``Fraction`` once.
    """
    ring, ls = _action_sector(w.ring, w.lstar, u.ring, u.lstar)
    wterms, dw = _id_row(w)
    uterms, du = _id_row(u)
    return _state(_pairs(_act_ids(wterms, m, uterms, ls)), dw * du, ring, ls)


def linear_combination(parts, ring: str = POLY, lstar: int | None = None) -> FreeState:
    """sum_i s_i t_i as one state, for (s_i, t_i) pairs of an int or
    ``Fraction`` scale and an iterable of (monomial, coefficient) pairs (a
    state's ``terms.items()``, or the ``_terms`` of a flat engine tuple).  The
    sum runs in one dict
    over the common denominator of the scales."""
    parts = [(s, terms) for s, terms in parts if s]
    den = math.lcm(*(s.denominator for s, _ in parts))
    out: dict = {}
    for s, terms in parts:
        _merge(out, terms, s.numerator * (den // s.denominator))
    return _state(out.items(), den, ring, lstar)


# -- derived operations ------------------------------------------------------


def translation(u: FreeState) -> FreeState:
    """The translation operator: d(g_(-s) v) = s g_(-s-1) v + g_(-s) d(v),
    and d(x^k |0>) = k x^(k-1) B_(-2) |0>."""
    out: dict[Monomial, Fraction] = {}
    for mono, c in u.terms.items():
        # the A, B and LSTAR mode families, fields 0, 1 and 2 of a monomial
        for family, modes in enumerate(mono[:3]):
            for i, mm in enumerate(modes):
                fields = list(mono)
                fields[family] = _insort(modes[:i] + modes[i + 1 :], mm - 1)
                out_m = Monomial(*fields)
                out[out_m] = out.get(out_m, Fraction(0)) + c * (-mm)
        if mono.power:
            out_m = Monomial(mono.amodes, _insort(mono.bmodes, -2), mono.lmodes, mono.power - 1)
            out[out_m] = out.get(out_m, Fraction(0)) + c * mono.power
    return FreeState(out, u.ring, u.lstar)


# -- identity checks ----------------------------------------------------------


def _nonzero(terms: dict) -> dict:
    """The terms of ``terms`` with a nonzero coefficient."""
    return {mono: c for mono, c in terms.items() if c}


def _scaled(terms: dict, scale: int) -> dict:
    """The nonzero terms of ``scale`` times the integer dict ``terms``."""
    return {key: v for key, c in terms.items() if (v := scale * c)}


def _borcherds_numerators(a: FreeState, b: FreeState, c: FreeState, m: int, n: int, k: int):
    """The integer numerators of both sides of the Borcherds identity

        sum_j C(m,j) (a_(n+j) b)_(m+k-j) c
          = sum_j (-1)^j C(n,j) [ a_(m+n-j) (b_(k+j) c)
                                  - (-1)^n b_(n+k-j) (a_(m+j) c) ]

    as two nonzero {id: int} dicts, with the j-sums bounded by exact weight
    bookkeeping.  a, b and c are scaled to integers once, by their least
    common denominators da, db and dc, and each side is summed in one dict
    from nested ``_act_ids`` calls, so every term of either side has the
    common denominator da*db*dc.  The sector of every action the identity
    takes is checked once, in the order the composed ``apply_mode`` calls
    would meet it.
    """
    ab = _action_sector(a.ring, a.lstar, b.ring, b.lstar)
    _, ls = _action_sector(*ab, c.ring, c.lstar)
    _action_sector(a.ring, a.lstar, *_action_sector(b.ring, b.lstar, c.ring, c.lstar))
    _action_sector(b.ring, b.lstar, *_action_sector(a.ring, a.lstar, c.ring, c.lstar))
    wa = max(a.weights(), default=0)
    wb = max(b.weights(), default=0)
    wc = max(c.weights(), default=0)
    (aterms, _), (bterms, _), (cterms, _) = (_id_row(s) for s in (a, b, c))
    lhs: dict[int, int] = {}
    for j in range(max(wa + wb - n, 0) + 1):
        coef = binom(m, j)
        if coef:
            inner = _nonzero(_act_ids(aterms, n + j, bterms, b.lstar))
            _merge(lhs, _act_ids(inner.items(), m + k - j, cterms, ls).items(), coef)
    rhs: dict[int, int] = {}
    for j in range(max(wb + wc - k, wa + wc - m, 0) + 1):
        coef = binom(n, j)
        if not coef:
            continue
        inner = _nonzero(_act_ids(bterms, k + j, cterms, ls))
        _merge(rhs, _act_ids(aterms, m + n - j, inner.items(), ls).items(), (-1) ** j * coef)
        inner = _nonzero(_act_ids(aterms, m + j, cterms, ls))
        sign = -1 if (j + n) % 2 == 0 else 1
        _merge(rhs, _act_ids(bterms, n + k - j, inner.items(), ls).items(), sign * coef)
    return _nonzero(lhs), _nonzero(rhs)


def check_borcherds(a, b, c, m: int, n: int, k: int) -> bool:
    """Whether the Borcherds identity holds for states a, b, c at (m, n, k):
    the two sides of ``_borcherds_numerators`` share their denominator, so
    they agree exactly when their integer numerators do.  No state is
    built."""
    lhs, rhs = _borcherds_numerators(a, b, c, m, n, k)
    return lhs == rhs


# -- deterministic sampling ---------------------------------------------------


def random_monomial(rng: random.Random, weight_max: int, ring: str = POLY,
                    symbolic: bool = True) -> Monomial:
    """One pseudo-random normal-form monomial of conformal weight <= weight_max."""
    budget = rng.randint(0, weight_max)
    amodes: list[int] = []
    bmodes: list[int] = []
    lmodes: list[int] = []
    while budget > 0:
        kind = rng.choice("ABL" if symbolic else "AB")
        s = rng.randint(1, budget)
        if kind == "A":
            amodes.append(-s)
        elif kind == "L":
            lmodes.append(-s)
        else:
            bmodes.append(-s - 1)
        budget -= s
        if rng.random() < 0.3:
            break
    power = rng.randint(-2, 3) if ring == LAURENT else rng.randint(0, 3)
    return Monomial(tuple(sorted(amodes)), tuple(sorted(bmodes)), tuple(sorted(lmodes)), power)


_COEFF_POOL = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))


def random_state(rng: random.Random, weight_max: int, ring: str = POLY,
                 lstar: int | None = None, max_terms: int = 2) -> FreeState:
    """A small pseudo-random state; deterministic given the rng's seed."""
    terms: dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = random_monomial(rng, weight_max, ring, symbolic=lstar is None)
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(rng.choice(_COEFF_POOL))
    return FreeState(terms, ring, lstar)


def engine_property_suite(samples: int = 200, seed: int = 42):
    """Seeded property sweep over the raw mode calculus on states of
    conformal weight <= 3: the Borcherds identity in all three sectors,
    translation covariance, grading bookkeeping, and h-grading diagonality,
    drawn in that order from one rng.  Returns one CheckReport per property;
    samples=0 is a vacuous pass flagged with a warning.

    Every trial decides on the integer core and builds no state: Borcherds
    compares the numerators of its two sides (``check_borcherds``);
    covariance compares (T w)_(m) u with -m w_(m-1) u, each cross-multiplied
    by the other's integer scale; grading reads the weight and h-shift of
    every term off the intern table; and diagonality compares h_(0) u with
    mu u.  The draws and every failure text are those of the same checks
    on states, which ``tests/references.py`` keeps as the reference."""
    weight_max = 3

    def borcherds(rng, i):
        sector = ("poly", "laurent", "module")[i % 3]
        if sector == "poly":
            a, b, c = (random_state(rng, weight_max) for _ in range(3))
        elif sector == "laurent":
            a, b, c = (random_state(rng, weight_max, LAURENT) for _ in range(3))
        else:
            a = random_state(rng, weight_max)
            b = random_state(rng, weight_max)
            c = random_state(rng, weight_max, lstar=rng.randint(-3, 3))
        m, n, k = (rng.randint(-2, 2) for _ in range(3))
        return check_borcherds(a, b, c, m, n, k), lambda: f"sample {i} ({sector}): m={m} n={n} k={k}"

    def covariance(rng, i):
        w = random_state(rng, weight_max)
        u = random_state(rng, weight_max)
        m = rng.randint(-3, 2)
        # (T w)_(m) u over dt * du against -m w_(m-1) u over dw * du
        (tterms, dt), (wterms, dw), (uterms, _) = (_id_row(s) for s in (translation(w), w, u))
        lhs = _act_ids(tterms, m, uterms, None)
        rhs = _act_ids(wterms, m - 1, uterms, None)
        ok = _scaled(lhs, dw) == _scaled(rhs, -m * dt)
        return ok, lambda: f"sample {i}: (T w)_({m}) != -{m} w_({m - 1})"

    def grading(rng, i):
        wm_mono = random_monomial(rng, weight_max)
        um_mono = random_monomial(rng, weight_max)
        m = rng.randint(-3, 2)
        out = _act_ids([(_intern(wm_mono), 1)], m, [(_intern(um_mono), 1)], None)
        want = (wm_mono.weight + um_mono.weight - m - 1, wm_mono.h_shift + um_mono.h_shift)
        ok = {(_weight(_MONOS[t]), _h_shift(_MONOS[t])) for t, c in out.items() if c} <= {want}
        return ok, lambda: f"sample {i}: bigrade drift under w_({m})"

    # h = -2 a_(-1) x + l*_(-1), the Cartan current of the zero chart
    h_terms = _interned([(Monomial((-1,), (), (), 1), -2), (Monomial(lmodes=(-1,)), 1)])

    def diagonality(rng, i):
        t = rng.randint(-3, 3)
        mono = random_monomial(rng, weight_max, symbolic=False)
        mu = t + mono.h_shift
        uid = _intern(mono)
        ok = _nonzero(_act_ids(h_terms, 0, [(uid, 1)], t)) == _scaled({uid: 1}, mu)
        return ok, lambda: f"sample {i}: h_(0) eigenvalue != {mu} at twist {t}"

    rng = random.Random(seed)
    suite = [
        CheckReport("borcherds-identity", details={"samples": samples, "seed": seed}),
        CheckReport("translation-covariance", details={"samples": samples}),
        CheckReport("grading-bookkeeping", details={"samples": samples}),
        CheckReport("h0-diagonality", details={"samples": samples}),
    ]
    for rep, trial in zip(suite, (borcherds, covariance, grading, diagonality)):
        rep.sample(rng, samples, trial)
    return suite
