"""Small exact linear algebra toolkit over the rationals.

One sparse echelon kernel does all the elimination, over the integers.  Each
input vector is scaled once by the lcm of its denominators to a row of ints.
The kernel keeps a span as primitive integer rows ``{col: int}`` -- content
1, with a positive entry at the pivot (the lowest column) -- keyed by that
pivot, and reduces fraction-free: no division but exact division by a gcd.
A vector is reduced against the rows in increasing pivot order, so the
result is zero on every pivot column; it is the true residual times one
rational scale, which the kernel tracks, and since the pivot columns of a
span do not depend on the order its rows arrived in, the residual is
canonical.  ``rank``, ``kernel_basis`` and ``SpanTracker`` are thin fronts
over that kernel; only the residuals and kernel vectors they return are
Fractions.

The walk over the pivots starts at the vector's lowest column, by a bisect of
the sorted pivot list.  That is exact: eliminating with the row at pivot p
brings in only columns above p (the sparse triangular solve of Gilbert and
Peierls, SIAM J. Sci. Stat. Comput. 9, 1988), so no pivot below the lowest
column ever meets an entry, and the rows act as in the walk over every pivot.
A vector with at least as many entries as there are pivots skips the search.
Per pass of ``perfbench``, the start skips 4238 of the 24,337 pivot probes of
``cech-scan`` and 17,007 of the 90,328 of ``pbw-oracle``; a Zhu word, which
reduces to one symbol, skips nearly all of them.

The caller chooses the numbering of the columns, and with it the pivot
order, which sets how much fill elimination creates.  A rank or a dimension
does not depend on it, so a caller that reads only those may number its
columns for the least fill: ``affine._span_columns`` and
``cech._block_rows`` (the columns of ``cech._delta_matrix``, by descending
ground power) number the leading term lowest, to be pivoted on
first, and each states its order with its measured fill.  The residuals and
kernel vectors returned do depend on the numbering.

There is one input format: a vector is a sparse dict ``{key: value}``, and a
matrix is a list of them.  ``rank`` and ``SpanTracker`` take the vectors as
rows (their keys are the columns, so they must be mutually comparable).
``kernel_basis`` takes a linear map as the images of its basis vectors -- the
columns, keyed by any hashable row key -- and transposes them itself.  Only
the kernel vectors it returns are dense.  Everything is deterministic and
exact -- inputs are ints or fractions.Fraction, never floats; the empty
matrix is allowed everywhere and has rank 0.

``LinearCombination`` is the one value type behind chart states, PBW vectors
and differential operators: a finite combination ``{key: Fraction}``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _coefficient(c) -> Fraction:
    if type(c) is Fraction:
        return c
    if isinstance(c, float):
        raise TypeError("float coefficients are forbidden; use Fraction or int")
    return Fraction(c)


def _merge(out: dict, pairs, scale) -> None:
    """out += scale * pairs, for (key, coefficient) pairs; zero sums stay in
    ``out`` as zeros."""
    if not scale:
        return
    for key, c in pairs:
        out[key] = out.get(key, 0) + scale * c


class LinearCombination:
    """A finite exact combination ``{key: Fraction}`` with value semantics.

    A subclass lists the slots of its sector in ``_SECTOR`` (equality and
    hashing compare them), says in ``_join`` which sector a sum lands in
    (raising when two sectors cannot be added), and checks one key in
    ``_check_key``.  The constructor coerces every coefficient, rejecting
    floats, drops zeros and checks every key.  Sums, differences and scalar
    multiples of valid values are valid, so they skip the key checks.
    """

    __slots__ = ("terms",)
    _SECTOR: tuple[str, ...] = ()

    def __init__(self, terms=None):
        check = self._check_key
        clean = {}
        for key, c in (terms or {}).items():
            c = _coefficient(c)
            if c:
                check(key)
                clean[key] = c
        self.terms = clean

    def _check_key(self, key) -> None:
        """Raise when ``key`` is not a valid key of this value."""

    def _join(self, other) -> tuple:
        """The sector of ``self + other``; raise when they cannot be added."""
        return ()

    def _sector(self) -> tuple:
        return tuple(getattr(self, name) for name in self._SECTOR)

    @classmethod
    def _from_valid(cls, terms: dict, *sector):
        """The value holding ``terms`` in ``sector`` without checking them:
        every key must be valid and every coefficient a Fraction.  Zero
        coefficients are dropped."""
        out = cls.__new__(cls)
        for name, value in zip(cls._SECTOR, sector):
            setattr(out, name, value)
        out.terms = {key: c for key, c in terms.items() if c}
        return out

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._sector() == other._sector()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._sector(), frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        sector = self._join(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return self._from_valid(out, *sector)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, c):
        c = _coefficient(c)
        return self._from_valid({key: c * v for key, v in self.terms.items()}, *self._sector())

    def __neg__(self):
        return (-1) * self


def _integer_row(vec: dict) -> tuple[dict, int]:
    """``(row, scale)``: the nonzero entries of ``vec`` times ``scale``, the
    lcm of their denominators, as a fresh dict of ints."""
    scale = 1
    for c in vec.values():
        if type(c) is not int:
            if isinstance(c, float):
                raise TypeError("float entries are forbidden; use Fraction or int")
            scale = lcm(scale, c.denominator)
    if scale == 1:
        return {j: int(c) for j, c in vec.items() if c}, 1
    return {j: c.numerator * (scale // c.denominator) for j, c in vec.items() if c}, scale


class _Echelon:
    """Sparse fraction-free echelon rows over the integers.

    ``rows[p]`` is the row whose pivot (lowest column) is p, as a dict
    ``{col: int}`` that includes the pivot entry.  Every row is primitive --
    the gcd of its entries is 1 -- with a positive pivot entry: the one such
    integer row on its line.  The pivot order is the column numbering the
    caller chose; see the module docstring for the callers that number the
    leading term lowest.
    Vectors are reduced fraction-free (Bareiss, Math. Comp. 22, 1968): against
    the row with pivot entry a, a vector with entry c at the pivot becomes
    ``(a/g) v - (c/g) row`` with g = gcd(a, c), and its content is divided
    out after every step that scaled it.  The reduced vector is therefore a
    rational multiple of the true residual; ``reduce`` returns that multiple.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self.pivots: list[int] = []  # sorted

    def reduce(self, vec: dict) -> tuple[int, int]:
        """Reduce the integer vector ``vec`` in place against every row, in
        increasing pivot order, leaving it zero on every pivot column.
        Returns ``(num, den)``: the result is num/den times the input minus
        a combination of the rows.

        The walk starts at the first pivot not below the vector's lowest
        column.  That is exact: the row at pivot p has no column below p, so
        eliminating with it brings in only columns above p, and no pivot
        below the vector's lowest column ever meets an entry; the rows act
        in the same order as in the walk over every pivot, so the vector
        and ``(num, den)`` are the same.  A vector with at least as many
        entries as there are pivots walks them all without the search.
        Measured per pass of ``perfbench``: on ``cech-scan`` the start skips
        4238 of 24,337 pivot probes, and 3484 of the 4446 reduces skip none;
        on ``pbw-oracle`` it skips 17,007 of 90,328 over 8078 reduces, and
        6095 of them skip none."""
        rows = self.rows
        num = den = 1
        pivots = self.pivots
        if len(vec) < len(pivots):
            pivots = pivots[bisect_left(pivots, min(vec)):] if vec else ()
        for p in pivots:
            c = vec.get(p)
            if c is None:
                continue
            row = rows[p]
            a = row[p]
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                for j in vec:
                    vec[j] *= a
            for j, b in row.items():
                x = vec.get(j, 0) - c * b
                if x:
                    vec[j] = x
                else:
                    del vec[j]
            if a != 1:
                num *= a
                h = gcd(*vec.values())
                if h > 1:
                    den *= h
                    for j in vec:
                        vec[j] //= h
        return num, den

    def add(self, vec: dict) -> bool:
        """Reduce the integer vector ``vec`` (consumed) and keep what is left,
        made primitive with a positive pivot entry, as a new row; True when
        the span grew."""
        self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        h = gcd(*vec.values())
        if vec[p] < 0:
            h = -h
        if h != 1:
            for j in vec:
                vec[j] //= h
        self.rows[p] = vec
        insort(self.pivots, p)
        return True


def rank(mat) -> int:
    """Rank of a matrix given as a list of sparse rows."""
    core = _Echelon()
    for row in mat:
        core.add(_integer_row(row)[0])
    return len(core.pivots)


def kernel_basis(images):
    """Basis of the kernel of the linear map sending basis vector j to
    ``images[j]``, a sparse dict ``{row key: value}`` over any hashable row
    keys.  The vectors are Fraction lists of length ``len(images)``: one per
    free column f, with 1 at f, 0 at the other free columns, and minus the
    reduced row echelon form's column f at the pivots.  The reduced form does
    not depend on the order of the rows, so neither does the basis.

    The rows go in shortest first, which cuts the fill: over the blocks of
    ``cech_kernel`` at n = 0, weight <= 6, the echelon rows keep 4149 nonzero
    entries where the order the row keys first appear in keeps 13583."""
    rows: dict = {}
    for j, image in enumerate(images):
        for key, c in image.items():
            if c:
                rows.setdefault(key, {})[j] = c
    core = _Echelon()
    for row in sorted(rows.values(), key=len):
        core.add(_integer_row(row)[0])
    # the reduced row with pivot p, divided by its pivot entry a: its tail,
    # reduced against the other rows, is num/den times the true one
    red = {}
    for p in core.pivots:
        tail = dict(core.rows[p])
        a = tail.pop(p)
        num, den = core.reduce(tail)
        red[p] = {j: Fraction(x * den, num * a) for j, x in tail.items()}
    basis = []
    ncols = len(images)
    for f in range(ncols):
        if f in core.rows:
            continue
        vec = [_ZERO] * ncols
        vec[f] = Fraction(1)
        for p in core.pivots:
            vec[p] = -red[p].get(f, _ZERO)
        basis.append(vec)
    return basis


class SpanTracker:
    """Incrementally built row space; a vector's residual is empty iff it lies in it.

    Vectors are sparse dicts ``{col: value}``; ``add`` returns True when the
    vector actually enlarged the span, so rank is just ``dim``.
    """

    def __init__(self):
        self._core = _Echelon()

    def residual(self, vec) -> dict:
        """The vector reduced against the current span, as a sparse dict of
        Fractions (empty iff contained, and with no pivot column among its
        keys).  The kernel reduces ``scale * vec`` to num/den times the
        residual, so each entry is divided by scale * num / den."""
        row, scale = _integer_row(vec)
        num, den = self._core.reduce(row)
        num *= scale
        return {j: Fraction(x * den, num) for j, x in row.items()}

    def add(self, vec) -> bool:
        return self._core.add(_integer_row(vec)[0])

    @property
    def dim(self) -> int:
        return len(self._core.pivots)
