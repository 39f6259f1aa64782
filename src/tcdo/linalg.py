"""Small exact linear algebra toolkit over the rationals.

One sparse echelon kernel does all the elimination.  It keeps a span as rows
``{col: Fraction}``, each normalised so that its pivot (its lowest column)
has entry 1, keyed by that pivot.  A vector is reduced against the rows in
increasing pivot order, so the residual is zero on every pivot column; since
the pivot columns of a span do not depend on the order its rows arrived in,
the residual is canonical.  ``rank``, ``kernel_basis`` and ``SpanTracker``
are thin fronts over that kernel.

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

from bisect import insort
from fractions import Fraction

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


def _sparse(vec: dict) -> dict:
    """A fresh ``{col: value}`` dict of the nonzero entries of a sparse row."""
    return {j: c for j, c in vec.items() if c}


class _Echelon:
    """Sparse echelon rows: ``rows[p]`` holds the entries of the row with
    pivot p at columns > p (its pivot entry is an implicit 1)."""

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}
        self.pivots: list[int] = []  # sorted

    def reduce(self, vec: dict) -> dict:
        """Reduce ``vec`` in place against every row, in increasing pivot
        order; the result is zero on every pivot column."""
        rows = self.rows
        for p in self.pivots:
            c = vec.pop(p, None)
            if c is None:
                continue
            for j, a in rows[p].items():
                x = vec.get(j)
                if x is None:
                    vec[j] = -c * a
                else:
                    x -= c * a
                    if x:
                        vec[j] = x
                    else:
                        del vec[j]
        return vec

    def add(self, vec: dict) -> bool:
        """Reduce ``vec`` (consumed) and keep what is left as a new row;
        True when the span grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        inv = 1 / Fraction(vec.pop(p))
        self.rows[p] = {j: a * inv for j, a in vec.items()}
        insort(self.pivots, p)
        return True


def rank(mat) -> int:
    """Rank of a matrix given as a list of sparse rows."""
    core = _Echelon()
    for row in mat:
        core.add(_sparse(row))
    return len(core.pivots)


def kernel_basis(images):
    """Basis of the kernel of the linear map sending basis vector j to
    ``images[j]``, a sparse dict ``{row key: value}`` over any hashable row
    keys.  The vectors are Fraction lists of length ``len(images)``: one per
    free column f, with 1 at f, 0 at the other free columns, and minus the
    reduced row echelon form's column f at the pivots.  The reduced form does
    not depend on the order of the rows, so neither does the basis."""
    rows: dict = {}
    for j, image in enumerate(images):
        for key, c in image.items():
            if c:
                rows.setdefault(key, {})[j] = c
    core = _Echelon()
    for row in rows.values():
        core.add(row)
    pivots = core.pivots
    # the reduced row with pivot p: its tail reduced against the other rows
    red = {p: core.reduce(dict(core.rows[p])) for p in pivots}
    basis = []
    ncols = len(images)
    for f in range(ncols):
        if f in core.rows:
            continue
        vec = [_ZERO] * ncols
        vec[f] = Fraction(1)
        for p in pivots:
            vec[p] = -red[p].get(f, _ZERO)
        basis.append(vec)
    return basis


def coordinate_rows(states, index: dict) -> list[dict]:
    """Sparse coordinate rows ``{column: coefficient}`` of states (anything
    with a ``terms`` dict) over a basis index ``{basis key: column}``."""
    return [{index[key]: c for key, c in state.terms.items()} for state in states]


class SpanTracker:
    """Incrementally built row space with exact membership tests.

    Vectors are sparse dicts ``{col: value}``; ``add`` returns True when the
    vector actually enlarged the span, so rank is just ``dim``.
    """

    def __init__(self):
        self._core = _Echelon()

    def contains(self, vec) -> bool:
        return not self._core.reduce(_sparse(vec))

    def residual(self, vec) -> dict:
        """The vector reduced against the current span, as a sparse dict of
        Fractions (empty iff contained, and with no pivot column among its
        keys)."""
        return {j: Fraction(c) for j, c in self._core.reduce(_sparse(vec)).items()}

    def add(self, vec) -> bool:
        return self._core.add(_sparse(vec))

    @property
    def dim(self) -> int:
        return len(self._core.pivots)
