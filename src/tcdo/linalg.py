"""Small exact linear algebra toolkit over the rationals.

One sparse echelon kernel does all the elimination.  It keeps a span as rows
``{col: Fraction}``, each normalised so that its pivot (its lowest column)
has entry 1, keyed by that pivot.  A vector is reduced against the rows in
increasing pivot order, so the residual is zero on every pivot column; since
the pivot columns of a span do not depend on the order its rows arrived in,
the residual is canonical.  ``rank``, ``kernel_basis`` and ``SpanTracker``
are thin fronts over that kernel.

Everything is deterministic and exact -- inputs are ints or
fractions.Fraction, never floats.  Dense matrices are plain lists of row
lists, sparse rows are dicts ``{col: value}``; the empty matrix is allowed
everywhere and has rank 0.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

_ZERO = Fraction(0)


def _sparse(vec) -> dict:
    """A fresh ``{col: value}`` dict of the nonzero entries of a dense row
    or a sparse dict."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {j: c for j, c in items if c}


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
    """Rank of a matrix given as a list of dense rows or sparse dicts."""
    core = _Echelon()
    for row in mat:
        core.add(_sparse(row))
    return len(core.pivots)


def kernel_basis(mat, ncols: int):
    """Basis of {x : mat @ x = 0} as Fraction rows of length ncols: one
    vector per free column f, with 1 at f, 0 at the other free columns, and
    minus the reduced row echelon form's column f at the pivots."""
    core = _Echelon()
    for row in mat:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)} in a matrix with {ncols} columns")
        core.add(_sparse(row))
    pivots = core.pivots
    # the reduced row with pivot p: its tail reduced against the other rows
    red = {p: core.reduce(dict(core.rows[p])) for p in pivots}
    basis = []
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

    Vectors are dense rows of length ``ncols`` or sparse dicts
    ``{col: value}``; ``add`` returns True when the vector actually enlarged
    the span, so rank is just ``dim``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._core = _Echelon()

    def contains(self, vec) -> bool:
        return not self._core.reduce(_sparse(vec))

    def residual(self, vec) -> list[Fraction]:
        """The vector reduced against the current span, as a dense row (zero
        iff contained, and zero on every pivot column)."""
        out = [_ZERO] * self.ncols
        for j, c in self._core.reduce(_sparse(vec)).items():
            out[j] = Fraction(c)
        return out

    def add(self, vec) -> bool:
        return self._core.add(_sparse(vec))

    @property
    def dim(self) -> int:
        return len(self._core.pivots)
