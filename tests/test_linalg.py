"""Exact linear algebra: the sparse echelon kernel against a dense reference.

The reference below is a textbook dense Gauss-Jordan elimination over
Fraction, kept deliberately naive; every public front of tcdo.linalg is
compared with it on random matrices, including rank-deficient ones, duplicate
and zero rows, and entries with large denominators.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcdo.linalg import SpanTracker, coordinate_rows, kernel_basis, rank


# -- dense reference ------------------------------------------------------------


def ref_rref(mat, ncols):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def ref_kernel(mat, ncols):
    red, pivots = ref_rref(mat, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -red[i][f]
        basis.append(vec)
    return basis


def ref_rank(mat, ncols):
    return len(ref_rref(mat, ncols)[1])


# -- strategies -----------------------------------------------------------------

big_fractions = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)
)
entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7)]),
    st.integers(-5, 5),
    big_fractions,
)
small_coeffs = st.sampled_from([0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)])


@st.composite
def matrices(draw, max_cols=6):
    """(ncols, rows): random rows plus combinations of them, duplicates and
    zero rows, in a random order."""
    ncols = draw(st.integers(0, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            coeffs = draw(st.lists(small_coeffs, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    return ncols, draw(st.permutations(rows))


def as_sparse(row):
    return {j: c for j, c in enumerate(row) if c}


# -- rank and kernel --------------------------------------------------------------


@given(matrices())
def test_rank_matches_reference(case):
    ncols, mat = case
    assert rank(mat) == ref_rank(mat, ncols)
    assert rank([as_sparse(row) for row in mat]) == ref_rank(mat, ncols)


@given(matrices())
def test_kernel_basis_matches_reference(case):
    ncols, mat = case
    basis = kernel_basis(mat, ncols)
    assert basis == ref_kernel(mat, ncols)
    assert all(isinstance(x, Fraction) for vec in basis for x in vec)
    for vec in basis:
        assert len(vec) == ncols
        for row in mat:
            assert sum(a * x for a, x in zip(row, vec)) == 0
    assert len(basis) == ncols - rank(mat)


def test_edge_cases():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert kernel_basis([], 0) == []
    assert kernel_basis([[], []], 0) == []
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]
    assert kernel_basis([[0, 0]], 2) == [[1, 0], [0, 1]]
    assert kernel_basis([[1, 2], [2, 4]], 2) == [[-2, 1]]
    assert rank([[1, 2, 3], [1, 2, 3], [2, 4, 6]]) == 1


def test_kernel_basis_rejects_ragged_rows():
    with pytest.raises(ValueError):
        kernel_basis([[1, 2], [1]], 2)
    with pytest.raises(ValueError):
        kernel_basis([[1, 2, 3]], 2)


# -- span tracker -----------------------------------------------------------------


@given(matrices(), st.booleans())
def test_add_reports_growth_exactly(case, sparse):
    ncols, mat = case
    tracker = SpanTracker(ncols)
    for i, row in enumerate(mat):
        before = tracker.dim
        grew = tracker.add(as_sparse(row) if sparse else row)
        assert tracker.dim == before + grew
        assert tracker.dim == ref_rank(mat[: i + 1], ncols)


@given(matrices(), st.data())
def test_contains_iff_residual_zero(case, data):
    ncols, mat = case
    tracker = SpanTracker(ncols)
    for row in mat:
        tracker.add(row)
    queries = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=3))
    for vec in list(mat) + queries:
        inside = tracker.contains(vec)
        assert inside == (not any(tracker.residual(vec)))
        assert inside == (ref_rank(list(mat) + [vec], ncols) == ref_rank(mat, ncols))
        assert tracker.contains(as_sparse(vec)) == inside


@given(matrices(), st.data())
def test_residual_is_canonical_and_differs_by_span(case, data):
    ncols, mat = case
    forward, backward = SpanTracker(ncols), SpanTracker(ncols)
    for row in mat:
        forward.add(row)
    for row in reversed(mat):
        backward.add(row)
    _, pivots = ref_rref(mat, ncols)
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    res = forward.residual(vec)
    assert len(res) == ncols
    assert all(isinstance(x, Fraction) for x in res)
    assert all(res[p] == 0 for p in pivots)
    diff = [a - b for a, b in zip(vec, res)]
    assert ref_rank(list(mat) + [diff], ncols) == ref_rank(mat, ncols)
    assert backward.residual(vec) == res
    assert forward.residual(as_sparse(vec)) == res


@settings(max_examples=25)
@given(matrices(max_cols=12))
def test_rank_on_wider_matrices(case):
    ncols, mat = case
    assert rank(mat) == ref_rank(mat, ncols)
    assert kernel_basis(mat, ncols) == ref_kernel(mat, ncols)


# -- coordinate rows ----------------------------------------------------------------


class _State:
    def __init__(self, terms):
        self.terms = terms


def test_coordinate_rows_maps_keys_to_columns():
    index = {"a": 0, "b": 1, "c": 2}
    states = [_State({"c": Fraction(1, 2), "a": 3}), _State({}), _State({"b": -1})]
    assert coordinate_rows(states, index) == [{2: Fraction(1, 2), 0: 3}, {}, {1: -1}]
    with pytest.raises(KeyError):
        coordinate_rows([_State({"z": 1})], index)
