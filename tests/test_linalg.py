"""Exact linear algebra: the sparse echelon kernel against a dense reference.

The reference below is a textbook dense Gauss-Jordan elimination over
Fraction, kept deliberately naive; every public front of tcdo.linalg is
compared with it on random matrices, including rank-deficient ones, duplicate
and zero rows, and entries with large denominators.  The kernel itself works
fraction-free on primitive integer rows, so the matrices also include entries
that stress that: large pairwise coprime denominators, integers the size of
the Cech coboundary entries, negative leading entries and non-unit pivots.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import ref_reduce
from tcdo.linalg import SpanTracker, _Echelon, kernel_basis, rank


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


def ref_residual(mat, ncols, vec):
    """vec minus its components along the reduced rows: the canonical
    residual, zero on every pivot column, as a sparse dict."""
    red, pivots = ref_rref(mat, ncols)
    res = [Fraction(x) for x in vec]
    for row, p in zip(red, pivots):
        c = res[p]
        if c:
            res = [a - c * b for a, b in zip(res, row)]
    return {j: x for j, x in enumerate(res) if x}


def assert_rows_primitive(core):
    """Every stored row: int entries, none zero, lowest column its pivot,
    a positive pivot entry, and content 1."""
    assert core.pivots == sorted(core.rows)
    for p, row in core.rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1


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

# large primes, so that the denominators of different entries are coprime
# and a row's common denominator is their product
PRIMES = [999999937, 998244353, 1000000007, 1000000009, 2147483647, 2**61 - 1]
coprime_fractions = st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(PRIMES))
# the Cech coboundary matrices are integer with entries up to about 2*10^11
delta_sized = st.integers(-3 * 10**11, 3 * 10**11)
stress_entries = st.one_of(
    st.sampled_from([0, 0, 0, -1, -2, 3]),
    coprime_fractions,
    delta_sized,
)


@st.composite
def matrices(draw, max_cols=6, entries=entries):
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


@st.composite
def stress_matrices(draw):
    """matrices() over stress_entries, with the leading entry of some rows
    made negative."""
    ncols, rows = draw(matrices(entries=stress_entries))
    out = []
    for row in rows:
        lead = next((x for x in row if x), 0)
        out.append([-x for x in row] if lead > 0 and draw(st.booleans()) else row)
    return ncols, out


@st.composite
def staircases(draw):
    """(ncols, rows, pivot entries): rows with distinct pivot columns whose
    tails lie on the free columns only, so no row reduces another.  Each
    pivot entry has absolute value at least 2, and each row has an entry
    +-1 in the last column, which is free, so the row is primitive as given:
    the tracker must keep every pivot entry up to sign, not scale it to 1."""
    ncols = draw(st.integers(2, 8))
    pivots = sorted(draw(st.sets(st.integers(0, ncols - 2), min_size=1, max_size=ncols - 1)))
    free = [j for j in range(ncols) if j not in pivots]
    rows, leads = [], {}
    for p in pivots:
        lead = draw(st.sampled_from([2, 3, 6, 7, 2 * 10**11 + 1]))
        sign = draw(st.sampled_from([1, -1]))
        row = [0] * ncols
        row[p] = sign * lead
        for j in free:
            if j > p:
                row[j] = draw(st.one_of(st.integers(-9, 9), delta_sized))
        row[-1] = draw(st.sampled_from([1, -1]))
        rows.append(row)
        leads[p] = lead
    return ncols, draw(st.permutations(rows)), leads


def as_sparse(row):
    return {j: c for j, c in enumerate(row) if c}


def column_images(mat, ncols):
    """The matrix as the linear map it defines: the sparse image of basis
    vector j is column j, keyed by row number."""
    return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(ncols)]


# -- rank and kernel --------------------------------------------------------------


@given(matrices())
def test_rank_matches_reference(case):
    ncols, mat = case
    assert rank([as_sparse(row) for row in mat]) == ref_rank(mat, ncols)
    assert rank(column_images(mat, ncols)) == ref_rank(mat, ncols)


@given(matrices())
def test_kernel_basis_matches_reference(case):
    ncols, mat = case
    basis = kernel_basis(column_images(mat, ncols))
    assert basis == ref_kernel(mat, ncols)
    assert all(isinstance(x, Fraction) for vec in basis for x in vec)
    for vec in basis:
        assert len(vec) == ncols
        for row in mat:
            assert sum(a * x for a, x in zip(row, vec)) == 0
    assert len(basis) == ncols - ref_rank(mat, ncols)


@given(matrices(), st.data())
def test_kernel_basis_takes_any_hashable_row_keys(case, data):
    # rows keyed by tuples and Monomials, inserted in a different random
    # order in every image, explicit zeros included: the kernel is the one
    # of the matrix, whatever the keys and their order
    from tcdo.modespace import Monomial

    ncols, mat = case
    keys = [("e", i, "zero") if i % 2 else Monomial(amodes=(-1,), power=i) for i in range(len(mat))]
    images = []
    for j in range(ncols):
        order = data.draw(st.permutations(range(len(mat))))
        images.append({keys[i]: mat[i][j] for i in order})
    assert kernel_basis(images) == ref_kernel(mat, ncols)


@given(matrices(max_cols=8), st.data())
def test_rank_dim_and_nullity_ignore_the_column_numbering(case, data):
    # callers that read only a rank or a dimension renumber their columns,
    # negative numbers included, so that the leading term is pivoted on
    # first; no numbering may change what they read
    ncols, mat = case
    perm = data.draw(st.permutations(range(ncols)))
    sign = data.draw(st.sampled_from([1, -1]))
    renumbered = [{sign * perm[j]: c for j, c in as_sparse(row).items()} for row in mat]
    want = ref_rank(mat, ncols)
    assert rank(renumbered) == want
    tracker = SpanTracker()
    for row in renumbered:
        tracker.add(row)
    assert tracker.dim == want
    permuted = [[row[perm[j]] for j in range(ncols)] for row in mat]
    basis = kernel_basis(column_images(permuted, ncols))
    assert basis == ref_kernel(permuted, ncols)
    assert len(basis) == len(ref_kernel(mat, ncols)) == ncols - want


def test_edge_cases():
    assert rank([]) == 0
    assert rank([{}]) == 0
    assert rank([{0: 0, 1: 0}, {}]) == 0
    assert kernel_basis([]) == []
    assert kernel_basis([{}, {}]) == [[1, 0], [0, 1]]
    assert kernel_basis([{"r": 0}, {}]) == [[1, 0], [0, 1]]
    assert kernel_basis([{0: 1, 1: 2}, {0: 2, 1: 4}]) == [[-2, 1]]
    assert rank([{0: 1, 1: 2, 2: 3}, {0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}]) == 1


def test_float_entries_are_rejected():
    with pytest.raises(TypeError, match="float"):
        rank([{0: 1, 1: 0.5}])
    with pytest.raises(TypeError, match="float"):
        SpanTracker().residual({0: 0.25})


# -- span tracker -----------------------------------------------------------------


@given(matrices())
def test_add_reports_growth_exactly(case):
    ncols, mat = case
    tracker = SpanTracker()
    for i, row in enumerate(mat):
        before = tracker.dim
        grew = tracker.add(as_sparse(row))
        assert tracker.dim == before + grew
        assert tracker.dim == ref_rank(mat[: i + 1], ncols)
    assert_rows_primitive(tracker._core)


@given(matrices(), st.data())
def test_contains_iff_residual_zero(case, data):
    ncols, mat = case
    tracker = SpanTracker()
    for row in mat:
        tracker.add(as_sparse(row))
    queries = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=3))
    for vec in list(mat) + queries:
        # membership is an empty residual, in the sparse and the dense form
        inside = not tracker.residual(as_sparse(vec))
        assert inside == (ref_rank(list(mat) + [vec], ncols) == ref_rank(mat, ncols))
        assert (not tracker.residual(dict(enumerate(vec)))) == inside


@given(matrices(), st.data())
def test_residual_is_canonical_and_differs_by_span(case, data):
    ncols, mat = case
    forward, backward = SpanTracker(), SpanTracker()
    for row in mat:
        forward.add(as_sparse(row))
    for row in reversed(mat):
        backward.add(as_sparse(row))
    _, pivots = ref_rref(mat, ncols)
    vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    res = forward.residual(as_sparse(vec))
    assert all(type(x) is Fraction and x for x in res.values())
    assert set(res) <= set(range(ncols)) - set(pivots)
    diff = [a - res.get(j, 0) for j, a in enumerate(vec)]
    assert ref_rank(list(mat) + [diff], ncols) == ref_rank(mat, ncols)
    assert backward.residual(as_sparse(vec)) == res
    assert forward.residual(dict(enumerate(vec))) == res
    assert res == ref_residual(mat, ncols, vec)


@given(stress_matrices())
def test_fraction_free_kernel_matches_reference_on_stress_inputs(case):
    ncols, mat = case
    assert rank([as_sparse(row) for row in mat]) == ref_rank(mat, ncols)
    assert kernel_basis(column_images(mat, ncols)) == ref_kernel(mat, ncols)
    tracker = SpanTracker()
    for i, row in enumerate(mat):
        tracker.add(as_sparse(row))
        assert tracker.dim == ref_rank(mat[: i + 1], ncols)
    assert_rows_primitive(tracker._core)


@given(stress_matrices(), st.data())
def test_residual_matches_reference_on_stress_inputs(case, data):
    ncols, mat = case
    tracker = SpanTracker()
    for row in mat:
        tracker.add(as_sparse(row))
    assert_rows_primitive(tracker._core)
    queries = data.draw(st.lists(st.lists(stress_entries, min_size=ncols, max_size=ncols), max_size=3))
    for vec in list(mat) + queries:
        res = tracker.residual(as_sparse(vec))
        assert res == ref_residual(mat, ncols, vec)
        assert all(type(x) is Fraction for x in res.values())


@given(staircases(), st.data())
def test_residual_with_non_unit_pivots(case, data):
    ncols, mat, leads = case
    tracker = SpanTracker()
    for row in mat:
        assert tracker.add(as_sparse(row))
    assert_rows_primitive(tracker._core)
    assert {p: row[p] for p, row in tracker._core.rows.items()} == leads
    queries = data.draw(st.lists(st.lists(stress_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=3))
    for vec in queries:
        res = tracker.residual(as_sparse(vec))
        assert res == ref_residual(mat, ncols, vec)
        assert all(type(x) is Fraction for x in res.values())
        assert not set(res) & set(leads)


@settings(max_examples=25)
@given(matrices(max_cols=12))
def test_rank_on_wider_matrices(case):
    ncols, mat = case
    assert rank([as_sparse(row) for row in mat]) == ref_rank(mat, ncols)
    assert kernel_basis(column_images(mat, ncols)) == ref_kernel(mat, ncols)


# -- the pivot walk ---------------------------------------------------------------

walk_entries = st.one_of(st.sampled_from([1, -1, 2, -3, 6, -10]), st.integers(-9, 9), delta_sized)


@st.composite
def echelons_and_vectors(draw):
    """(echelon, vectors): random sparse integer rows over up to 12 columns
    added to an ``_Echelon``, and sparse integer vectors with 0 up to ncols
    entries, so they are both shorter and longer than the pivot list.  The
    entries are not only +-1, so most echelons store pivot entries other
    than 1."""
    ncols = draw(st.integers(1, 12))
    sparse_ints = st.dictionaries(st.integers(0, ncols - 1), walk_entries.filter(bool), max_size=ncols)
    core = _Echelon()
    for row in draw(st.lists(sparse_ints, max_size=10)):
        core.add(row)
    return core, draw(st.lists(sparse_ints, min_size=1, max_size=6))


@settings(max_examples=60)
@given(echelons_and_vectors())
def test_reduce_matches_the_walk_over_every_pivot(case):
    core, vectors = case
    assert_rows_primitive(core)
    for vec in vectors:
        want = dict(vec)
        assert core.reduce(vec) == ref_reduce(core, want)
        assert vec == want


@given(staircases(), st.data())
def test_reduce_matches_the_walk_over_every_pivot_at_non_unit_pivots(case, data):
    ncols, mat, leads = case
    core = _Echelon()
    for row in mat:
        core.add(as_sparse(row))
    assert {p: row[p] for p, row in core.rows.items()} == leads
    sparse_ints = st.dictionaries(st.integers(0, ncols - 1), walk_entries.filter(bool), min_size=1, max_size=ncols)
    for vec in data.draw(st.lists(sparse_ints, min_size=1, max_size=4)):
        want = dict(vec)
        assert core.reduce(vec) == ref_reduce(core, want)
        assert vec == want


class ProbeCounter(dict):
    """A vector that counts its ``get`` calls."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def test_reduce_probes_no_pivot_below_the_lowest_column():
    core = _Echelon()
    for j in range(1000):
        assert core.add({j: 1})
    vec = ProbeCounter({1000: 1})
    assert core.reduce(vec) == (1, 1)
    assert (vec, vec.probes) == ({1000: 1}, 0)
    old = ProbeCounter({1000: 1})
    assert ref_reduce(core, old) == (1, 1)
    assert old.probes == 1000


# -- the shared linear-combination class ------------------------------------------


def _free_states(rng):
    from tcdo.modespace import LAURENT, POLY, random_state

    lstar = rng.choice([None, 2])
    rings = rng.choice([(POLY, POLY), (POLY, LAURENT), (LAURENT, LAURENT)])
    return [random_state(rng, 3, ring, lstar, max_terms=3) for ring in rings]


def _pbw_vectors(rng):
    from tcdo.affine import random_pbw

    nu = rng.choice([Fraction(0), Fraction(-3), Fraction(1, 2)])
    return [random_pbw(rng, 3, nu) for _ in range(2)]


def _diff_ops(rng):
    from tcdo.zhu import DiffOp

    def one():
        keys = [(rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 1)) for _ in range(3)]
        return DiffOp({key: rng.choice((1, -1, 2, Fraction(1, 3))) for key in keys})

    return [one(), one()]


@pytest.mark.parametrize("sample", [_free_states, _pbw_vectors, _diff_ops])
@given(seed=st.integers(0, 2**32), c=st.sampled_from([0, 1, -1, 3, Fraction(-2, 3)]))
@settings(max_examples=40, deadline=None)
def test_combination_arithmetic_matches_validating_constructor(sample, seed, c):
    # +, -, scalar * and negation skip the key checks; each result must be
    # what the checking constructor makes of the same terms and sector
    u, v = sample(random.Random(seed))
    for got in (u + v, u - v, v - u, c * u, -v, u + (-u), u - u):
        assert got == type(got)(got.terms, *got._sector())
        assert all(type(x) is Fraction and x != 0 for x in got.terms.values())
    assert (u - u).is_zero and not (u - u) and bool(u) is not u.is_zero
    assert u + v == v + u and c * (u + v) == c * u + c * v and -(-u) == u
    assert hash(u + v) == hash(v + u)


def test_combination_sums_refuse_other_classes():
    from tcdo.affine import highest_weight_vector
    from tcdo.modespace import vacuum
    from tcdo.zhu import diffop_one

    values = [vacuum(), highest_weight_vector(0), diffop_one()]
    for a in values:
        for b in values:
            if a is not b:
                assert a != b
                with pytest.raises(TypeError):
                    a + b
