"""Reference implementations the tests compare the package against.

Each one restates an identity or a bookkeeping rule directly from its
definition; the package itself has no use for them.
"""

import random
from functools import lru_cache
from math import gcd, prod

from tcdo.affine import _act_terms, _negative_words, _sugawara_span, word_depth, word_h_shift
from tcdo.cech import BigradedReport, mu_window
from tcdo.linalg import _Echelon, _integer_row, kernel_basis, rank
from tcdo.modespace import (
    GEN_A,
    LAURENT,
    POLY,
    FreeState,
    Monomial,
    _act,
    _borcherds_numerators,
    _head,
    _pairs,
    _state,
    _terms,
    apply_mode,
    binom,
    gen_a,
    gen_lstar,
    linear_combination,
    normal_forms,
    random_monomial,
    random_state,
    translation,
    vacuum,
    zero,
)
from tcdo.p1tcdo import (
    _SYMBOLIC_IMAGES,
    Chart,
    _glue_mono,
    _glue_table,
    glue,
    include_overlap,
    sections_bidegree,
    sl2_embedding,
)
from tcdo.qseries import QSeries, _check_orders
from tcdo.reports import CheckReport
from tcdo.zhu import DiffOp, GradingError, diffop, diffop_zero, homogeneous_weight, zhu_star


def commutator_sides(w: FreeState, r: int, v: FreeState, m: int, u: FreeState):
    """Both sides of [w_(r), v_(m)] u = sum_j C(r,j) (w_(j) v)_(r+m-j) u."""
    lhs = apply_mode(w, r, apply_mode(v, m, u)) - apply_mode(v, m, apply_mode(w, r, u))
    wmax = max(w.weights(), default=0) + max(v.weights(), default=0)
    rhs = zero(lhs.ring, u.lstar)
    for j in range(wmax + 1):
        coef = binom(r, j)
        if coef:
            rhs = rhs + coef * apply_mode(apply_mode(w, j, v), r + m - j, u)
    return lhs, rhs


def ref_borcherds_sides(a: FreeState, b: FreeState, c: FreeState, m: int, n: int, k: int):
    """Both sides of the Borcherds identity, composed from public
    ``apply_mode`` calls and summed as ``Fraction`` states term by term:
    the engine's borcherds_sides as it was before it ran on the integer
    core."""
    wa = max(a.weights(), default=0)
    wb = max(b.weights(), default=0)
    wc = max(c.weights(), default=0)
    ring = LAURENT if LAURENT in (a.ring, b.ring, c.ring) else POLY
    lhs = zero(ring, c.lstar)
    for j in range(max(wa + wb - n, 0) + 1):
        coef = binom(m, j)
        if coef:
            lhs = lhs + coef * apply_mode(apply_mode(a, n + j, b), m + k - j, c)
    rhs = zero(ring, c.lstar)
    for j in range(max(wb + wc - k, wa + wc - m, 0) + 1):
        coef = binom(n, j)
        if not coef:
            continue
        rhs = rhs + ((-1) ** j * coef) * apply_mode(a, m + n - j, apply_mode(b, k + j, c))
        sgn = 1 if (j + n) % 2 == 0 else -1
        rhs = rhs - (sgn * coef) * apply_mode(b, n + k - j, apply_mode(a, m + j, c))
    return lhs, rhs


def core_borcherds_sides(a: FreeState, b: FreeState, c: FreeState, m: int, n: int, k: int):
    """The two states whose numerators ``modespace._borcherds_numerators``
    returns: each side over the common denominator da*db*dc, in the sector
    of c and the Laurent ring if any of a, b, c is Laurent."""
    lhs, rhs = _borcherds_numerators(a, b, c, m, n, k)
    den = prod(_integer_row(s.terms)[1] for s in (a, b, c))
    ring = LAURENT if LAURENT in (a.ring, b.ring, c.ring) else POLY
    return tuple(_state(_pairs(side), den, ring, c.lstar) for side in (lhs, rhs))


def ref_engine_property_suite(samples: int = 200, seed: int = 42):
    """``engine_property_suite`` with every trial decided on states: the
    same draws and failure texts, with Borcherds composed from public
    ``apply_mode`` calls (``ref_borcherds_sides``) and the other three
    identities compared as ``FreeState``s."""
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
        lhs, rhs = ref_borcherds_sides(a, b, c, m, n, k)
        return lhs == rhs, lambda: f"sample {i} ({sector}): m={m} n={n} k={k}"

    def covariance(rng, i):
        w = random_state(rng, weight_max)
        u = random_state(rng, weight_max)
        m = rng.randint(-3, 2)
        ok = apply_mode(translation(w), m, u) == (-m) * apply_mode(w, m - 1, u)
        return ok, lambda: f"sample {i}: (T w)_({m}) != -{m} w_({m - 1})"

    def grading(rng, i):
        wm_mono = random_monomial(rng, weight_max)
        um_mono = random_monomial(rng, weight_max)
        m = rng.randint(-3, 2)
        out = apply_mode(FreeState({wm_mono: 1}, POLY), m, FreeState({um_mono: 1}, POLY))
        want_w = wm_mono.weight + um_mono.weight - m - 1
        want_h = wm_mono.h_shift + um_mono.h_shift
        ok = all(t.weight == want_w and t.h_shift == want_h for t in out.terms)
        return ok, lambda: f"sample {i}: bigrade drift under w_({m})"

    h_state = FreeState({Monomial((-1,), (), (), 1): -2}, POLY) + gen_lstar()

    def diagonality(rng, i):
        t = rng.randint(-3, 3)
        mono = random_monomial(rng, weight_max, symbolic=False)
        u = FreeState({mono: 1}, POLY, t)
        mu = t + mono.h_shift
        ok = apply_mode(h_state, 0, u) == mu * u
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


def ref_check_gluing_morphism(twist, samples: int = 100, seed: int = 42) -> CheckReport:
    """``check_gluing_morphism`` with every sample decided on states:
    glue(u_(m) v) == glue(u)_(m) glue(v) through ``glue`` and
    ``apply_mode``, with the same draws and failure texts."""
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
        ok = glue(apply_mode(u, m, v)) == apply_mode(glue(u), m, glue(v))
        return ok, lambda: f"sample {i}: ({u.render('y')})_({m}) {v.render('y')}"

    return rep.sample(random.Random(seed), samples, trial)


def ref_check_involution(twist, weight_max: int = 4) -> CheckReport:
    """``check_involution`` decided on states: glue(glue(u)) == u for the
    state u of each overlap basis monomial."""
    rep = CheckReport("gluing-involution", details={"weight_max": weight_max})
    h_bound = 2 * weight_max + 4
    for weight in range(weight_max + 1):
        for mu in range(-h_bound, h_bound + 1):
            for mono in sections_bidegree(Chart.OVERLAP, 0, weight, mu, twist is None):
                u = FreeState({mono: 1}, LAURENT, twist)
                rep.record(glue(glue(u)) == u, f"round trip of {mono.render()}")
    return rep


def ref_glue_mono(mono: tuple, ls, memo: dict) -> dict:
    """The glued image of one INFTY monomial 4-tuple of sector ls, as
    {4-tuple: int}, by the head/tail recursion at its own ground power: the
    head generator's symbolic image acts on the glued tail, and the ground
    y^k lands on x^((ls or 0) - k).  ``memo`` is a dict the caller owns for
    one test call: the image of each monomial met, keyed by (monomial, ls),
    is kept there, so a tail shared by many shapes is glued once per power.
    The recursion keeps no cache of its own."""
    key = (mono, ls)
    if key not in memo:
        head = _head(mono)
        if head is None:
            memo[key] = {((), (), (), (ls or 0) - mono[3]): 1}
        else:
            gen, m, tail = head
            out = _act(_SYMBOLIC_IMAGES[gen], m, ref_glue_mono(tail, ls, memo).items(), ls)
            memo[key] = {mo: c for mo, c in out.items() if c}
    return memo[key]


def bigrade(u: FreeState, twist: int = 0) -> tuple[int, int]:
    """(conformal weight, h-weight) of a bihomogeneous state; the chart twist
    enters the h-weight additively."""
    if u.is_zero:
        raise ValueError("the zero state has no bigrade")
    grades = {(m.weight, twist + m.h_shift) for m in u.terms}
    if len(grades) != 1:
        raise ValueError(f"state is not bihomogeneous: grades {sorted(grades)}")
    return next(iter(grades))


def weight_components(u: FreeState) -> dict[int, FreeState]:
    comps = {}
    for mono, c in u.terms.items():
        comps.setdefault(mono.weight, {})[mono] = c
    return {
        w: FreeState(t, u.ring, u.lstar) for w, t in sorted(comps.items())
    }


def zhu_star_linear(a: FreeState, b: FreeState) -> FreeState:
    """zhu_star extended linearly over the weight components of a."""
    comps = weight_components(a).values()
    out = None
    for part in comps:
        term = zhu_star(part, b)
        out = term if out is None else out + term
    if out is None:
        raise GradingError("empty left factor")
    return out


def zhu_star_n(a: FreeState, n: int, b: FreeState) -> FreeState:
    """The shifted products a *_n b = sum_{i=0..Da} C(Da, i) a_(n+i) b for
    homogeneous a; the Zhu product is the case n = -1."""
    da = homogeneous_weight(a)
    out = apply_mode(a, n, b)
    for i in range(1, da + 1):
        out = out + binom(da, i) * apply_mode(a, n + i, b)
    return out


def rank_nullity_consistent(report: BigradedReport) -> bool:
    for N in range(report.weight_max + 1):
        lhs = rhs = 0
        for (w, _), e in report.entries.items():
            if w == N:
                lhs += e["dim_h0"] - e["dim_h1"]
                rhs += e["dim_c0"] + e["dim_cinf"] - e["dim_overlap"]
        if lhs != rhs:
            return False
    return True


def ref_reduce(core: _Echelon, vec: dict) -> tuple[int, int]:
    """``core.reduce(vec)`` as it was before the walk started at the
    vector's lowest column: every stored pivot is probed, in increasing
    order."""
    rows = core.rows
    num = den = 1
    for p in core.pivots:
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


# the Cech differential as it was before cech._delta_matrix kept only its
# principal part: the zero-chart identity block included


def ref_principal_delta(n: int, weight: int, mu: int):
    """``cech._delta_matrix`` on the monomial path, as it was before it read
    G_- off the column positions of the glue tables: the infinity-chart and
    overlap monomial bases, dim0 and G_-, each glued key looked up in an
    index of the overlap basis sorted by descending ground power."""
    basisinf = sections_bidegree(Chart.INFTY, n, weight, -mu)
    basisov = sorted(sections_bidegree(Chart.OVERLAP, n, weight, mu), key=lambda m: -m.power)
    index = {m: i for i, m in enumerate(basisov)}
    dim0 = sum(m.power >= 0 for m in basisov)
    glued = ([(index[k], c) for k, c in _terms(_glue_mono(m, n))] for m in basisinf)
    return basisinf, basisov, dim0, [{i: c for i, c in pairs if i >= dim0} for pairs in glued]


def ref_overlap_columns(weight: int) -> tuple:
    """The overlap columns of the blocks of one conformal weight:
    ({shape: (column, h_shift)}, the negated h-shifts by column).  The
    columns are the shapes of ``normal_forms(weight)`` by descending h-shift
    (a stable sort), which is their order by descending ground power in every
    block, whatever n and mu."""
    forms = sorted(normal_forms(weight), key=lambda form: -form[3])
    return {form[:3]: (i, form[3]) for i, form in enumerate(forms)}, [-form[3] for form in forms]


def ref_glue_columns(shape: tuple, n: int) -> tuple:
    """``_glue_table(shape, n)`` over the overlap columns: ((column, diffs),
    ...) in the table's order.  A term keyed (amodes', bmodes', lmodes', q)
    lands in the column of its shape only if q = n + (shift + shift')/2 for
    the h-shifts of the two shapes; any other term raises KeyError."""
    place, _ = ref_overlap_columns(Monomial(*shape).weight)
    shift = place[shape][1]
    out = []
    for key, diffs in _glue_table(shape, n):
        column, target = place.get(key[:3], (None, None))
        if column is None or 2 * (key[3] - n) != shift + target:
            raise KeyError(f"the glued key {key} of shape {shape} in sector {n} leaves the overlap basis")
        out.append((column, diffs))
    return tuple(out)


def ref_block_rows(n: int, weight: int) -> tuple:
    """``cech._block_rows`` assembled shape by shape, as the blocks read it
    before it was one table per (n, weight): the columns and negated shifts
    of ``ref_overlap_columns(weight)``, and for each shape of
    ``normal_forms(weight)`` its h-shift, sample count and
    ``ref_glue_columns(shape, n)``."""
    place, negated = ref_overlap_columns(weight)
    rows = tuple(
        (shift, len(amodes) + 1, ref_glue_columns((amodes, bmodes, lmodes), n))
        for amodes, bmodes, lmodes, shift in normal_forms(weight)
    )
    return tuple(shape + (shift,) for shape, (_, shift) in place.items()), negated, rows


def ref_delta_matrix(n: int, weight: int, mu: int):
    """The three monomial bases at one bidegree and the full delta as the
    sparse integer images of the (zero ++ infinity) basis, each over the
    overlap basis index (by descending ground power): a zero-chart monomial
    includes as itself, an infinity-chart one maps to minus its image under
    the integer gluing core."""
    basis0 = sections_bidegree(Chart.ZERO, n, weight, mu)
    basisinf = sections_bidegree(Chart.INFTY, n, weight, -mu)
    basisov = sorted(sections_bidegree(Chart.OVERLAP, n, weight, mu), key=lambda m: -m.power)
    index = {m: i for i, m in enumerate(basisov)}
    images = [{index[m]: 1} for m in basis0] + [
        {index[k]: -c for k, c in _terms(_glue_mono(m, n))} for m in basisinf
    ]
    return basis0, basisinf, basisov, images


def ref_cech_dims(n: int, weight: int, mu: int) -> dict:
    """``cech_block``'s dimensions by the rank of the full delta."""
    basis0, basisinf, basisov, images = ref_delta_matrix(n, weight, mu)
    r = rank(images)
    return {
        "dim_c0": len(basis0),
        "dim_cinf": len(basisinf),
        "dim_overlap": len(basisov),
        "dim_h0": len(basis0) + len(basisinf) - r,
        "dim_h1": len(basisov) - r,
    }


def ref_cech_kernel(n: int, weight: int, mu: int):
    """H^0 at one bidegree by the full delta: (zero-chart basis,
    infinity-chart basis, kernel vectors over their concatenation)."""
    basis0, basisinf, _, images = ref_delta_matrix(n, weight, mu)
    return basis0, basisinf, kernel_basis(images)


# the two H^0 scans as they were before cech.scan_h0_sl2 merged them: each
# takes every kernel apart into chart states and acts through apply_mode

def _chart_pair(vec, basis0, basisinf, n):
    """A kernel vector over (zero ++ infinity) bases as its pair of states."""
    k = len(basis0)
    s0 = FreeState(dict(zip(basis0, vec[:k])), Chart.ZERO.ring, n)
    sinf = FreeState(dict(zip(basisinf, vec[k:])), Chart.INFTY.ring, n)
    return s0, sinf


def _pair_image(gen, m, pair, rho0, rhoinf):
    s0, sinf = pair
    return apply_mode(rho0[gen], m, s0), apply_mode(rhoinf[gen], m, sinf)


def ref_singular_vectors_h0(n: int, weight_max: int):
    """All H^0 classes killed by rho(e)_(0) and every positive mode: returns
    [(weight, mu, zero-chart representative)].  Because H^0 is literally the
    kernel subspace of C^0 (no quotient is taken), singularity is a plain
    linear condition on kernel vectors; modes beyond m = N kill weight-N
    states identically and need no rows."""
    if n < 0:
        raise ValueError("the singular-vector scan expects n >= 0")
    rho0 = sl2_embedding(Chart.ZERO)
    rhoinf = sl2_embedding(Chart.INFTY)
    found = []
    for N in range(weight_max + 1):
        for mu in mu_window(n, weight_max):
            basis0, basisinf, kernel = ref_cech_kernel(n, N, mu)
            if not kernel:
                continue
            raising = [("e", 0)] + [
                (x, m) for m in range(1, N + 1) for x in ("e", "h", "f")
            ]
            # the condition map: each kernel vector goes to the target
            # coefficients of its images under every raising op, on both charts
            pairs = [_chart_pair(vec, basis0, basisinf, n) for vec in kernel]
            images = []
            for pair in pairs:
                image = {}
                for gen, m in raising:
                    img0, imginf = _pair_image(gen, m, pair, rho0, rhoinf)
                    image.update(((gen, m, Chart.ZERO, mo), c) for mo, c in img0.terms.items())
                    image.update(((gen, m, Chart.INFTY, mo), c) for mo, c in imginf.terms.items())
                images.append(image)
            for coeffs in kernel_basis(images):
                rep = linear_combination(
                    zip(coeffs, (s0.terms.items() for s0, _ in pairs)), Chart.ZERO.ring, n
                )
                found.append((N, mu, rep))
    return found


def ref_check_sl2_stability(n: int, weight_max: int, modes=(-2, -1, 0, 1, 2)) -> CheckReport:
    """delta intertwines the chart actions, so ker delta must be preserved:
    apply every generator mode to every kernel vector and check the image
    pair is again a cocycle (delta of it vanishes identically)."""
    rho0 = sl2_embedding(Chart.ZERO)
    rhoinf = sl2_embedding(Chart.INFTY)
    rep = CheckReport("cech-sl2-stability", details={"n": n, "weight_max": weight_max})
    for N in range(weight_max + 1):
        for mu in mu_window(n, weight_max):
            basis0, basisinf, kernel = ref_cech_kernel(n, N, mu)
            for vec in kernel:
                pair = _chart_pair(vec, basis0, basisinf, n)
                for gen in "ehf":
                    for m in modes:
                        img0, imginf = _pair_image(gen, m, pair, rho0, rhoinf)
                        delta = include_overlap(img0) - glue(imginf)
                        rep.record(
                            delta.is_zero,
                            f"(N={N}, mu={mu}) {gen}_({m}) image leaves ker delta",
                        )
    return rep


# the two word replays as they were before affine._replay shared their tails

def ref_verma_images(n: int, words) -> list:
    """The free-field image of each PBW word on the ground state of the
    residue-n module, by the state path: from ``vacuum(lstar=n)``, one public
    ``apply_mode`` with the ZERO-chart current of each mode, last mode first.
    Returns one ``FreeState`` per word.  The state of every word suffix met
    is kept for the call, so a suffix that many words share is replayed once."""
    rho = sl2_embedding(Chart.ZERO)
    memo = {(): vacuum(lstar=n)}

    def image(word):
        if word not in memo:
            gen, m = word[0]
            memo[word] = apply_mode(rho[gen], m, image(word[1:]))
        return memo[word]

    return [image(word) for word in words]


def ref_irreducible_dims(n: int, d_max: int, mu_values) -> dict:
    """Per-bidegree dimensions of L_n, replaying each lowering word on
    f_0^(n+1) v from scratch: the negative-mode words of each depth, with the
    f_0 power that lands on mu worked out from the h-weight gap."""
    sing_word = (("f", 0),) * (n + 1)
    out = {}
    for d in range(d_max + 1):
        for mu in mu_values:
            basis_words, tracker, index = _sugawara_span(n, d, mu)
            for neg in _negative_words(d):
                gap = n + word_h_shift(neg) - 2 * (n + 1) - mu
                if gap >= 0 and gap % 2 == 0:
                    terms = ((sing_word, 1),)
                    for gen, m in reversed(neg + (("f", 0),) * (gap // 2)):
                        terms = _act_terms(gen, m, terms, n).items()
                    tracker.add({index[w]: c for w, c in terms})
            out[(d, mu)] = len(basis_words) - tracker.dim
    return out


def pbw_depth_max(v) -> int:
    """The largest depth of a word of the PBW vector v, 0 when v is zero."""
    return max((word_depth(w) for w in v.terms), default=0)


# the Zhu class map as it was before zhu_reduce took the closed form: the
# rewriting rules modulo O'(V), with the zero mode run through the engine

def ref_zhu_reduce(u: FreeState) -> DiffOp:
    """Class of u in the Zhu algebra, in functions-then-derivations order."""
    out = diffop_zero()
    for mono, c in u.terms.items():
        out = out + c * _ref_reduce_mono(mono, u.ring, u.lstar)
    return out


@lru_cache(maxsize=None)
def _ref_reduce_mono(mono: Monomial, ring: str, ls) -> DiffOp:
    if mono.bmodes:
        return diffop_zero()
    head = _head(mono)
    if head is None:
        return diffop(k=mono.power)
    gen, mode, tail = head
    tail = Monomial(*tail)
    if gen == GEN_A:
        gen_op, gen_state = diffop(p=1), gen_a()
    else:
        gen_op, gen_state = diffop(e=1), gen_lstar()
    sign = 1 if mode % 2 else -1  # (-1)^(s-1) for the mode -s
    tail_state = FreeState({tail: 1}, ring, ls)
    zero_mode = apply_mode(gen_state, 0, tail_state)
    reduced = gen_op * _ref_reduce_mono(tail, ring, ls) - ref_zhu_reduce(zero_mode)
    return sign * reduced


# the q-series convolution the characters were built by before
# qseries._divide ran the geometric factors as an in-place recurrence


def series_one(order: int) -> QSeries:
    return QSeries((1,) + (0,) * order, order)


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product of two series truncated at the same order."""
    _check_orders(a, b)
    n = a.order
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return QSeries(tuple(out), n)


def geometric(p: int, order: int) -> QSeries:
    """(1 - q^p)^(-1) truncated at ``order``, for p >= 1."""
    if p < 1:
        raise ValueError("geometric exponent must be >= 1")
    coeffs = tuple(1 if j % p == 0 else 0 for j in range(order + 1))
    return QSeries(coeffs, order)


def ref_eta_inverse_squared(order: int) -> QSeries:
    """prod_{j=1..order} (1 - q^j)^(-2) by convolution."""
    out = series_one(order)
    for j in range(1, order + 1):
        g = geometric(j, order)
        out = series_mul(out, series_mul(g, g))
    return out

