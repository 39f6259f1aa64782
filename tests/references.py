"""Reference implementations the tests compare the package against.

Each one restates an identity or a bookkeeping rule directly from its
definition; the package itself has no use for them.
"""

from tcdo.cech import BigradedReport, cech_kernel, mu_window
from tcdo.linalg import kernel_basis
from tcdo.modespace import (
    LAURENT,
    POLY,
    FreeState,
    _act,
    _head,
    apply_mode,
    binom,
    linear_combination,
    zero,
)
from tcdo.p1tcdo import _SYMBOLIC_IMAGES, Chart, glue, include_overlap, sl2_embedding
from tcdo.reports import CheckReport
from tcdo.zhu import GradingError, zhu_star


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
            basis0, basisinf, kernel = cech_kernel(n, N, mu)
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
            basis0, basisinf, kernel = cech_kernel(n, N, mu)
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
