"""Reference implementations the tests compare the package against.

Each one restates an identity or a bookkeeping rule directly from its
definition; the package itself has no use for them.
"""

from tcdo.cech import BigradedReport
from tcdo.modespace import LAURENT, POLY, FreeState, _act, _head, apply_mode, binom, zero
from tcdo.p1tcdo import _SYMBOLIC_IMAGES
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
