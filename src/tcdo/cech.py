"""Bigraded Čech cohomology of the degree-n chiral sheaf on the two-chart
cover of the projective line.

For each bidegree (conformal weight N, h-weight mu) the two-term complex

    Gamma(C_0) (+) Gamma(C_oo)  --delta-->  Gamma(C*)
    delta(s_0, s_oo) = incl(s_0) - Phi_n(s_oo)

has H^0 = ker delta and H^1 = coker delta.  The zero-chart sections are the
overlap monomials with ground power >= 0, so delta = [I | -G], H^0 = ker G_-
and H^1 = coker G_-, where the principal part G_- keeps the negative-power
terms of the gluing Phi_n (Hartshorne, Algebraic Geometry III.5).
Global h-weight of a section over the infinity chart is minus its intrinsic
one (the gluing negates mu), so the C^0 block at global mu draws on the
intrinsic bidegree (N, -mu) over there.

The gluing preserves the h-weight, so in one block each mode shape of
``normal_forms(N)`` fills exactly one overlap column, at the ground power its
h-shift fixes, and the column order does not depend on n or mu.  G_- is read
off the glue tables of the shapes by column position, from one cached table
per (n, N) that serves every mu (``_block_rows``): no section monomial is
built per block.

Depth slices alone are infinite (the ground polynomials are unbounded), so
every aggregate q-character is taken over an explicit mu window whose
sufficiency is re-verified by scanning a doubled window — the ``stable``
flag on a report records that nothing nonzero lives outside the base window.
Blocks are pure functions of (n, N, mu); reports merge deterministically by
sorted bidegree.

The sl2 side of ``tcdo affine singular`` is one pass, ``scan_h0_sl2``: it
takes each base-window kernel once and, on the integer core (``_act`` and
``_glue_mono``), both finds the classes killed by the raising generators and
checks that every sl2 image of the kernel is again a cocycle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from . import _registered
from .linalg import _merge, kernel_basis, rank
from .modespace import _act, _terms, linear_combination, normal_forms
from .p1tcdo import RAISING, Chart, _glue_mono, _glue_table, _glued, _sl2_currents, sections_bidegree
from .qseries import QSeries, char_H1, char_L, eta_inverse_squared
from .reports import CheckReport


class StabilityError(ValueError):
    """A windowed aggregate was requested from an unstable scan."""


@dataclass
class BigradedReport:
    n: int
    weight_max: int
    entries: dict = field(default_factory=dict)
    h0_character: QSeries | None = None
    h1_character: QSeries | None = None
    stable: bool = False

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "weight_max": self.weight_max,
            "stable": self.stable,
            "h0_character": list(self.h0_character.coeffs),
            "h1_character": list(self.h1_character.coeffs),
            "entries": {
                f"{w},{mu}": e for (w, mu), e in sorted(self.entries.items())
            },
        }


def mu_window(n: int, weight_max: int, factor: int = 1) -> range:
    """The h-weight scan window: |mu| <= |n| + 2*weight_max + 2, widened by
    ``factor`` for stability rechecks."""
    bound = factor * (abs(n) + 2 * weight_max + 2)
    return range(-bound, bound + 1)


# one entry per (n, weight) a request reads: 13 sectors x 11 weights = 143
# cover every request the CLI accepts (n in -6..6, weight <= 10)
@_registered
@lru_cache(maxsize=160)
def _block_rows(n: int, weight: int) -> tuple:
    """What every block (n, weight, mu) reads, whatever mu: (columns,
    negated, rows).  ``columns`` are the normal forms (amodes, bmodes,
    lmodes, shift) of ``normal_forms(weight)`` by descending h-shift (a
    stable sort), their order by descending ground power in every block, and
    ``negated`` their negated h-shifts.  ``rows``
    hold (h-shift, len(amodes) + 1, ((column, diffs), ...)) for each shape of
    ``normal_forms(weight)`` in its order: its ``_glue_table(shape, n)`` over
    the columns.  h-weight is preserved, so a term keyed (amodes', bmodes',
    lmodes', q) lands in the column of its shape, and only if q = n +
    (shift + shift')/2 for the h-shifts of the two shapes; a term of any
    other shape or power (an LSTAR mode, say) leaves the overlap basis and
    raises KeyError."""
    order = sorted(normal_forms(weight), key=lambda form: -form[3])
    place = {form[:3]: (i, form[3]) for i, form in enumerate(order)}
    rows = []
    for form in normal_forms(weight):
        glued = []
        for key, diffs in _glue_table(form[:3], n):
            column, target = place.get(key[:3], (None, None))
            if column is None or 2 * (key[3] - n) != form[3] + target:
                raise KeyError(f"the glued key {key} of shape {form[:3]} in sector {n} leaves the overlap basis")
            glued.append((column, diffs))
        rows.append((form[3], len(form[0]) + 1, tuple(glued)))
    return tuple(order), [-form[3] for form in order], tuple(rows)


def _delta_matrix(n: int, weight: int, mu: int):
    """The overlap basis size, the count dim0 of its monomials with ground
    power >= 0, and G_-: one sparse integer row per monomial of the infinity
    basis ``sections_bidegree(Chart.INFTY, n, weight, -mu)``, in its order,
    holding its glued image over the overlap columns without the columns
    < dim0.

    The gluing preserves the h-weight, and every h-shift is even.  So both
    bases are empty when n - mu is odd.  Otherwise, by the rule of
    ``sections_bidegree`` that this arithmetic follows inline, the overlap
    basis has one monomial per shape of ``normal_forms(weight)``, of ground
    power (n + shift - mu)/2, the infinity basis has one per shape with
    k = (n + shift + mu)/2 >= 0, and the glued image of that one is its
    shape's row of ``_block_rows(n, weight)`` evaluated at k, so no monomial
    is built.  The columns number the overlap basis by descending ground
    power, so the zero-chart monomials (shift >= mu - n) come first and
    ``rank``, which pivots on the lowest column, eliminates the highest
    ground power first.  Over the blocks of ``cech_dims(0, 9)`` this keeps
    106320 nonzero entries in the echelon rows where the order of
    ``sections_bidegree`` keeps 142097.  The kernel vectors of
    ``cech_kernel`` do not depend on it."""
    if (n - mu) % 2:
        return 0, 0, []
    _, negated, rows = _block_rows(n, weight)
    dim0 = bisect_right(negated, n - mu)
    principal = []
    for shift, samples, glued in rows:
        k = (n + shift + mu) // 2
        if k >= 0:
            weights = [math.comb(k, i) for i in range(samples)]
            principal.append({
                column: c for column, diffs in glued
                if column >= dim0 and (c := sum(map(mul, diffs, weights)))
            })
    return len(negated), dim0, principal


def cech_block(n: int, weight: int, mu: int) -> dict:
    """Exact dimensions at one bidegree (a pure function of its arguments)."""
    dim_overlap, dim0, principal = _delta_matrix(n, weight, mu)
    r = rank(principal)
    return {
        "dim_c0": dim0,
        "dim_cinf": len(principal),
        "dim_overlap": dim_overlap,
        "dim_h0": len(principal) - r,
        "dim_h1": dim_overlap - dim0 - r,
    }


def cech_kernel(n: int, weight: int, mu: int):
    """H^0 at one bidegree: (infinity-chart basis, kernel vectors of G_- over
    it); the zero half of a cocycle is the glue of its infinity half."""
    *_, principal = _delta_matrix(n, weight, mu)
    return sections_bidegree(Chart.INFTY, n, weight, -mu), kernel_basis(principal)


def cech_dims(n: int, weight_max: int) -> BigradedReport:
    """Full bigraded scan with a doubled-window stability recheck.

    Each (N, mu) block is window-independent, so stability reduces to: the
    doubled window finds no nonzero cohomology outside the base window.
    """
    if weight_max < 0:
        raise ValueError("weight_max must be >= 0")
    base = set(mu_window(n, weight_max))
    blocks = {
        (N, mu): cech_block(n, N, mu)
        for N in range(weight_max + 1)
        for mu in mu_window(n, weight_max, 2)
    }

    report = BigradedReport(n=n, weight_max=weight_max)
    stable = True
    for (N, mu) in sorted(blocks):
        e = blocks[(N, mu)]
        if mu in base:
            report.entries[(N, mu)] = e
        elif e["dim_h0"] or e["dim_h1"]:
            stable = False
    h0 = [0] * (weight_max + 1)
    h1 = [0] * (weight_max + 1)
    for (N, _), e in report.entries.items():
        h0[N] += e["dim_h0"]
        h1[N] += e["dim_h1"]
    report.h0_character = QSeries(tuple(h0), weight_max)
    report.h1_character = QSeries(tuple(h1), weight_max)
    report.stable = stable
    return report


def _require_stable(report: BigradedReport) -> None:
    if not report.stable:
        raise StabilityError(
            f"mu window for n={report.n}, weight_max={report.weight_max} "
            "is not stable; aggregate characters would be unreliable"
        )


def euler_check(report: BigradedReport) -> bool:
    """h0 - h1 must equal (n+1) * prod (1-q^j)^(-2), coefficient-wise."""
    _require_stable(report)
    diff = report.h0_character - report.h1_character
    return diff == (report.n + 1) * eta_inverse_squared(report.weight_max)


def expected_characters(n: int, weight_max: int) -> tuple[QSeries, QSeries]:
    """Closed-form (h0, h1) characters for twist n."""
    if n >= 0:
        return char_L(n, weight_max), char_H1(n, weight_max)
    if n == -1:
        zero = QSeries((0,) * (weight_max + 1), weight_max)
        return zero, zero
    base = char_L(-n - 2, weight_max)
    return base.shift(-n - 1), base


def character_check(report: BigradedReport) -> bool:
    _require_stable(report)
    want_h0, want_h1 = expected_characters(report.n, report.weight_max)
    return report.h0_character == want_h0 and report.h1_character == want_h1


def scan_h0_sl2(n: int, weight_max: int):
    """One pass over the H^0 kernels of the base window: (found, report).

    ``found`` lists the H^0 classes killed by the raising generators
    ``RAISING`` as [(weight, mu, zero-chart representative)].  H^0 is
    literally the kernel subspace of C^0 (no quotient is taken), so
    singularity is a plain linear condition on kernel vectors, and since
    those four generate every raising mode, their images are its only rows.
    ``report`` checks that delta intertwines the chart actions: the image
    pair of every kernel vector under e, h and f at the modes -2..2 is again
    a cocycle, img0 - glue(imginf) = 0.  The conditions are the zero-chart
    images alone, keyed (gen, m, monomial): the gluing is an involution, so
    once every image pair passes that check, a combination of kernel vectors
    kills img0 exactly when it kills imginf, which thus adds no condition.

    Each block's kernel is scaled to integers by one common denominator,
    which scales the condition map as a whole and leaves its reduced kernel
    basis as it is.  Each image is computed once, on the integer core."""
    rho0, rhoinf = _sl2_currents(Chart.ZERO), _sl2_currents(Chart.INFTY)
    found = []
    rep = CheckReport("cech-sl2-stability", details={"n": n, "weight_max": weight_max})
    for N in range(weight_max + 1):
        for mu in mu_window(n, weight_max):
            basisinf, kernel = cech_kernel(n, N, mu)
            if not kernel:
                continue
            den = math.lcm(*(c.denominator for vec in kernel for c in vec))
            halves, conditions = [], []
            for vec in kernel:
                sinf = [(mono, c.numerator * (den // c.denominator)) for mono, c in zip(basisinf, vec) if c]
                s0 = list(_glued(sinf, n).items())
                halves.append(s0)
                condition = {}
                for gen in "ehf":
                    for m in range(-2, 3):
                        img0 = _act(rho0[gen], m, s0, n)
                        if (gen, m) in RAISING:
                            condition.update(((gen, m, mo), c) for mo, c in img0.items())
                        for mono, c in _act(rhoinf[gen], m, sinf, n).items():
                            _merge(img0, _terms(_glue_mono(mono, n)), -c)
                        rep.record(
                            not any(img0.values()),
                            f"(N={N}, mu={mu}) {gen}_({m}) image leaves ker delta",
                        )
                conditions.append(condition)
            for coeffs in kernel_basis(conditions):
                rep0 = linear_combination(zip((c / den for c in coeffs), halves), Chart.ZERO.ring, n)
                found.append((N, mu, rep0))
    return found, rep
