"""Bigraded Čech cohomology of the degree-n chiral sheaf on the two-chart
cover of the projective line.

For each bidegree (conformal weight N, h-weight mu) the two-term complex

    Gamma(C_0) (+) Gamma(C_oo)  --delta-->  Gamma(C*)
    delta(s_0, s_oo) = incl(s_0) - Phi_n(s_oo)

is a finite integer matrix over the normal-form monomial bases of the
three section spaces; H^0 is its kernel and H^1 its cokernel.
Global h-weight of a section over the infinity chart is minus its intrinsic
one (the gluing negates mu), so the C^0 block at global mu draws on the
intrinsic bidegree (N, -mu) over there.

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
from dataclasses import dataclass, field

from .linalg import _merge, kernel_basis, rank
from .modespace import _act, _numerators, linear_combination
from .p1tcdo import RAISING, Chart, _glue_mono, sections_bidegree, sl2_embedding
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


def _delta_matrix(n: int, weight: int, mu: int):
    """The three monomial bases at one bidegree and delta as the sparse
    integer images of the (zero ++ infinity) basis, each over the overlap
    basis index: a zero-chart monomial includes as itself, an infinity-chart
    one maps to minus its image under the integer gluing core.  Building them
    raises KeyError when an image leaves the overlap basis.

    The overlap basis comes sorted by descending ground power, and the index
    numbers it in that order, so that ``rank``, which pivots on the lowest
    column, eliminates the highest ground power first.  Over the blocks of
    ``cech_dims(0, 9)`` this keeps 121734 nonzero entries in the echelon rows
    where the order of ``sections_bidegree`` keeps 157511.  The overlap index
    numbers only the rows of ``cech_kernel``'s elimination, so its kernel
    vectors do not depend on it."""
    basis0 = sections_bidegree(Chart.ZERO, n, weight, mu)
    basisinf = sections_bidegree(Chart.INFTY, n, weight, -mu)
    basisov = sorted(sections_bidegree(Chart.OVERLAP, n, weight, mu), key=lambda m: -m.power)
    index = {m: i for i, m in enumerate(basisov)}
    images = [{index[m]: 1} for m in basis0] + [
        {index[k]: -c for k, c in _glue_mono(m, n)} for m in basisinf
    ]
    return basis0, basisinf, basisov, images


def cech_block(n: int, weight: int, mu: int) -> dict:
    """Exact dimensions at one bidegree (a pure function of its arguments)."""
    basis0, basisinf, basisov, images = _delta_matrix(n, weight, mu)
    r = rank(images)
    return {
        "dim_c0": len(basis0),
        "dim_cinf": len(basisinf),
        "dim_overlap": len(basisov),
        "dim_h0": len(basis0) + len(basisinf) - r,
        "dim_h1": len(basisov) - r,
    }


def cech_kernel(n: int, weight: int, mu: int):
    """H^0 representatives at one bidegree: (zero-chart basis, infinity-chart
    basis, kernel coefficient vectors over their concatenation)."""
    basis0, basisinf, _, images = _delta_matrix(n, weight, mu)
    return basis0, basisinf, kernel_basis(images)


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
    a cocycle, img0 - glue(imginf) = 0.

    Each block's kernel is scaled to integers by one common denominator, and
    the currents of both charts by another; that scales the condition map as
    a whole, so its reduced kernel basis, and with it every representative,
    stays the same.  Each image is computed once, on the integer core."""
    _, pairs = _numerators({
        (chart, gen, mono): c
        for chart in (Chart.ZERO, Chart.INFTY)
        for gen, state in sl2_embedding(chart).items()
        for mono, c in state.terms.items()
    })
    rho: dict = {}
    for (chart, gen, mono), c in pairs:
        rho.setdefault((chart, gen), []).append((mono, c))
    found = []
    rep = CheckReport("cech-sl2-stability", details={"n": n, "weight_max": weight_max})
    for N in range(weight_max + 1):
        for mu in mu_window(n, weight_max):
            basis0, basisinf, kernel = cech_kernel(n, N, mu)
            if not kernel:
                continue
            k = len(basis0)
            den = math.lcm(*(c.denominator for vec in kernel for c in vec))
            conditions = []
            for vec in kernel:
                ints = [c.numerator * (den // c.denominator) for c in vec]
                s0 = [(mono, c) for mono, c in zip(basis0, ints[:k]) if c]
                sinf = [(mono, c) for mono, c in zip(basisinf, ints[k:]) if c]
                condition = {}
                for gen in "ehf":
                    for m in range(-2, 3):
                        img0 = _act(rho[Chart.ZERO, gen], m, s0, n)
                        imginf = _act(rho[Chart.INFTY, gen], m, sinf, n)
                        if (gen, m) in RAISING:
                            condition.update(((gen, m, Chart.ZERO, mo), c) for mo, c in img0.items())
                            condition.update(((gen, m, Chart.INFTY, mo), c) for mo, c in imginf.items())
                        for mono, c in imginf.items():
                            _merge(img0, _glue_mono(mono, n), -c)
                        rep.record(
                            not any(img0.values()),
                            f"(N={N}, mu={mu}) {gen}_({m}) image leaves ker delta",
                        )
                conditions.append(condition)
            for coeffs in kernel_basis(conditions):
                terms = (zip(basis0, vec[:k]) for vec in kernel)
                found.append((N, mu, linear_combination(zip(coeffs, terms), Chart.ZERO.ring, n)))
    return found, rep
