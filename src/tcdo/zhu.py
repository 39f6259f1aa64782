"""The Zhu product on chart states and the reduction to differential operators.

The weight-graded product ``a * b = sum_j C(Da, j) a_(j-1) b`` descends, modulo
the span O'(V) of low modes, to an associative algebra: for one chart of the
twisted CDO this is the algebra of twisted differential operators, generated
by xbar, the derivation dbar and a central symbol lbar* subject only to the
Weyl relation [dbar, xbar] = 1.

``zhu_reduce`` sends a state to its class written in the canonical order
functions-then-derivations (x^k d^p lbar*^e).  The rewriting used is

* any B-mode (a mode f_(m), m <= -2, of a ground function) kills the class;
* a weight-1 mode y_(-s) may be traded for (-1)^(s-1) y_(-1);
* y_(-1) u has class ybar * ubar - class(y_(0) u),

each valid modulo O'(V) at every depth of the monomial, so the result is
independent of the rewriting order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import SpanTracker, coordinate_rows
from .modespace import (
    POLY,
    FreeState,
    Monomial,
    apply_mode,
    binom,
    gen_a,
    gen_b,
    gen_lstar,
    ground,
    vacuum,
)
from .reports import CheckReport


class GradingError(ValueError):
    """The Zhu product needs a conformally homogeneous left factor."""


# -- the target algebra -----------------------------------------------------


class DiffOp:
    """Exact combination of normal-form symbols x^k d^p l*^e (k any integer,
    p, e >= 0), multiplied by repeatedly commuting d past powers of x."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int, int], Fraction] = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                k, p, e = key
                if p < 0 or e < 0:
                    raise ValueError(f"bad normal-form key {key}")
                clean[key] = c
        self.terms = clean

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DiffOp") -> "DiffOp":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return DiffOp(out)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-1) * other

    def __rmul__(self, c) -> "DiffOp":
        return DiffOp({k: Fraction(c) * v for k, v in self.terms.items()})

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        out: dict[tuple[int, int, int], Fraction] = {}
        for (k1, p1, e1), c1 in self.terms.items():
            for (k2, p2, e2), c2 in other.terms.items():
                # d^p1 x^k2 = sum_i C(p1,i) k2(k2-1)...(k2-i+1) x^(k2-i) d^(p1-i)
                fall = 1
                for i in range(p1 + 1):
                    coef = binom(p1, i) * fall
                    if coef:
                        key = (k1 + k2 - i, p1 + p2 - i, e1 + e2)
                        out[key] = out.get(key, Fraction(0)) + c1 * c2 * coef
                    fall *= k2 - i
        return DiffOp(out)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self * other - other * self

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (k, p, e) in sorted(self.terms):
            c = self.terms[(k, p, e)]
            sym = "".join(
                [f"x^{k} " if k not in (0, 1) else ("x " if k == 1 else ""),
                 f"d^{p} " if p > 1 else ("d " if p == 1 else ""),
                 f"l*^{e}" if e > 1 else ("l*" if e == 1 else "")]
            ).strip()
            bits.append(f"({c}) {sym}" if sym else f"({c})")
        return " + ".join(bits)

    def __repr__(self):
        return f"<DiffOp {self.render()}>"


def diffop_zero() -> DiffOp:
    return DiffOp()


def diffop_one() -> DiffOp:
    return DiffOp({(0, 0, 0): 1})


def diffop(k: int = 0, p: int = 0, e: int = 0, c=1) -> DiffOp:
    return DiffOp({(k, p, e): c})


# -- the Zhu product ---------------------------------------------------------


def homogeneous_weight(a: FreeState) -> int:
    ws = a.weights()
    if len(ws) != 1:
        raise GradingError(f"state is not conformally homogeneous: weights {sorted(ws)}")
    return next(iter(ws))


def zhu_star(a: FreeState, b: FreeState) -> FreeState:
    """a * b = sum_{j=0..Da} C(Da, j) a_(j-1) b for homogeneous a."""
    return zhu_star_n(a, -1, b)


def zhu_star_n(a: FreeState, n: int, b: FreeState) -> FreeState:
    """The shifted products a *_n b = sum_{i=0..Da} C(Da, i) a_(n+i) b."""
    da = homogeneous_weight(a)
    out = apply_mode(a, n, b)
    for i in range(1, da + 1):
        out = out + binom(da, i) * apply_mode(a, n + i, b)
    return out


def zhu_star_linear(a: FreeState, b: FreeState) -> FreeState:
    """zhu_star extended linearly over the weight components of a."""
    comps = a.weight_components().values()
    out = None
    for part in comps:
        term = zhu_star(part, b)
        out = term if out is None else out + term
    if out is None:
        raise GradingError("empty left factor")
    return out


# -- reduction to normal form -------------------------------------------------


def zhu_reduce(u: FreeState) -> DiffOp:
    """Class of u in the Zhu algebra, in functions-then-derivations order."""
    out = diffop_zero()
    for mono, c in u.terms.items():
        out = out + c * _reduce_mono(mono, u.ring, u.lstar)
    return out


@lru_cache(maxsize=None)
def _reduce_mono(mono: Monomial, ring: str, ls) -> DiffOp:
    if mono.bmodes:
        return diffop_zero()
    if mono.amodes:
        gen_op, gen_state = diffop(p=1), gen_a()
        s = -mono.amodes[0]
        tail = Monomial(mono.amodes[1:], (), mono.lmodes, mono.power)
    elif mono.lmodes:
        gen_op, gen_state = diffop(e=1), gen_lstar()
        s = -mono.lmodes[0]
        tail = Monomial((), (), mono.lmodes[1:], mono.power)
    else:
        return diffop(k=mono.power)
    sign = 1 if s % 2 else -1  # (-1)^(s-1)
    tail_state = FreeState({tail: 1}, ring, ls)
    zero_mode = apply_mode(gen_state, 0, tail_state)
    reduced = gen_op * _reduce_mono(tail, ring, ls) - zhu_reduce(zero_mode)
    return sign * reduced


# -- chart-level verification --------------------------------------------------


def _deriv_state(t: int) -> FreeState:
    """The lift of the vector field x^t d/dx."""
    return FreeState({Monomial(amodes=(-1,), power=t): 1})


def check_alpha_relations() -> CheckReport:
    """The defining relations of the twisted differential-operator algebra,
    checked through zhu_star/zhu_reduce on the generating family
    f in {1, x, x^2}, tau in {d, x d, x^2 d}:

      R1  f * g           == class(f g)
      R2  tau * f - f * tau == class(tau(f))
      R3  tau * xi - xi * tau == class(tau_(0) xi) == [taubar, xibar]
      R4  f * tau         == class(f_(-1) tau) == fbar taubar
    """
    rep = CheckReport("alpha-relations")
    funcs = {f"x^{s}": (s, ground(s)) for s in (0, 1, 2)}
    vects = {f"x^{t}d": (t, _deriv_state(t)) for t in (0, 1, 2)}

    for fn, (s, f) in funcs.items():
        for gn, (t, g) in funcs.items():
            ok = zhu_reduce(zhu_star(f, g)) == diffop(k=s + t)
            rep.record(ok, f"R1 {fn}*{gn}")

    for tn, (t, tau) in vects.items():
        for fn, (s, f) in funcs.items():
            lhs = zhu_reduce(zhu_star(tau, f) - zhu_star(f, tau))
            tau_f = diffop(k=s + t - 1, c=s) if s else diffop_zero()
            rep.record(lhs == tau_f, f"R2 [{tn},{fn}]")

    for tn, (t, tau) in vects.items():
        for xn, (u, xi) in vects.items():
            lhs = zhu_reduce(zhu_star(tau, xi) - zhu_star(xi, tau))
            bracket_state = zhu_reduce(apply_mode(tau, 0, xi))
            weyl = zhu_reduce(tau).commutator(zhu_reduce(xi))
            rep.record(lhs == bracket_state, f"R3 [{tn},{xn}] vs state bracket")
            rep.record(lhs == weyl, f"R3 [{tn},{xn}] vs operator commutator")

    for fn, (s, f) in funcs.items():
        for tn, (t, tau) in vects.items():
            lhs = zhu_reduce(zhu_star(f, tau))
            rep.record(lhs == zhu_reduce(apply_mode(f, -1, tau)), f"R4 {fn}*{tn} vs f_(-1)")
            rep.record(lhs == zhu_reduce(f) * zhu_reduce(tau), f"R4 {fn}*{tn} vs product")
    return rep


def check_zhu_of_tcdo_chart(cutoff: int = 3) -> CheckReport:
    """Defining relations and a no-collapse filtration check for one chart:
    [dbar, xbar] = 1, lbar* central, and the words x^d * a^k * l*^e with
    d + k + e <= cutoff reduce to linearly independent normal forms."""
    rep = CheckReport("zhu-of-chart", details={"cutoff": cutoff})
    a, x, lam = gen_a(), gen_b(), gen_lstar()

    weyl_state = zhu_star(a, x) - zhu_star(x, a)
    rep.record(weyl_state == vacuum(), "[a, x] as states = |0>")
    rep.record(zhu_reduce(weyl_state) == diffop_one(), "[dbar, xbar] = 1")
    for name, v in (("x", x), ("a", a)):
        comm = zhu_reduce(zhu_star(lam, v) - zhu_star(v, lam))
        rep.record(comm.is_zero, f"[l*, {name}] = 0")

    # enumerate the reduced classes of the products x^d a^k l*^e
    words = []
    for d in range(cutoff + 1):
        for k in range(cutoff + 1 - d):
            for e in range(cutoff + 1 - d - k):
                w = vacuum()
                for _ in range(e):
                    w = zhu_star(lam, w)
                for _ in range(k):
                    w = zhu_star(a, w)
                for _ in range(d):
                    w = zhu_star(x, w)
                words.append(((d, k, e), zhu_reduce(w)))

    keys = sorted({key for _, op in words for key in op.terms})
    index = {key: i for i, key in enumerate(keys)}
    tracker = SpanTracker(len(keys))
    independent = True
    rows = coordinate_rows([op for _, op in words], index)
    for ((d, k, e), op), row in zip(words, rows):
        if not tracker.add(row):
            independent = False
            rep.record(False, f"word x^{d} a^{k} l*^{e} is dependent")
        rep.record(op == diffop(k=d, p=k, e=e), f"x^{d} a^{k} l*^{e} reduces to itself")
    rep.record(independent, "filtration words independent")
    rep.details["words"] = len(words)
    return rep
