"""Brute-force critical-level affine sl2: PBW Verma modules, the Sugawara
operators, character quotients, and the replay map onto free-field sections.

Everything here is built from the bracket

    [x_n, y_m] = [x,y]_(n+m) + n delta_{n+m,0} (x|y) K,     K = -2,

with (e|f) = 1, (h|h) = 2 (the tables ``p1tcdo.SL2_BRACKETS`` and
``SL2_FORM``, which define sl2 itself), and PBW combinatorics on the
lowering set {f_0} u {e_-m, h_-m, f_-m : m >= 1} — no free-field input — so
it serves as an independent oracle for the sheaf-cohomology side.  Vectors
are bigraded by (depth d = total t-degree, h-weight mu); each bidegree is
finite-dimensional, which is what makes exact linear algebra per bidegree
possible even though depth slices alone are infinite (powers of f_0 all live
at depth 0).

The mode action runs in a cached integer core (``_straighten``,
``_act_word``, ``_act_terms``): the structure constants are integers, so its
coefficients are ints whenever nu is integral (``_core_nu`` turns an integral
nu into an int).  The core computes 2 T_k rather than the Sugawara operator
T_k, whose 1/2 h_(-1)h term is the only non-integer constant; the oracle
spans the images of 2 T_k, which span the same space.  Fractions appear only
at the public boundary: in ``PBWVector`` and in the results of ``act`` and
``sugawara_apply``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .linalg import LinearCombination, SpanTracker, _coefficient, _merge, coordinate_rows, rank
from .modespace import apply_mode, vacuum
from .p1tcdo import RAISING, SL2_BRACKETS, SL2_FORM, Chart, sections_bidegree, sl2_embedding
from .qseries import QSeries
from .reports import CheckReport

LEVEL = -2

_RANK = {"e": 0, "h": 1, "f": 2}
_H_SHIFT = {"e": 2, "h": 0, "f": -2}


def _key(op):
    gen, m = op
    return (m, _RANK[gen])


def _is_lowering(gen: str, m: int) -> bool:
    return m < 0 or (m == 0 and gen == "f")


def word_depth(word) -> int:
    return sum(-m for _, m in word)


def word_h_shift(word) -> int:
    return sum(_H_SHIFT[g] for g, _ in word)


class PBWVector(LinearCombination):
    """Finite rational combination of PBW words applied to the highest-weight
    vector of the level-(-2) Verma module with h_0-eigenvalue nu."""

    __slots__ = ("nu",)
    _SECTOR = ("nu",)

    def __init__(self, terms=None, nu=Fraction(0)):
        self.nu = _coefficient(nu)
        super().__init__(terms)

    def _check_key(self, word: tuple) -> None:
        if not all(_is_lowering(g, m) for g, m in word):
            raise ValueError(f"PBW word {word} has a non-lowering mode")
        if list(word) != sorted(word, key=_key):
            raise ValueError(f"PBW word {word} is not in PBW order")

    def _join(self, other: "PBWVector") -> tuple:
        if self.nu != other.nu:
            raise ValueError(f"cannot add PBW vectors with nu={self.nu} and nu={other.nu}")
        return (self.nu,)

    def depth_max(self) -> int:
        return max((word_depth(w) for w in self.terms), default=0)

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda word: (word_depth(word), word)):
            ops = " ".join(f"{g}({m})" for g, m in w) or "v"
            bits.append(f"({self.terms[w]}) {ops}{'' if not w else ' v'}")
        return " + ".join(bits)

    def __repr__(self):
        return f"<PBW nu={self.nu}: {self.render()}>"


def highest_weight_vector(nu) -> PBWVector:
    return PBWVector({(): 1}, nu)


@lru_cache(maxsize=None)
def _straighten(word: tuple) -> tuple:
    """Sort a product of lowering operators into PBW order, inserting bracket
    terms; the lowering set is bracket-closed, so this terminates."""
    for i in range(len(word) - 1):
        if _key(word[i]) > _key(word[i + 1]):
            (g1, m1), (g2, m2) = word[i], word[i + 1]
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            out: dict[tuple, int] = {}
            _merge(out, _straighten(swapped), 1)
            br = SL2_BRACKETS.get((g1, g2))
            if br is not None:
                c, g = br
                inner = word[:i] + ((g, m1 + m2),) + word[i + 2 :]
                _merge(out, _straighten(inner), c)
            # central term m1 delta_{m1+m2,0} (x|y) K never fires: two
            # lowering modes cannot sum to zero unless both are f_0
            return tuple((w, c) for w, c in out.items() if c)
    return ((word, 1),)


def _core_nu(nu):
    """nu as the integer core takes it: an int when nu is integral, else a
    Fraction, so that 2 and Fraction(2) share cache entries and give
    coefficients of one type."""
    nu = _coefficient(nu)
    return nu.numerator if nu.denominator == 1 else nu


@lru_cache(maxsize=None)
def _act_word(gen: str, m: int, word: tuple, nu) -> tuple:
    """x_m applied to (word * hw), for nu as ``_core_nu`` gives it; returns
    PBW term items, with int coefficients when nu is an int."""
    if _is_lowering(gen, m):
        return _straighten(((gen, m),) + word)
    if not word:
        if m > 0 or gen == "e":
            return ()
        return (((), nu),) if gen == "h" else ()
    head, tail = word[0], word[1:]
    out: dict[tuple, int] = {}
    # x_m head = head x_m + [x_m, head]
    moved = _act_word(gen, m, tail, nu)
    for w, c in moved:
        _merge(out, _straighten((head,) + w), c)
    g2, m2 = head
    br = SL2_BRACKETS.get((gen, g2))
    if br is not None:
        c, g = br
        _merge(out, _act_word(g, m + m2, tail, nu), c)
    if m + m2 == 0:
        pairing = SL2_FORM.get((gen, g2), 0)
        if pairing:
            _merge(out, _straighten(tail), m * pairing * LEVEL)
    return tuple((w, c) for w, c in out.items() if c)


def _act_terms(gen: str, m: int, terms, nu) -> dict:
    """x_m on the combination of the (word, coefficient) items ``terms``;
    zero sums stay in the result as zeros."""
    out: dict = {}
    for word, c in terms:
        _merge(out, _act_word(gen, m, word, nu), c)
    return out


def act(gen: str, m: int, v: PBWVector) -> PBWVector:
    """The affine action x_m on a PBW vector."""
    return PBWVector._from_valid(_act_terms(gen, m, v.terms.items(), _core_nu(v.nu)), v.nu)


# -- PBW enumeration -----------------------------------------------------------


@lru_cache(maxsize=None)
def _negative_words(d: int) -> tuple:
    """All PBW words in strictly-negative modes of total depth exactly d."""
    if d == 0:
        return ((),)
    out = []

    def rec(prefix, remaining, min_key):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for m in range(-remaining, 0):
            for g in "ehf":
                if _key((g, m)) >= min_key:
                    rec(prefix + [(g, m)], remaining + m, _key((g, m)))

    rec([], d, (-d - 1, 0))
    return tuple(out)


def verma_basis(nu, d: int, mu) -> list[tuple]:
    """PBW words spanning the (depth d, h-weight mu) bidegree of the Verma
    module: a negative-mode word plus the f_0 power that lands on mu."""
    base = Fraction(nu) - Fraction(mu)
    if base.denominator != 1:
        return []
    base = base.numerator
    out = []
    for neg in _negative_words(d):
        gap = base + word_h_shift(neg)
        if gap >= 0 and gap % 2 == 0:
            out.append(neg + (("f", 0),) * (gap // 2))
    return out


# -- Sugawara -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _t_image(k: int, word: tuple, nu) -> tuple:
    """The nonzero PBW term items of 2 T_k (word * hw), for nu as
    ``_core_nu`` gives it: twice the Sugawara field, 2 e_(-1)f + 2 f_(-1)e +
    h_(-1)h, has integer structure constants.  Each of its three terms
    (x_(-1)y)_(m), m = k + 1, acts by the module expansion
    (x_(-1)y)_(m) u = sum_{j>=0} [x_(-1-j) y_(m+j) u + y_(m-1-j) x_(j) u];
    the sums stop where y_(m+j) and x_(j) exceed the depth of the word and
    so kill it."""
    m = k + 1
    d = word_depth(word)
    out: dict = {}
    for coef, xg, yg in ((2, "e", "f"), (2, "f", "e"), (1, "h", "h")):
        for j in range(d - m + 1):
            _merge(out, _act_terms(xg, -1 - j, _act_word(yg, m + j, word, nu), nu).items(), coef)
        for j in range(d + 1):
            _merge(out, _act_terms(yg, m - 1 - j, _act_word(xg, j, word, nu), nu).items(), coef)
    return tuple((w, c) for w, c in out.items() if c)


def sugawara_apply(k: int, v: PBWVector) -> PBWVector:
    """T_k = (e_(-1)f + f_(-1)e + 1/2 h_(-1)h)_(k+1), half of the cached
    integer image of 2 T_k on each word."""
    nu = _core_nu(v.nu)
    out: dict = {}
    for word, c in v.terms.items():
        _merge(out, _t_image(k, word, nu), c)
    return PBWVector._from_valid({w: Fraction(c, 2) for w, c in out.items()}, v.nu)


def sugawara_zero_eigenvalue(nu) -> Fraction:
    """T_0 on the highest-weight vector (and hence on all of the Verma module,
    by centrality): nu(nu+2)/2."""
    v = highest_weight_vector(nu)
    got = sugawara_apply(0, v)
    if got.is_zero:
        return Fraction(0)
    if set(got.terms) != {()}:
        raise ValueError(f"T_0 does not act by a scalar on the highest-weight vector: {got!r}")
    return got.terms[()]


# -- quotients and characters ----------------------------------------------------


def _span_columns(basis_words) -> dict:
    """The column number of each basis word in a span's elimination.  The
    kernel pivots on the lowest column, so numbering the words backwards
    makes it pivot first on the word of each image that comes last in basis
    order.  Over the spans of ``irreducible_char_oracle(n, 4)``, n = 0..3,
    this keeps 12628 nonzero entries in the echelon rows where the basis
    order keeps 20587, and for ``irreducible_char_oracle(0, 6)`` 32904 where
    it keeps 86013.  Dimensions do not depend on the numbering; the residuals
    ``singular_bidegrees`` stacks do, but the rank of the stack does not."""
    return {w: -i for i, w in enumerate(basis_words)}


def _sugawara_span(nu, d: int, mu, basis_words) -> tuple:
    """A tracker holding all T_(-k) images landing in bidegree (d, mu), and
    the index of basis_words it uses: ``_span_columns`` numbers the words so
    that elimination pivots on the last basis word of each image first.
    Single applications suffice: T is central, so sum_k T_(-k) M is already a
    submodule, and iterated T's land inside single-T images; the integer
    images of 2 T_(-k) span the same."""
    nu = _core_nu(nu)
    index = _span_columns(basis_words)
    tracker = SpanTracker()
    for k in range(1, d + 1):
        for src in verma_basis(nu, d - k, mu):
            tracker.add({index[w]: c for w, c in _t_image(-k, src, nu)})
    return tracker, index


def restricted_verma_dim(nu, d: int, mu) -> int:
    """Bidegree dimension of M_{nu/z} = M_nu / sum_{k>0} T_(-k) M_nu, the
    Verma module with its central character clamped to nu/z.  This — not the
    raw PBW count — is what matches the lambda*-specialized section spaces."""
    basis_words = verma_basis(nu, d, mu)
    if not basis_words:
        return 0
    tracker, _ = _sugawara_span(nu, d, mu, basis_words)
    return len(basis_words) - tracker.dim


def _default_mu_window(n: int, d_max: int):
    lo = n - 2 * (d_max + abs(n) + 2)
    hi = n + 2 * d_max
    return [mu for mu in range(lo, hi + 1) if (n - mu) % 2 == 0]


def singular_bidegrees(nu, d_max: int, mu_values) -> list:
    """Bidegrees of M_{nu/z} holding a nonzero vector killed by e_0, e_1, h_1
    and f_1 (``RAISING``, which generate all raising modes).  Works per
    bidegree with the Sugawara span quotiented out exactly."""
    core_nu = _core_nu(nu)
    spans: dict = {}  # (d, mu) -> _sugawara_span, built once per call

    def span(d, mu, words):
        if (d, mu) not in spans:
            spans[(d, mu)] = _sugawara_span(nu, d, mu, words)
        return spans[(d, mu)]

    found = []
    for d in range(d_max + 1):
        for mu in mu_values:
            basis_words = verma_basis(nu, d, mu)
            if not basis_words:
                continue
            own, _ = span(d, mu, basis_words)
            # the image of each basis word: the coordinates of X w in each
            # target bidegree, reduced modulo the target's Sugawara span
            images = [{} for _ in basis_words]
            for gen, m in RAISING:
                tgt_d = d - m
                tgt_mu = mu + _H_SHIFT[gen]
                tgt_words = verma_basis(nu, tgt_d, tgt_mu)
                if not tgt_words:
                    continue
                tracker, index = span(tgt_d, tgt_mu, tgt_words)
                for image, w in zip(images, basis_words):
                    row = {index[x]: c for x, c in _act_word(gen, m, w, core_nu)}
                    image.update(((gen, m, i), c) for i, c in tracker.residual(row).items())
            # singular classes = kernel of the stacked map, minus vectors that
            # are already zero in the quotient (the whole Sugawara span maps
            # into Sugawara spans, so it always sits inside the kernel)
            kernel = len(basis_words) - rank(images)
            sing = kernel - own.dim
            if d == 0 and Fraction(mu) == Fraction(nu):
                sing -= 1  # the highest-weight vector itself
            if sing > 0:
                found.append((d, mu, sing))
    return found


def irreducible_dims(n: int, d_max: int, mu_values) -> dict:
    """Per-bidegree dimensions of the irreducible quotient L_n: inside each
    bidegree of M_n, span out both the Sugawara images and the lowering-word
    images of the singular vector f_0^(n+1) v, then count what is left."""
    if n < 0:
        raise ValueError("the oracle covers nonnegative integral weight only")
    sing_word = (("f", 0),) * (n + 1)
    out = {}
    for d in range(d_max + 1):
        for mu in mu_values:
            basis_words = verma_basis(n, d, mu)
            if not basis_words:
                out[(d, mu)] = 0
                continue
            tracker, index = _sugawara_span(n, d, mu, basis_words)
            # lowering words sending the singular vector into (d, mu);
            # U(g^)w = U(lowering)w because w is singular (verified by
            # check_singular_generator in `tcdo affine singular`, not assumed)
            for neg in _negative_words(d):
                gap = n + word_h_shift(neg) - 2 * (n + 1) - mu
                if gap >= 0 and gap % 2 == 0:
                    terms = ((sing_word, 1),)
                    for gen, m in reversed(neg + (("f", 0),) * (gap // 2)):
                        terms = _act_terms(gen, m, terms, n).items()
                    tracker.add({index[w]: c for w, c in terms})
            out[(d, mu)] = len(basis_words) - tracker.dim
    return out


def irreducible_char_oracle(n: int, d_max: int) -> QSeries:
    """Brute-force depth character of the irreducible quotient L_n,
    aggregated over the mu window [n - 2(d_max+n+2), n + 2 d_max]."""
    mus = _default_mu_window(n, d_max)
    dims = irreducible_dims(n, d_max, mus)
    coeffs = tuple(sum(dims[(d, mu)] for mu in mus) for d in range(d_max + 1))
    return QSeries(coeffs, d_max)


def check_singular_generator(n: int) -> CheckReport:
    """f_0^(n+1) v is annihilated by e_0 and the level-one raising modes."""
    rep = CheckReport("affine-singular-vector", details={"n": n})
    w = PBWVector(dict(_straighten((("f", 0),) * (n + 1))), n)
    for gen, m in RAISING:
        rep.record(act(gen, m, w).is_zero, f"{gen}_({m}) on f0^{n + 1} v")
    return rep


# -- the replay map onto free-field sections ---------------------------------------


def verma_to_sections(n: int, d_max: int, mu_values=None) -> dict:
    """Replay each PBW word through the chart sl2 currents on the ground
    state 1 of the residue-n module; returns a per-bidegree table
    (d, mu) -> (raw PBW dim, restricted dim, section dim, rank of the map).

    The sections carry the clamped central character, so the map factors
    through M_{n/z}; "full rank" means rank == restricted dim == section dim.
    """
    rho = sl2_embedding(Chart.ZERO)
    mus = mu_values if mu_values is not None else _default_mu_window(n, d_max)
    table = {}
    for d in range(d_max + 1):
        for mu in mus:
            words = verma_basis(n, d, mu)
            targets = sections_bidegree(Chart.ZERO, n, d, mu)
            if not words and not targets:
                continue
            # the basis order: over n = -3..2, depth <= 5, its rank keeps 9247
            # echelon entries, against 9637 reversed and 9350 by descending
            # ground power
            index = {t: i for i, t in enumerate(targets)}
            images = []
            for word in words:
                img = vacuum(lstar=n)
                for gen, m in reversed(word):
                    img = apply_mode(rho[gen], m, img)
                images.append(img)
            table[(d, mu)] = (
                len(words),
                restricted_verma_dim(n, d, mu),
                len(targets),
                rank(coordinate_rows(images, index)),
            )
    return table


def _sampled_report(name: str, samples: int, seed: int) -> CheckReport:
    rep = CheckReport(name, details={"samples": samples, "seed": seed})
    if samples == 0:
        rep.details["warning"] = "samples=0: vacuous pass"
    return rep


def check_affine_relations(samples: int = 60, seed: int = 42) -> CheckReport:
    """Bracket self-consistency on random PBW vectors: the commutator of two
    mode actions equals the action of their bracket plus the central term;
    samples=0 is a vacuous pass flagged with a warning."""
    rng = random.Random(seed)
    rep = _sampled_report("affine-bracket", samples, seed)
    nus = [Fraction(0), Fraction(2), Fraction(-3), Fraction(1, 2)]
    for i in range(samples):
        nu = rng.choice(nus)
        v = random_pbw(rng, 3, nu)
        xg, yg = rng.choice("ehf"), rng.choice("ehf")
        m, k = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs = act(xg, m, act(yg, k, v)) - act(yg, k, act(xg, m, v))
        br = SL2_BRACKETS.get((xg, yg))
        rhs = PBWVector({}, nu) if br is None else br[0] * act(br[1], m + k, v)
        if m + k == 0:
            rhs = rhs + (m * SL2_FORM.get((xg, yg), 0) * LEVEL) * v
        rep.record(lhs == rhs, f"sample {i}: [{xg}_({m}), {yg}_({k})]")
    return rep


def check_sugawara_centrality(samples: int = 30, seed: int = 42) -> CheckReport:
    """T_k commutes with every mode action on random PBW vectors; samples=0
    is a vacuous pass flagged with a warning."""
    rng = random.Random(seed)
    rep = _sampled_report("affine-sugawara-central", samples, seed)
    for i in range(samples):
        nu = rng.choice([Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3)])
        v = random_pbw(rng, 2, nu)
        k = rng.randint(-2, 1)
        gen, m = rng.choice("ehf"), rng.randint(-2, 2)
        lhs = sugawara_apply(k, act(gen, m, v))
        rhs = act(gen, m, sugawara_apply(k, v))
        rep.record(lhs == rhs, f"sample {i}: [T_({k}), {gen}_({m})]")
    return rep


def random_pbw(rng: random.Random, depth_max: int, nu) -> PBWVector:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(0, depth_max)
        neg = rng.choice(_negative_words(d))
        word = neg + (("f", 0),) * rng.randint(0, 2)
        terms[word] = terms.get(word, Fraction(0)) + rng.choice((1, -1, 2, Fraction(1, 2)))
    return PBWVector(terms, nu)
