"""Jet-coordinate bookkeeping: total derivatives, the equation's spatial
prolongations, the spatial Euler operator, divergence inversion, and tableau
dimension counts.

Conventions.  Direction 0 is time; spatial directions are 1..n.  A jet
variable u_{I,t} is the coordinate p_{I,t} for the derivative D_I D_0^t u,
a jet symbol with the sorted index word ``spatial`` I and ``time_power`` t.
"Purely spatial" means ``time_power == 0`` for every jet variable in sight;
on an evolution equation u_t = G those are free coordinates on the equation
manifold, where u_{J,t} = D_J G.  :class:`Prolonged` memoizes D_J G by J,
so the on-shell time derivative of a spatial T is dT/dt + sum_J (D_J G)
dT/du_J; the law search keeps the same memo on raw term dicts.

Sums, shifts and monomial decoding on raw term dicts use the kernel of
:mod:`paraclaw.expr`; only :func:`_add_total_derivative` keeps its own loop,
fused with the prolongation of each monomial: one integer add per power.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import comb, lcm

from . import expr
from .expr import (
    BASE, JET, MAX_TERMS, Expr, ExponentOverflow, Monomial, NotPolynomialIn, Poly, Symbol,
    _SYMBOLS, _add_terms, _derived, _exponent, _fields, _shifted, base_var, jet_var,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, read by type checkers; typing is not imported
if TYPE_CHECKING:  # EvolutionEquation lives in .parabolic; only n and G are used here
    from .parabolic import EvolutionEquation

__all__ = [
    "OrderOverflow", "TimeJetPresent", "NotInDivergenceImage",
    "ORDER_GUARD", "Prolonged",
    "total_derivative",
    "build_replacement_table", "reduce_to_spatial",
    "euler_operator", "invert_divergence",
    "tableau_dimension", "parabolic_system_dimension", "deprolongation_dimension",
    "spatial_jet_order", "has_time_jets",
    "spatial_jet_vars", "bounded_monomials",
]

ORDER_GUARD = 12


class OrderOverflow(ValueError):
    """Requested prolongation order exceeds the configured guard."""


class TimeJetPresent(ValueError):
    """An operation requiring purely spatial input met a time jet."""


class NotInDivergenceImage(ValueError):
    """The expression is not a total spatial divergence: E_u of it is nonzero."""


# ---------------------------------------------------------------------------
# Total derivatives
# ---------------------------------------------------------------------------

def has_time_jets(e: Expr) -> bool:
    return any(s.kind == JET and s.time_power > 0 for s in e.symbols())


def spatial_jet_order(e: Expr) -> int:
    """Largest jet order occurring in e (0 when no jet variable occurs)."""
    return max((s.order for s in e.symbols() if s.kind == JET), default=0)


def total_derivative(e: Expr, a: int) -> Expr:
    """Total derivative D_a e = de/dx^a + sum_J u_{Ja} * de/du_J.

    Treats jet coordinates as functions of the base coordinates; direction
    a = 0 is time.  Raises the jet order by at most one.  Numerator and
    denominator are each swept once (:func:`_add_total_derivative`) and
    joined by expr's one quotient rule, :func:`expr._derived`.
    """
    return _derived(e, lambda p: Poly(_derivative_terms(p.terms, a)))


def _add_total_derivative(out: dict, terms: dict, a: int, sign: int = 1) -> None:
    """out += sign D_a p in place, for sign = +-1 and the polynomial p with
    these terms, in one pass over them: each power s^e of a monomial m
    contributes e s^(e-1) D_a s, with D_a u_J = u_{Ja}, D_a x^a = 1 and every
    other symbol constant, so its monomial is m plus the :func:`_step` of s
    in direction a.  A new key is checked against the guard bits, as in
    expr._add_product."""
    for m, c in terms.items():
        if sign < 0:
            c = -c
        for slot, e in _fields(m):
            step = _step(slot, a)
            if not step:
                continue
            nm = m + step
            nc = c * e if e != 1 else c
            acc = out.get(nm)
            if acc is None:
                if nm & expr._GUARD:
                    raise ExponentOverflow()
                out[nm] = nc
            else:
                acc = acc + nc
                if acc:
                    out[nm] = acc
                else:
                    del out[nm]


@functools.lru_cache(maxsize=MAX_TERMS)
def _step(slot: int, a: int) -> int:
    """What D_a adds to a monomial for one power of the symbol s at this
    slot: unit(u_{Ja}) - unit(u_J) for the jet s = u_J (a = 0 is time),
    -unit(s) for s = x^a, and 0 for every other symbol."""
    s = _SYMBOLS[slot]
    if s.kind == JET:
        up = jet_var(s.spatial, s.time_power + 1) if a == 0 else \
            jet_var(s.spatial + (a,), s.time_power)
        return up.unit - s.unit
    return -s.unit if s.kind == BASE and s.index == a else 0


def _jet_partials(terms: dict) -> dict[tuple[int, ...], dict]:
    """The terms of every nonzero dp/du_J of the purely spatial polynomial p
    with these terms, by the index word J, in one pass.  Lowering one
    exponent of u_J is injective on monomials, so no two terms collide."""
    out: dict = {}
    for m, c in terms.items():
        for slot, e in _fields(m):
            s = _SYMBOLS[slot]
            if s.kind == JET:
                out.setdefault(s.spatial, {})[m - s.unit] = c * e if e != 1 else c
    return out


def _derivative_terms(terms: dict, a: int) -> dict:
    """The terms of D_a p, for the polynomial p with these terms: a new dict."""
    out: dict = {}
    _add_total_derivative(out, terms, a)
    return out


# ---------------------------------------------------------------------------
# Prolongations D_J f, memoized by prefix
# ---------------------------------------------------------------------------

class Prolonged(dict):
    """word -> D_word f, for the f at () and the sorted spatial index words.

    A missing word is built forward from its longest stored prefix, one
    step of the instance's ``derivative(entry, a)``, D_a, per letter, and
    each prefix on the way is kept once whole, so a memo shared by threads,
    or left by an interrupted search, holds no partial entry, and a long
    word takes no recursion.  The entries are only read."""

    __slots__ = ("derivative",)

    def __init__(self, root, derivative):
        super().__init__({(): root})
        self.derivative = derivative

    def __missing__(self, word: tuple[int, ...]):
        k = len(word) - 1
        while word[:k] not in self:
            k -= 1
        got = self[word[:k]]
        for j in range(k, len(word)):
            got = self[word[:j + 1]] = self.derivative(got, word[j])
        return got


def build_replacement_table(equation: "EvolutionEquation") -> Prolonged:
    """The memo of the Exprs D_J G of ``equation`` u_t = G: each the purely
    spatial value of u_{J,t} on the prolonged equation."""
    return Prolonged(equation.G, total_derivative)


def reduce_to_spatial(e: Expr, table: Prolonged) -> Expr:
    """e with every first-order time jet u_{J,t} replaced by D_J G
    (restriction to the prolonged equation manifold); a jet of higher time
    power has no value there and raises ValueError."""
    time_jets = [s for s in e.symbols() if s.kind == JET and s.time_power]
    if any(s.time_power != 1 for s in time_jets):
        raise ValueError("only first-order time jets have a value on the prolonged equation")
    return e.substitute({s: table[s.spatial] for s in time_jets}) if time_jets else e


# ---------------------------------------------------------------------------
# Euler operator and divergence inversion
# ---------------------------------------------------------------------------

def euler_operator(e: Expr) -> Expr:
    """Spatial variational derivative sum_I (-1)^|I| D_I (de/du_I).

    The sum runs over the spatial multi-indices whose jet variable occurs in
    e, each distinct multi-index counted once (no combinatorial factor).  On
    the polynomial fragment its kernel is exactly the total spatial
    divergences.  It is evaluated in Horner form on raw terms
    (:func:`_horner`); a quotient N/D, D jet-free, is walked on N and
    normalized once, at the root.
    """
    if has_time_jets(e):
        raise TimeJetPresent("euler_operator needs a purely spatial expression")
    bad = [s for s in e.den.symbols() if s.kind == JET]
    if bad:
        raise NotPolynomialIn(bad)
    if e.is_polynomial:
        return Expr._make(Poly(_euler_terms(e.num.terms)), Poly.one())
    for _, A in _horner(e.num.terms, e.den):
        pass  # deepest first: the root, A_() = E_u(e) * den^(R+1), comes last
    return Expr._make(Poly(A), e.den ** (spatial_jet_order(e) + 1))


def _euler_terms(terms: dict) -> dict:
    """The terms of E_u(p), for the purely spatial polynomial p with these
    terms: the root of :func:`_horner`, a new dict."""
    for _, A in _horner(terms, None):
        pass  # deepest first: the root comes last
    return A


def _horner(terms: dict, den: Poly | None) -> Iterator[tuple[tuple[int, ...], dict]]:
    """(w, A_w) for every node w of the trie of prefixes of the sorted
    spatial index words of the jets of N, the polynomial with these terms,
    deepest first, where S_w = A_w / D^(R-|w|+1) for e = N/D, R the trie
    depth (D = 1 when ``den`` is None), and
    S_w = de/du_w - sum_{j >= last(w)} D_j S_{wj}.

    Unrolled, S_w = sum_v (-1)^|v| D_v de/du_{wv} over the words wv below w,
    so S_() = E_u(e) at one total derivative per trie edge.  Each A_w is a
    raw term dict, and each node subtracts D_j S_wj into its parent's
    accumulator in place (:func:`_add_total_derivative`).  For a quotient,
    D D_j A - k A d_j D = D_j(D A) - (k+1) A d_j D moves S_wj = A_wj / D^k
    onto the parent's denominator D^(k+1) with the same kernel.  e must be
    purely spatial with a jet-free denominator; A_w must not be mutated.
    """
    partials = _jet_partials(terms)
    if den is not None:
        R = max(map(len, partials), default=0)
        powers = [Poly.one()]
        for _ in range(R):
            powers.append(powers[-1] * den)
        partials = {w: (Poly(t) * powers[R - len(w)]).terms for w, t in partials.items()}
    nodes = {w[:k] for w in partials for k in range(len(w) + 1)} or {()}
    acc: dict = {}
    for w in sorted(sorted(nodes), key=len, reverse=True):
        A = acc.pop(w) if w in acc else partials.get(w, {})
        yield w, A
        if not w:
            return
        parent, j = w[:-1], w[-1]
        target = acc.get(parent)
        if target is None:
            target = acc[parent] = partials.get(parent, {})
        if den is None:
            _add_total_derivative(target, A, j, -1)
            continue
        _add_total_derivative(target, (den * Poly(A)).terms, j, -1)
        dD = den.diff(base_var(j))
        if not dD.is_zero:
            _add_terms(target, (Poly(A) * dD).terms, R - len(w) + 2)


def spatial_jet_vars(n: int, max_order: int) -> list[Symbol]:
    """All spatial jet variables u_I with |I| <= max_order, in symbol order."""
    out = [jet_var()]
    for order in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(range(1, n + 1), order):
            out.append(jet_var(combo))
    return out


def bounded_monomials(symbols: Sequence[Symbol], max_degree: int) -> list[Monomial]:
    """All monomials over ``symbols`` of total degree <= max_degree,
    ascending degree then lexicographic."""
    out: list[Monomial] = [0]
    for deg in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(symbols, deg):
            out.append(sum(s.unit for s in combo))
    return out


def invert_divergence(R: Expr, n: int) -> tuple[Expr, ...]:
    """Fluxes X^1..X^n with sum_i D_i X^i = R, exactly, by the total
    homotopy operator: the fluxes (L X^i) / L of :func:`_homotopy` on the
    terms of R, which must be a purely spatial polynomial in t, x1..xn and
    the jets in directions 1..n.  R is a divergence exactly when E_u(R) = 0;
    otherwise :class:`NotInDivergenceImage` names E_u of the lowest jet
    degree part of R that is not 0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if has_time_jets(R):
        raise TimeJetPresent("divergence inversion needs a purely spatial expression")
    if not R.is_polynomial:
        raise NotPolynomialIn(sorted(R.den.symbols()))
    for s in sorted(R.symbols()):
        if not (s.kind == BASE and s.index <= n
                or s.kind == JET and all(i <= n for i in s.spatial)):
            raise ValueError(
                f"R may contain t, x1..x{n} and jets in directions 1..{n} only, not {s}")
    L, fluxes = _homotopy(R.num.terms, n)
    return tuple(_over(LX, L) for LX in fluxes)


def _homotopy(terms: dict, n: int) -> tuple[int, list[dict]]:
    """(L, [L X^1, ..., L X^n]) with sum_i D_i X^i = R, for the purely
    spatial polynomial R with these terms, in t, x1..xn and the jets in
    directions 1..n; L is the lcm of the jet degrees of R's terms and of the
    denominators of the x1-integration, so ``int`` terms give ``int``
    fluxes L X^i.

    Total derivatives preserve jet degree, so R splits into parts R_d of
    jet degree d.  For d >= 1, d R_d = sum_J u_J dR_d/du_J, and each term is
    integrated by parts down to u with u_{Kj} P = D_j(u_K P) - u_K D_j P.
    Collected on the trie of :func:`_horner`, the D_j part is
    sum_{wj} u_w S_{wj}, added into raw term dicts; weighted L/d once per
    part, these parts are L times the flux.  The remainder is
    u S_() = u E_u(R_d), so R is a divergence exactly when E_u(R) = 0, and
    :class:`NotInDivergenceImage` is raised otherwise, for the lowest such
    d.  The jet-free part R_0(t, x) is integrated in x1 and added to X^1.
    """
    by_degree: dict[int, dict] = {}
    for mono, c in terms.items():
        d = sum(e for slot, e in _fields(mono) if _SYMBOLS[slot].kind == JET)
        by_degree.setdefault(d, {})[mono] = c
    x1 = base_var(1)
    jet_free = _shifted(by_degree.pop(0, {}), x1.unit)
    L = lcm(*by_degree, *(_exponent(m, x1) for m in jet_free))
    fluxes: list[dict] = [{} for _ in range(n)]
    fluxes[0] = {m: c * (L // _exponent(m, x1)) for m, c in jet_free.items()}
    for d, part in sorted(by_degree.items()):
        weight = L // d
        for w, Sw in _horner(part, None):
            if w:
                _add_terms(fluxes[w[-1] - 1], _shifted(Sw, jet_var(w[:-1]).unit), weight)
            elif Sw:
                remainder = Expr._make(Poly(Sw), Poly.one())
                raise NotInDivergenceImage(
                    f"E_u of the jet-degree-{d} part is {remainder}, not 0")
    return L, fluxes


def _over(terms: dict, den: int) -> Expr:
    """p / den with ``Fraction`` coefficients, for the ``int`` polynomial p
    with these terms and an int den != 0: a result of :func:`_homotopy` as
    an Expr."""
    return Expr._make(Poly({m: Fraction(v, den) for m, v in terms.items()}), Poly.one())


# ---------------------------------------------------------------------------
# Dimension combinatorics
# ---------------------------------------------------------------------------

def tableau_dimension(n: int, r: int) -> int:
    """Dimension of the r-th tableau prolongation: the kernel of the spatial
    trace Sym^(r+2)(R^(n+1)) -> Sym^r(R^(n+1)).  The trace is onto, so this
    is dim Sym^(r+2) - dim Sym^r = C(n+r+2, r+2) - C(n+r, r)."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return comb(n + r + 2, r + 2) - comb(n + r, r)


def parabolic_system_dimension(n: int) -> int:
    """Dimension of the exterior differential system encoding an
    (n+1)-variable second-order parabolic equation (one less than dim J^2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 2 * n + 2 + (n + 1) * (n + 2) // 2


def deprolongation_dimension(n: int) -> int:
    """Dimension of the quasi-parabolic Monge-Ampere system whose
    prolongation recovers the parabolic system."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 2 * n + 3
