"""Jet-coordinate bookkeeping: total derivatives, the equation's spatial
prolongations, the spatial Euler operator, divergence inversion, and tableau
dimension counts.

Conventions.  Direction 0 is time; spatial directions are 1..n.  A jet
variable u_{I,t} is the coordinate p_{I,t} for the derivative D_I D_0^t u,
stored as a :class:`~paraclaw.expr.MultiIndex`.  "Purely spatial" means
``time_power == 0`` for every jet variable in sight; on an evolution
equation u_t = G those are free coordinates on the equation manifold, where
u_{J,t} = D_J G.  The replacement table below memoizes D_J G, so the
on-shell time derivative of a spatial T is dT/dt + sum_J (D_J G) dT/du_J.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Iterator, Sequence

from .expr import (
    BASE, JET, Expr, Monomial, MultiIndex, NotPolynomialIn, Poly, Symbol,
    base_var, jet_symbol, jet_var, mono_mul,
)

if TYPE_CHECKING:  # EvolutionEquation lives in .parabolic; only n and G are used here
    from .parabolic import EvolutionEquation

__all__ = [
    "OrderOverflow", "TimeJetPresent", "NotInDivergenceImage",
    "ORDER_GUARD", "ReplacementTable",
    "total_derivative", "iterated_total_derivative",
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
    return any(s.kind == JET and s.jet.time_power > 0 for s in e.symbols())


def spatial_jet_order(e: Expr) -> int:
    """Largest jet order occurring in e (0 when no jet variable occurs)."""
    return max((s.jet.order for s in e.symbols() if s.kind == JET), default=0)


def total_derivative(e: Expr, a: int) -> Expr:
    """Total derivative D_a e = de/dx^a + sum_J u_{Ja} * de/du_J.

    Treats jet coordinates as functions of the base coordinates; direction
    a = 0 is time.  Raises the jet order by at most one.  Numerator and
    denominator are each swept once (:func:`_add_total_derivative`) and
    joined by the quotient rule with one normalization.
    """
    num, den = e.num, e.den
    dnum: dict = {}
    _add_total_derivative(dnum, num.terms, a)
    dden: dict = {}
    _add_total_derivative(dden, den.terms, a)
    if not dden:
        return Expr._make(Poly(dnum), den)
    return Expr._make(Poly(dnum) * den - num * Poly(dden), den * den)


def _add_total_derivative(out: dict, terms: dict, a: int, sign: int = 1) -> None:
    """out += sign D_a p in place, for sign = +-1 and the polynomial p with
    these terms, in one pass over them: each power s^e of a monomial
    contributes e s^(e-1) D_a s, with D_a u_J = u_{Ja}, D_a x^a = 1 and every
    other symbol constant."""
    for m, c in terms.items():
        if sign < 0:
            c = -c
        for idx, (s, e) in enumerate(m):
            if s.kind == JET:
                nm = _lower_prolong(m, idx, _prolong(s, a))
            elif s.kind == BASE and s.index == a:
                nm = _lower(m, idx)
            else:
                continue
            nc = c * e if e != 1 else c
            acc = out.get(nm)
            if acc is None:
                out[nm] = nc
            else:
                acc = acc + nc
                if acc:
                    out[nm] = acc
                else:
                    del out[nm]


def _lower(m: Monomial, idx: int) -> Monomial:
    """m with the exponent of its idx-th symbol lowered by one."""
    s, e = m[idx]
    if e == 1:
        return m[:idx] + m[idx + 1:]
    return m[:idx] + ((s, e - 1),) + m[idx + 1:]


def _lower_prolong(m: Monomial, idx: int, t: Symbol) -> Monomial:
    """m with the exponent of its idx-th symbol u_J lowered by one and that
    of t = u_{Ja} raised by one, in one step: t sorts after u_J, so it is
    found or inserted in the tail of m after idx."""
    s, e = m[idx]
    head = m[:idx] + ((s, e - 1),) if e != 1 else m[:idx]
    k = idx + 1
    while k < len(m) and m[k][0] < t:
        k += 1
    if k < len(m) and m[k][0] == t:
        return head + m[idx + 1:k] + ((t, m[k][1] + 1),) + m[k + 1:]
    return head + m[idx + 1:k] + ((t, 1),) + m[k:]


@functools.lru_cache(maxsize=4096)
def _prolong(s: Symbol, a: int) -> Symbol:
    """u_{Ja} for the jet symbol u_J."""
    return jet_symbol(s.jet.append(a))


def _jet_partials(terms: dict) -> dict[tuple[int, ...], dict]:
    """The terms of every nonzero dp/du_J of the purely spatial polynomial p
    with these terms, by the index word J, in one pass.  Lowering one
    exponent of u_J is injective on monomials, so no two terms collide."""
    out: dict = {}
    for m, c in terms.items():
        for idx, (s, e) in enumerate(m):
            if s.kind == JET:
                out.setdefault(s.jet.spatial, {})[_lower(m, idx)] = c * e if e != 1 else c
    return out


def iterated_total_derivative(e: Expr, index: MultiIndex) -> Expr:
    """Composition of total derivatives over all entries of ``index``.

    Total derivatives commute, so the application order (spatial ascending,
    then time) is a determinism convention only.
    """
    for i in index.spatial:
        e = total_derivative(e, i)
    for _ in range(index.time_power):
        e = total_derivative(e, 0)
    return e


# ---------------------------------------------------------------------------
# Replacement table (the equation's spatial prolongations D_J G)
# ---------------------------------------------------------------------------

class ReplacementTable:
    """Memo of D_J G for one evolution equation u_t = G.

    ``entry((J, 1))`` is D_J G, the purely spatial value of u_{J,t} on the
    prolonged equation, built from the entry of J's prefix by one total
    derivative.  Only first-order time jets have entries: a spatial density
    T has D_t T = dT/dt + sum_J u_{J,t} dT/du_J.  The table is immutable
    once an entry is computed and safe to share afterwards.
    """

    def __init__(self, equation: "EvolutionEquation"):
        self.equation = equation
        self._cache: dict[MultiIndex, Expr] = {}

    def entry(self, index: MultiIndex) -> Expr:
        if index.time_power != 1:
            raise ValueError("replacement entries need time_power == 1")
        got = self._cache.get(index)
        if got is None:
            if index.spatial:
                parent = MultiIndex(index.spatial[:-1], 1)
                got = total_derivative(self.entry(parent), index.spatial[-1])
            else:
                got = self.equation.G
            self._cache[index] = got
        return got


def build_replacement_table(equation: "EvolutionEquation") -> ReplacementTable:
    """An empty memo of the prolongations D_J G of ``equation``."""
    return ReplacementTable(equation)


def reduce_to_spatial(e: Expr, table: ReplacementTable) -> Expr:
    """e with every first-order time jet u_{J,t} replaced by D_J G
    (restriction to the prolonged equation manifold)."""
    bindings = {s: table.entry(s.jet) for s in e.symbols()
                if s.kind == JET and s.jet.time_power > 0}
    return e.substitute(bindings) if bindings else e


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
    den = None if e.is_polynomial else e.den
    for _, A in _horner(e.num.terms, den):
        pass  # deepest first: the root, A_() = E_u(e) * den^(R+1), comes last
    if den is None:
        return Expr._make(Poly(A), Poly.one())
    return Expr._make(Poly(A), den ** (spatial_jet_order(e) + 1))


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
    R = max(map(len, partials), default=0)
    if den is not None:
        powers = [Poly.one()]
        for _ in range(R):
            powers.append(powers[-1] * den)
        partials = {w: (Poly(t) * powers[R - len(w)]).terms for w, t in partials.items()}
    nodes = {w[:k] for w in partials for k in range(len(w) + 1)} | {()}
    acc: dict = {}
    for w in sorted(nodes, key=lambda w: (-len(w), w)):
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


def _add_terms(out: dict, terms: dict, factor) -> None:
    """out += factor p in place, for the polynomial p with these terms."""
    for m, c in terms.items():
        c = c * factor
        acc = out.get(m)
        if acc is None:
            out[m] = c
        else:
            acc = acc + c
            if acc:
                out[m] = acc
            else:
                del out[m]


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
    out: list[Monomial] = [()]
    for deg in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(symbols, deg):
            counts: dict[Symbol, int] = {}
            for s in combo:
                counts[s] = counts.get(s, 0) + 1
            out.append(tuple(sorted(counts.items())))
    return out


def invert_divergence(R: Expr, n: int) -> tuple[Expr, ...]:
    """Fluxes X^1..X^n with sum_i D_i X^i = R, exactly, by the total
    homotopy operator.

    Total derivatives preserve jet degree, so R splits into parts R_d of
    jet degree d.  For d >= 1, d R_d = sum_J u_J dR_d/du_J, and each term is
    integrated by parts down to u with u_{Kj} P = D_j(u_K P) - u_K D_j P.
    Collected on the trie of :func:`_horner`, the D_j part is
    sum_{wj} u_w S_{wj}, added into raw term dicts; weighted 1/d once per
    part, these parts are the flux.  The remainder is u S_() = u E_u(R_d),
    so R is a divergence exactly when E_u(R) = 0, and
    :class:`NotInDivergenceImage` is raised otherwise.  The jet-free part
    R_0(t, x) is integrated in x1 and added to X^1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if has_time_jets(R):
        raise TimeJetPresent("divergence inversion needs a purely spatial expression")
    if not R.is_polynomial:
        raise NotPolynomialIn(sorted(R.den.symbols()))
    for s in sorted(R.symbols()):
        if not (s.kind == BASE and s.index <= n
                or s.kind == JET and all(i <= n for i in s.jet.spatial)):
            raise ValueError(
                f"R may contain t, x1..x{n} and jets in directions 1..{n} only, not {s}")
    by_degree: dict[int, dict] = {}
    for mono, c in R.num.terms.items():
        d = sum(e for s, e in mono if s.kind == JET)
        by_degree.setdefault(d, {})[mono] = c
    fluxes: list[dict] = [{} for _ in range(n)]
    for d, terms in sorted(by_degree.items()):
        if d == 0:
            fluxes[0] = _integrate_x1(terms)  # d = 0 comes first
            continue
        parts: list[dict] = [{} for _ in range(n)]
        for w, Sw in _horner(terms, None):
            if w:
                u_rest = ((jet_var(w[:-1]), 1),)
                _add_terms(parts[w[-1] - 1],
                           {mono_mul(m, u_rest): c for m, c in Sw.items()}, 1)
            elif Sw:
                remainder = Expr._make(Poly(Sw), Poly.one())
                raise NotInDivergenceImage(
                    f"E_u of the jet-degree-{d} part is {remainder}, not 0")
        for X, P in zip(fluxes, parts):
            _add_terms(X, P, Fraction(1, d))
    return tuple(Expr._make(Poly(X), Poly.one()) for X in fluxes)


def _integrate_x1(terms: dict) -> dict:
    """The terms of the antiderivative in x1 of the jet-free polynomial with
    these terms."""
    x1 = base_var(1)
    out = {}
    for mono, c in terms.items():
        m = mono_mul(mono, ((x1, 1),))
        out[m] = Fraction(c) / dict(m)[x1]
    return out


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
