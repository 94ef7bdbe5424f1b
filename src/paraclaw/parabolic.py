"""Symbol extraction, parabolicity, and the two Monge-Ampere tests.

The symbol of u_t = G(x, t, u, grad u, Hess u) is the quadratic form
sigma(xi) = sum dG/du_I * xi^I over the second-order jet coordinates; it is
assembled into a symmetric matrix with the 1/2 factor on off-diagonal
entries (unordered-pair Hessian coordinates) so that sigma agrees with the
epsilon-derivative definition below.

Two Monge-Ampere verdicts are computed and reported side by side:

* minor affinity -- the quartic form q(xi) = d^2/de^2 G(..., u_ij + e xi_i xi_j)
  vanishes identically, which happens exactly when G is a combination of
  Hessian minor determinants with coefficients in first-order data;
* the traceless residue -- the part q0 of q(xi) not divisible by sigma(xi),
  i.e. the totally symmetric component of the secondary invariant.  Its
  vanishing is the condition for a Monge-Ampere deprolongation, and it is
  strictly weaker than minor affinity (Laplacian-squared reaction terms
  pass it while failing the literal minor test).  The verdict is the
  polynomial identity N = 0, where N = c det(g)^2 q0 is built from det(g),
  adj(g) (Faddeev-LeVerrier) and two adjugate Laplacians of q by ring
  operations alone: no matrix inverse, no linear solve and no gcd.  It
  runs on ``int`` numerators: the denominators of g and q are cleared once
  on the way in, the Faddeev-LeVerrier division by k is exact over Z, and
  N and D are divided by their scales once on the way out.  q0 itself,
  N / (c det(g)^2), is read only through ma_traceless_residue; no report
  needs it.

Parabolicity and the residue are certified at a user-supplied reference
2-jet; global positivity of a symbolic matrix is not decided here.  The
symbol form and its value at the reference jet are built once per
EvolutionEquation and shared by both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import (
    BASE, JET, DivisionByZeroExpr, Expr, Monomial, Poly, Rationalish,
    Symbol, ZERO, _cleared, aux_var, divexact, jet_var, mono_mul,
)

__all__ = [
    "PreconditionSpatialDim", "SingularSymbol", "InvariantViolation",
    "Parabolicity", "EvolutionEquation", "SymbolForm", "MAReport",
    "symbol_form", "parabolicity_check", "quartic_form",
    "ma_traceless_residue", "ma_classify",
    "xi_symbols",
]


class PreconditionSpatialDim(ValueError):
    """The traceless-residue test needs n >= 2."""


class SingularSymbol(ArithmeticError):
    """The symbol matrix is not invertible at the reference jet (or, in the
    symbolic residue test, its determinant vanishes identically)."""


class InvariantViolation(RuntimeError):
    """An output invariant failed; indicates a bug, never accepted output."""


class Parabolicity(str, enum.Enum):
    STRICT = "strict"
    WEAK = "weak"
    NOT_PARABOLIC = "not_parabolic"


# ---------------------------------------------------------------------------
# Evolution equations
# ---------------------------------------------------------------------------

class EvolutionEquation:
    """u_t = G(x^a, u, du/dx^i, d2u/dx^i dx^j) with a chosen reference 2-jet.

    G must be purely spatial of jet order <= 2; every symbol of G gets a
    rational reference value (default 0) at which pointwise certificates
    (parabolicity, symbol inversion) are computed.  Instances are immutable
    by convention and safe to share.
    """

    def __init__(self, n: int, G: Expr,
                 reference_jet: Mapping[Symbol, Rationalish] | None = None):
        if n < 1:
            raise ValueError("spatial dimension n must be >= 1")
        for s in sorted(G.symbols()):  # name the lowest bad symbol
            if s.kind == BASE:
                if s.index > n:
                    raise ValueError(f"base coordinate {s} out of range for n={n}")
            elif s.kind == JET:
                if s.jet.time_power > 0:
                    raise ValueError(f"G must not contain time jets ({s})")
                if s.jet.order > 2:
                    raise ValueError(f"G must have jet order <= 2 ({s})")
                if any(i > n for i in s.jet.spatial):
                    raise ValueError(f"jet index {s} out of range for n={n}")
            else:
                raise ValueError(f"G may not contain {s.kind} symbols ({s})")
        self.n = n
        self.G = G
        ref: dict[Symbol, Fraction] = {}
        provided = dict(reference_jet or {})
        for s in sorted(G.symbols()):
            ref[s] = Fraction(provided.pop(s, 0))
        for s, v in provided.items():
            ref[s] = Fraction(v)  # harmless extra bindings
        self.reference_jet = ref

    def hessian_entry(self, i: int, j: int) -> Symbol:
        return jet_var((i, j) if i <= j else (j, i))

    @cached_property
    def symbol(self) -> SymbolForm:
        """symbol_form(self), built once per equation."""
        return symbol_form(self)

    @cached_property
    def symbol_at_reference(self) -> tuple[tuple[Fraction, ...], ...]:
        """The symbol matrix at the reference jet, evaluated once."""
        try:
            return tuple(map(tuple, self.symbol.at_reference(self.reference_jet)))
        except DivisionByZeroExpr:
            point = ", ".join(f"{s} = {self.reference_jet[s]}"
                              for s in sorted(self.G.symbols()))
            raise DivisionByZeroExpr(
                f"a denominator of the symbol vanishes at the reference jet "
                f"{point}; choose another with a ref clause") from None

    def __repr__(self) -> str:
        return f"EvolutionEquation(n={self.n}, u_t = {self.G})"


# ---------------------------------------------------------------------------
# Symbol form and parabolicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolForm:
    """Symmetric symbol matrix g with g^ii = dG/du_ii, g^ij = (1/2) dG/du_ij."""

    n: int
    g: tuple[tuple[Expr, ...], ...]

    def at_reference(self, reference_jet: Mapping[Symbol, Fraction]) -> list[list[Fraction]]:
        n = self.n
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                out[i][j] = out[j][i] = self.g[i][j].eval_fraction(reference_jet)
        return out


def xi_symbols(n: int) -> list[Symbol]:
    """The auxiliary indeterminates xi_1..xi_n of the quartic and symbol forms."""
    return [aux_var(i, f"xi{i}") for i in range(1, n + 1)]


def symbol_form(eq: EvolutionEquation) -> SymbolForm:
    """One derivative of G per Hessian coordinate u_ij, i <= j; the entry
    (j, i) is the entry (i, j)."""
    n = eq.n
    g = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = eq.G.diff(eq.hessian_entry(i + 1, j + 1))
            if i != j:  # d / 2, with no Poly product
                d = Expr._make(d.num.scale(Fraction(1, 2)), d.den)
            g[i][j] = g[j][i] = d
    return SymbolForm(n, tuple(map(tuple, g)))


def parabolicity_check(eq: EvolutionEquation) -> Parabolicity:
    """Classify the symbol at the reference jet, exactly, by one symmetric
    (LDL^T) elimination: a negative pivot, or a zero pivot whose row is not
    zero, is not parabolic; all pivots positive is strict; else weak."""
    g = [list(row) for row in eq.symbol_at_reference]
    n = eq.n
    strict = True
    for k in range(n):
        pivot = g[k][k]
        if pivot < 0 or (pivot == 0 and any(g[k][k + 1:])):
            return Parabolicity.NOT_PARABOLIC
        strict = strict and pivot > 0
        for i in range(k + 1, n):
            if g[i][k]:  # never under a zero pivot, whose row is zero
                factor = g[i][k] / pivot
                for j in range(k + 1, n):
                    g[i][j] -= factor * g[k][j]
    return Parabolicity.STRICT if strict else Parabolicity.WEAK


# ---------------------------------------------------------------------------
# Monge-Ampere tests
# ---------------------------------------------------------------------------

def quartic_form(eq: EvolutionEquation) -> Expr:
    """Second derivative of G along the rank-one Hessian direction xi xi^T,
    q(xi) = d^2/de^2 G(..., u_ij + e xi_i xi_j) at e = 0, a quartic in xi.

    Over the Hessian coordinates a = (ij), i <= j, with m_a = xi_i xi_j, this
    is q = sum_{a <= b} (2 - delta_ab) d^2G/du_a du_b m_a m_b; each term is
    the numerator of d^2G/du_a du_b shifted by m_a m_b.  The first
    derivatives are read off the symbol, g^ij = w_a dG/du_a with w_a = 1 on
    the diagonal and 1/2 off it, so the term of (a, b) is
    (2 - delta_ab) / w_a times dg^ij/du_b."""
    xi = xi_symbols(eq.n)
    g = eq.symbol.g
    coords = [(eq.hessian_entry(i, j), g[i - 1][j - 1],
               ((xi[i - 1], 2),) if i == j else ((xi[i - 1], 1), (xi[j - 1], 1)))
              for i in range(1, eq.n + 1) for j in range(i, eq.n + 1)]
    q = ZERO
    for a, (_, ga, ma) in enumerate(coords):
        if ga.is_zero:
            continue
        off_diagonal = len(ma) == 2
        for b, (ub, _, mb) in enumerate(coords[a:], a):
            gab = ga.diff(ub)
            if not gab.is_zero:
                term = gab.num.mono_shift(mono_mul(ma, mb))
                factor = (1 if a == b else 2) * (2 if off_diagonal else 1)
                q = q + Expr._make(term if factor == 1 else term.scale(factor), gab.den)
    return q


# The residue runs on the integral numerators of g and q: a scalar (an entry
# of g, det g, adj g, L(L(q))) is an ``int`` at the reference jet and a Poly
# with ``int`` coefficients in the jet when symbolic; a form in xi is a Poly.

def _mul(a, b):
    """a * b for a and b each an int or a Poly."""
    if type(a) is int:
        return a * b if type(b) is int else b.scale(a)
    return a.scale(b) if type(b) is int else a * b


def _shift(a, m: Monomial) -> Poly:
    """a * m for a an int or a Poly and m a monomial."""
    if type(a) is int:
        return Poly({m: a} if a else {})
    return a.mono_shift(m)


def _div_exact(a, k: int):
    """a / k for an int, or an int-coefficient Poly, that k divides."""
    if type(a) is not int:
        return Poly({m: _div_exact(c, k) for m, c in a.terms.items()})
    quotient, remainder = divmod(a, k)
    if remainder:
        raise InvariantViolation(f"Faddeev-LeVerrier: {k} does not divide {a}")
    return quotient


def _det_adjugate(g: Sequence[Sequence], one) -> tuple:
    """(det g, adj g) by Faddeev-LeVerrier over Z, for int or Poly entries
    with ``one`` their unit: every coefficient of the characteristic
    polynomial of an integral matrix is integral, so the division by k is
    exact and integral entries stay integral."""
    n = len(g)
    zero = one - one
    adj = [[one if i == j else zero for j in range(n)] for i in range(n)]
    m = [list(row) for row in g]  # M_1 = I and g M_1 = g
    for k in range(1, n + 1):
        c = _div_exact(-sum((m[i][i] for i in range(n)), zero), k)
        if k == n:
            break
        adj = [[m[i][j] + c if i == j else m[i][j] for j in range(n)]
               for i in range(n)]
        m = [[sum((g[i][l] * adj[l][j] for l in range(n)), zero) for j in range(n)]
             for i in range(n)]
    # c = (-1)^n det g and adj g = (-1)^(n-1) M_n, M_n the last ``adj``
    det = c if n % 2 == 0 else -c
    if det == zero:
        raise SingularSymbol("symbol matrix is singular")
    if n % 2 == 0:
        adj = [[-v for v in row] for row in adj]
    return det, adj


def _trace_with(adj: list[list], P: Poly, xi: list[Symbol]) -> Poly:
    """L(P) = sum adj_ij d^2 P / dxi_i dxi_j for a symmetric adj."""
    out = Poly()
    for i in range(len(xi)):
        Pi = P.diff(xi[i])
        for j in range(i, len(xi)):
            Pij = Pi.diff(xi[j])
            if not Pij.is_zero:
                out = out + _mul(adj[i][j], Pij if i == j else Pij.scale(2))
    return out


def _xi_coefficients_at(q: Expr, xi: list[Symbol], ref: Mapping[Symbol, Fraction]
                        ) -> dict[Monomial, Fraction]:
    """The xi-coefficients of q at the jet ``ref``: q(xi) there."""
    den = q.den.eval_fraction(ref)
    values = {m: c.eval_fraction(ref)
              for m, c in q.num.coefficients_in(frozenset(xi)).items()}
    return {m: v / den for m, v in values.items() if v}


def _over(p, d) -> Expr:
    """The canonical p / d for p and d each an int or a Poly, d nonzero."""
    if type(p) is int:
        p = Poly({(): p} if p else {})
    if type(d) is int:
        return Expr._make(p if d == 1 else p.scale(Fraction(1, d)), Poly.one())
    return Expr._make(p, d)


def _scaled_split(eq: EvolutionEquation, q: Expr, symbolic: bool) -> tuple:
    """_harmonic_split before its scales are divided out: the pairs
    (integral numerator, scale) of N, D, P and sigma."""
    if eq.n < 2:
        raise PreconditionSpatialDim("traceless residue needs n >= 2")
    n = eq.n
    xi = xi_symbols(n)
    if symbolic:
        entries = [entry for row in eq.symbol.g for entry in row]
        if eq.G.is_polynomial:
            d, g = _cleared([e.num.terms for e in entries])
            s = d
        else:
            # dG/du_a = (A_a B - A B_a) / B^2 for G = A / B, and B_a = 0 when
            # B is free of the Hessian, so s is B or B^2 times an integer
            B = eq.G.den
            if any(v.kind == JET and v.jet.order == 2 for v in B.symbols()):
                B = B * B
            d, g = _cleared([(e.num * (B if e.is_polynomial else divexact(B, e.den))).terms
                             for e in entries])
            s = B.scale(d)
        g = [list(map(Poly, g[i * n:(i + 1) * n])) for i in range(n)]
        d, (qs,) = _cleared([q.num.terms])
        s_q = d if q.is_polynomial else q.den.scale(d)
        one = Poly({(): 1})
    else:
        at_ref = eq.symbol_at_reference
        s, g = _cleared([dict(enumerate(row)) for row in at_ref])
        g = [list(row.values()) for row in g]
        s_q, (qs,) = _cleared([_xi_coefficients_at(q, xi, eq.reference_jet)])
        one = 1
    qs = Poly(qs)
    det, adj = _det_adjugate(g, one)
    sigma = Poly()
    for i in range(n):
        sigma = sigma + _shift(g[i][i], ((xi[i], 2),))
        for j in range(i + 1, n):
            sigma = sigma + _shift(_mul(2, g[i][j]), ((xi[i], 1), (xi[j], 1)))
    Lq = _trace_with(adj, qs, xi)
    P = _mul(det, Lq.scale(4 * n + 8)) - sigma * _trace_with(adj, Lq, xi)
    D = _mul((2 * n + 8) * (4 * n + 8), _mul(det, det))
    N = _mul(D, qs) - sigma * P
    s_P = s ** (2 * n - 1)
    s_D = _mul(s_P, s)
    return (N, _mul(s_D, s_q)), (D, s_D), (P, _mul(s_P, s_q)), (sigma, s)


def _harmonic_split(eq: EvolutionEquation, q: Expr, symbolic: bool
                    ) -> tuple[Expr, Expr, Expr, Expr]:
    """(N, D, P, sigma) with q = q0 + sigma * P / D, tr_g(q0) = 0 and
    D q0 = N, for the quartic form q of ``eq``: a polynomial identity, so q0
    vanishes iff N does and the verdict needs no division.

    L = sum adj(g)_ij d_xi_i d_xi_j is det(g) tr_g, and tr_g(sigma p) =
    sigma tr_g(p) + (2n + 4 deg p) p.  On the harmonic split
    q = H4 + sigma H2 + sigma^2 H0 (tr_g H4 = tr_g H2 = 0) this gives
    L(q) = det ((2n+8) H2 + (4n+8) sigma H0) and L(L(q)) = det^2 2n(4n+8) H0,
    so with c = (2n+8)(4n+8), D = c det^2 and P = (4n+8) det L(q) -
    sigma L(L(q)), h = H2 + sigma H0 is P / D and N = D q - sigma P is D H4.
    g and q are taken at the reference jet unless ``symbolic``.

    All of it runs on g_s = s g and q_s = s_q q, whose entries and
    coefficients are integral: s and s_q are the lcms of the denominators at
    the reference jet, and, symbolically, G.den (G.den^2 if it holds a
    Hessian entry) and q.den times the lcm of the coefficient denominators,
    taken by exact division with no gcd.  With det, adj and sigma of g_s,
    N, D and P come out scaled by s^(2n) s_q, s^(2n) and s^(2n-1) s_q, and
    each is divided out once."""
    return tuple(_over(p, d) for p, d in _scaled_split(eq, q, symbolic))


def _residue_decomposition(eq: EvolutionEquation, symbolic: bool = False
                           ) -> tuple[Expr, Expr, Expr]:
    """(q0, h, sigma) with q = q0 + sigma * h and tr_g(q0) = 0, in closed
    form (see _harmonic_split)."""
    N, D, P, sigma = _harmonic_split(eq, quartic_form(eq), symbolic)
    return N / D, P / D, sigma


def ma_traceless_residue(eq: EvolutionEquation, symbolic: bool = False) -> Expr:
    """The g-traceless part q0 of the quartic form: q = q0 + sigma * h with
    tr_g(q0) = 0.  q0 vanishes iff q is divisible by sigma.

    By default the symbol and the quartic coefficients are evaluated at the
    reference jet (enough to falsify Monge-Ampere-ness); ``symbolic=True``
    keeps them exact over the rational functions of the jet.  SingularSymbol
    is raised when det(g) vanishes (identically, when symbolic).
    """
    return _residue_decomposition(eq, symbolic)[0]


@dataclass(frozen=True)
class MAReport:
    """Both Monge-Ampere verdicts, reported without collapsing them.

    For n >= 2 and a nonsingular symbol, ``residue_numerator`` is
    N = c det(g)^2 q0 and ``residue_denominator`` is c det(g)^2 (see
    _harmonic_split).  The residue verdict is N = 0; the traceless residue
    q0 = N / (c det(g)^2) is not formed, since that division runs
    polynomial gcds that the verdict does not need.
    """

    minor_affine: bool
    n1_affine: bool | None
    singular_symbol: bool = False
    residue_numerator: Expr | None = None
    residue_denominator: Expr | None = None

    def __post_init__(self) -> None:
        if self.minor_affine and self.residue_vanishes is False:
            raise InvariantViolation("minor-affine equation with nonzero residue")

    @property
    def residue_vanishes(self) -> bool | None:
        N = self.residue_numerator
        return None if N is None else N.is_zero


def ma_classify(eq: EvolutionEquation, symbolic: bool = False) -> MAReport:
    """Run the applicable Monge-Ampere tests.

    For n = 1 the residue test degenerates (there is no nonzero traceless
    quartic in one variable) and the affine-in-u_xx criterion is reported
    instead; for n >= 2 both the literal minor-affinity test and the
    traceless-residue test run.  A singular symbol at the reference jet is
    reported as a flag, not an error.
    """
    q = quartic_form(eq)
    minor = q.is_zero
    if eq.n == 1:
        # q = G_{u_xx u_xx} xi^4: affinity in u_xx is minor affinity
        return MAReport(minor, minor)
    try:
        N, D, _P, _sigma = _scaled_split(eq, q, symbolic)
    except SingularSymbol:
        return MAReport(minor, None, singular_symbol=True)
    return MAReport(minor, None, residue_numerator=_over(*N),
                    residue_denominator=_over(*D))
