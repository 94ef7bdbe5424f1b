"""Symbol extraction, parabolicity, and the two Monge-Ampere tests.

Both forms of u_t = G(x, t, u, grad u, Hess u) that the classification
reads come from one derivation, D_xi = sum_{i <= j} xi_i xi_j d/du_ij, the
derivative of G(..., u_ij + e xi_i xi_j) in e at e = 0: the symbol is the
quadratic form sigma = D_xi G and the quartic form is q = D_xi sigma, each
one quotient rule (expr._derived) away from G.  The symbol matrix g, with
g^ii the xi_i^2 coefficient of sigma and g^ij half its xi_i xi_j
coefficient, is read off sigma.

Two Monge-Ampere verdicts are computed and reported side by side:

* minor affinity -- the quartic form q(xi) = d^2/de^2 G(..., u_ij + e xi_i xi_j)
  vanishes identically, which happens exactly when G is a combination of
  Hessian minor determinants with coefficients in first-order data;
* the traceless residue -- the part q0 of q(xi) not divisible by sigma(xi),
  i.e. the totally symmetric component of the secondary invariant.  Its
  vanishing is the condition for a Monge-Ampere deprolongation, and it is
  strictly weaker than minor affinity (Laplacian-squared reaction terms
  pass it while failing the literal minor test).  For a nonsingular g the
  harmonic split q = H4 + sigma H2 + sigma^2 H0 is unique and q0 = H4, so
  the verdict is "sigma divides q": a pseudo-division in xi by ring
  operations alone, with no matrix inverse, no linear solve and no gcd.
  It runs on ``int`` numerators: the denominators of sigma and q are
  cleared once on the way in.  At the reference jet a strict symbol is
  nonsingular, since the elimination that decides parabolicity found
  every pivot positive; any other symbol, and every symbol when symbolic,
  has det(g) computed by Faddeev-LeVerrier, whose division by k is exact
  over Z.  q0 itself, N / (c det(g)^2) for the N of the split
  (_scaled_split), is computed only by ma_traceless_residue; no report
  needs it.

Parabolicity and the residue are certified at a user-supplied reference
2-jet; global positivity of a symbolic matrix is not decided here.  The
symbol and its matrix at the reference jet are built once per
EvolutionEquation and shared by both, as is the quartic form, which the
law search reads too.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Mapping, Sequence
from functools import cached_property, lru_cache
from fractions import Fraction

from .expr import (
    AUX, BASE, JET, MAX_TERMS, DivisionByZeroExpr, Expr, FrozenValue, Monomial, Poly,
    Rationalish, Symbol, _add_terms, _cleared, _derived, _shifted, aux_var, jet_var, mono_decode,
    mono_divides,
)

__all__ = [
    "PreconditionSpatialDim", "SingularSymbol", "InvariantViolation",
    "Parabolicity", "EvolutionEquation", "MAReport",
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
        symbols = sorted(G.symbols())
        for s in symbols:  # name the lowest bad symbol
            if s.kind == BASE:
                if s.index > n:
                    raise ValueError(f"base coordinate {s} out of range for n={n}")
            elif s.kind == JET:
                if s.time_power > 0:
                    raise ValueError(f"G must not contain time jets ({s})")
                if s.order > 2:
                    raise ValueError(f"G must have jet order <= 2 ({s})")
                if any(i > n for i in s.spatial):
                    raise ValueError(f"jet index {s} out of range for n={n}")
            else:
                raise ValueError(f"G may not contain {s.kind} symbols ({s})")
        self.n = n
        self.G = G
        ref: dict[Symbol, Fraction] = {}
        provided = dict(reference_jet or {})
        for s in symbols:
            ref[s] = Fraction(provided.pop(s, 0))
        for s, v in provided.items():
            ref[s] = Fraction(v)  # harmless extra bindings
        self.reference_jet = ref

    @cached_property
    def symbol(self) -> Expr:
        """symbol_form(self), built once per equation."""
        return symbol_form(self)

    @cached_property
    def quartic(self) -> Expr:
        """quartic_form(self), built once per equation."""
        return quartic_form(self)

    @cached_property
    def symbol_at_reference(self) -> tuple[tuple[Fraction, ...], ...]:
        """The symbol matrix g at the reference jet, evaluated once: g^ii is
        the xi_i^2 coefficient of sigma there and g^ij half its xi_i xi_j
        coefficient.  sigma's denominator is the lcm of those of the
        entries, since distinct xi-coefficients cannot cancel, so it
        vanishes where one of theirs does."""
        try:
            at = _xi_coefficients_at(self.symbol, self.reference_jet)
        except DivisionByZeroExpr:
            point = ", ".join(f"{s} = {self.reference_jet[s]}"
                              for s in sorted(self.G.symbols()))
            raise DivisionByZeroExpr(
                f"a denominator of the symbol vanishes at the reference jet "
                f"{point}; choose another with a ref clause") from None
        n = self.n
        g = [[None] * n for _ in range(n)]
        zero = Fraction(0)
        for i, j, _u, m in _hessian_directions(n):
            c = at.get(m, zero)
            g[i][j] = g[j][i] = c if i == j else c / 2
        return tuple(map(tuple, g))

    @cached_property
    def parabolicity(self) -> Parabolicity:
        """The symbol at the reference jet classified once, exactly, by one
        symmetric (LDL^T) elimination: a negative pivot, or a zero pivot
        whose row is not zero, is not parabolic; all pivots positive is
        strict; else weak."""
        g = [list(row) for row in self.symbol_at_reference]
        n = self.n
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvolutionEquation):
            return NotImplemented
        return (self.n, self.G, self.reference_jet) == (other.n, other.G, other.reference_jet)

    __hash__ = None

    def __repr__(self) -> str:
        return f"EvolutionEquation(n={self.n}, u_t = {self.G})"


# ---------------------------------------------------------------------------
# The symbol, the quartic form and parabolicity
# ---------------------------------------------------------------------------

def xi_symbols(n: int) -> list[Symbol]:
    """The auxiliary indeterminates xi_1..xi_n of the quartic and symbol forms."""
    return [aux_var(i, f"xi{i}") for i in range(1, n + 1)]


@lru_cache(maxsize=MAX_TERMS)
def _hessian_directions(n: int) -> tuple[tuple[int, int, Symbol, Monomial], ...]:
    """(i, j, u_(i+1)(j+1), xi_(i+1) xi_(j+1)) for 0 <= i <= j < n: each
    Hessian coordinate with its monomial in xi, built once per n."""
    xi = xi_symbols(n)
    return tuple((i, j, jet_var((i + 1, j + 1)), xi[i].unit + xi[j].unit)
                 for i in range(n) for j in range(i, n))


def _xi_derivation(n: int) -> Callable[[Poly], Poly]:
    """D_xi = sum_{i <= j} xi_i xi_j d/du_ij on polynomials, for n spatial
    dimensions: the derivative of p(..., u_ij + e xi_i xi_j) in e at e = 0."""
    directions = _hessian_directions(n)

    def derive(p: Poly) -> Poly:
        out: dict = {}
        for _i, _j, u_ij, m in directions:
            d = p.diff(u_ij)
            if d.terms:
                _add_terms(out, _shifted(d.terms, m))
        return Poly(out)
    return derive


def symbol_form(eq: EvolutionEquation) -> Expr:
    """The symbol sigma(xi) = D_xi G = sum_{i <= j} dG/du_ij xi_i xi_j, a
    quadratic form in xi over the rational functions of the jet."""
    return _derived(eq.G, _xi_derivation(eq.n))


def quartic_form(eq: EvolutionEquation) -> Expr:
    """The quartic form q(xi) = d^2/de^2 G(..., u_ij + e xi_i xi_j) at e = 0,
    which is D_xi sigma for the symbol sigma = D_xi G."""
    return _derived(eq.symbol, _xi_derivation(eq.n))


def parabolicity_check(eq: EvolutionEquation) -> Parabolicity:
    """The class of the symbol at the reference jet: the equation's
    :attr:`~EvolutionEquation.parabolicity`, computed once per equation."""
    return eq.parabolicity


# ---------------------------------------------------------------------------
# Monge-Ampere tests
# ---------------------------------------------------------------------------

# The residue runs on the integral numerators of g and q: a scalar (an entry
# of g, det g, adj g, L(L(q))) is an ``int`` at the reference jet and a Poly
# with ``int`` coefficients in the jet when symbolic; a form in xi is a Poly.
# An int scalar is written on the left of a product, so int * Poly runs
# Poly.__rmul__.

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
                out = out + adj[i][j] * (Pij if i == j else 2 * Pij)
    return out


def _xi_coefficients_at(e: Expr, ref: Mapping[Symbol, Fraction]) -> dict[Monomial, Fraction]:
    """The nonzero xi-coefficients of the symbol or quartic form e at the
    jet ``ref``, in one pass over e's numerator: each factor of a monomial
    is a xi, since G holds no auxiliary symbol, or is bound in ref.  The
    denominator, free of xi, is evaluated only when e is not a polynomial,
    and raises DivisionByZeroExpr where it vanishes."""
    den = Fraction(1)
    if not e.is_polynomial:
        den = e.den.eval_fraction(ref)
        if not den:
            raise DivisionByZeroExpr("denominator vanishes at evaluation point")
    at: dict[Monomial, Fraction] = {}
    for m, c in e.num.terms.items():
        xi_part = 0
        for s, k in mono_decode(m):
            if s.kind == AUX:
                xi_part += k * s.unit
            else:
                c *= ref[s] if k == 1 else ref[s] ** k
        if c:
            at[xi_part] = at.get(xi_part, 0) + c
    return {m: c / den for m, c in at.items() if c}


def _over(p, d) -> Expr:
    """The canonical p / d for p and d each an int or a Poly, d nonzero."""
    if type(p) is int:
        p = Poly({0: p} if p else {})
    if type(d) is int:
        return Expr._make(p if d == 1 else p.scale(Fraction(1, d)), Poly.one())
    return Expr._make(p, d)


def _integral_forms(eq: EvolutionEquation, q: Expr, symbolic: bool) -> tuple:
    """(s, g_s, s_q, q_s, one): the symbol matrix g_s = s g and the terms
    q_s of s_q q, each integral, with ``one`` the unit of g_s's entries.
    g and q are taken at the reference jet unless ``symbolic``.  At the
    reference jet s and s_q are the lcms of the denominators there, and
    q_s holds monomials in xi.  Symbolically sigma clears itself: with d
    the lcm of the coefficient denominators of sigma.num, s = 2 d sigma.den
    and g_s is the xi-coefficients of d sigma.num, doubled on the diagonal;
    s_q is q.den times the lcm of the coefficient denominators of q.num,
    and q_s's monomials hold the jet too."""
    if eq.n < 2:
        raise PreconditionSpatialDim("traceless residue needs n >= 2")
    n = eq.n
    if symbolic:
        d, (num,) = _cleared([eq.symbol.num.terms])
        s = eq.symbol.den.scale(2 * d)
        coefficients = Poly(num).coefficients_in(frozenset(xi_symbols(n)))
        g = [[None] * n for _ in range(n)]
        for i, j, _u, m in _hessian_directions(n):
            c = coefficients.get(m, Poly())
            g[i][j] = g[j][i] = 2 * c if i == j else c
        d, (qs,) = _cleared([q.num.terms])
        return s, g, q.den.scale(d), qs, Poly({0: 1})
    s, g = _cleared([dict(enumerate(row)) for row in eq.symbol_at_reference])
    s_q, (qs,) = _cleared([_xi_coefficients_at(q, eq.reference_jet)])
    return s, [list(row.values()) for row in g], s_q, qs, 1


def _scaled_split(eq: EvolutionEquation, q: Expr, symbolic: bool) -> tuple:
    """The harmonic split of the quartic form q of ``eq``: the pairs
    (integral numerator, scale) of N, D, P and sigma, each the quotient of
    its pair, with q = q0 + sigma * P / D, tr_g(q0) = 0 and D q0 = N: a
    polynomial identity, so q0 vanishes iff N does.

    L = sum adj(g)_ij d_xi_i d_xi_j is det(g) tr_g, and tr_g(sigma p) =
    sigma tr_g(p) + (2n + 4 deg p) p.  On the harmonic split
    q = H4 + sigma H2 + sigma^2 H0 (tr_g H4 = tr_g H2 = 0) this gives
    L(q) = det ((2n+8) H2 + (4n+8) sigma H0) and L(L(q)) = det^2 2n(4n+8) H0,
    so with c = (2n+8)(4n+8), D = c det^2 and P = (4n+8) det L(q) -
    sigma L(L(q)), h = H2 + sigma H0 is P / D and N = D q - sigma P is D H4.

    All of it runs on the integral g_s = s g and q_s = s_q q of
    :func:`_integral_forms`.  With det, adj and sigma of g_s, N, D and P
    come out scaled by s^(2n) s_q, s^(2n) and s^(2n-1) s_q, the scales
    returned."""
    s, g, s_q, qs, one = _integral_forms(eq, q, symbolic)
    n = eq.n
    xi = xi_symbols(n)
    qs = Poly(qs)
    det, adj = _det_adjugate(g, one)
    sigma = Poly()
    for i, j, _u, m in _hessian_directions(n):
        sigma = sigma + g[i][j] * Poly({m: 1 if i == j else 2})
    Lq = _trace_with(adj, qs, xi)
    P = (4 * n + 8) * det * Lq - sigma * _trace_with(adj, Lq, xi)
    D = (2 * n + 8) * (4 * n + 8) * det * det
    N = D * qs - sigma * P
    s_P = s ** (2 * n - 1)
    s_D = s_P * s
    return (N, s_D * s_q), (D, s_D), (P, s_P * s_q), (sigma, s)


def _divides(sigma: dict, p: dict, zero) -> bool:
    """Whether the form sigma divides the form p in xi, each given by its
    terms, xi-monomial -> nonzero coefficient in an integral domain (an
    ``int``, or an int-coefficient Poly in the jet), ``zero`` the domain's
    0.  Pseudo-division: with c x^l sigma's leading term and a x^m p's,
    under the lex order of the packed ints, x^l must divide x^m, and then
    p becomes c p - a x^(m-l) sigma, whose term at x^m cancels.  c is not
    0, so over the field of fractions each step is a division step by
    sigma, and one polynomial is a Groebner basis of the ideal it
    generates: the remainder is unique, and 0 exactly when p empties."""
    lead = max(sigma)
    tail = dict(sigma)
    c = tail.pop(lead)
    p = dict(p)
    while p:
        top = max(p)
        if not mono_divides(lead, top):
            return False
        a = p.pop(top)
        shift = top - lead
        p = {m: c * v for m, v in p.items()}
        for m, v in tail.items():
            m += shift
            v = p.get(m, zero) - a * v
            if v == zero:
                del p[m]
            else:
                p[m] = v
    return True


def ma_traceless_residue(eq: EvolutionEquation, symbolic: bool = False) -> Expr:
    """The g-traceless part q0 of the quartic form: q = q0 + sigma * h with
    tr_g(q0) = 0.  q0 vanishes iff q is divisible by sigma.

    By default the symbol and the quartic coefficients are evaluated at the
    reference jet (enough to falsify Monge-Ampere-ness); ``symbolic=True``
    keeps them exact over the rational functions of the jet.  SingularSymbol
    is raised when det(g) vanishes (identically, when symbolic).  q0 is
    N / D of :func:`_scaled_split`.
    """
    N, D, _P, _sigma = _scaled_split(eq, eq.quartic, symbolic)
    return _over(*N) / _over(*D)


class MAReport(FrozenValue):
    """Both Monge-Ampere verdicts, reported without collapsing them.

    For n >= 2 and a nonsingular symbol, ``residue_vanishes`` is whether
    sigma divides q, which for a nonsingular g is whether the traceless
    residue q0 vanishes (see :func:`ma_classify`); else it is None.
    """

    __slots__ = ("minor_affine", "n1_affine", "singular_symbol", "residue_vanishes")

    def __init__(self, minor_affine: bool, n1_affine: bool | None,
                 singular_symbol: bool = False, residue_vanishes: bool | None = None) -> None:
        if minor_affine and residue_vanishes is False:
            raise InvariantViolation("minor-affine equation with nonzero residue")
        self._set(minor_affine, n1_affine, singular_symbol, residue_vanishes)


def ma_classify(eq: EvolutionEquation, symbolic: bool = False) -> MAReport:
    """Run the applicable Monge-Ampere tests.

    For n = 1 the residue test degenerates (there is no nonzero traceless
    quartic in one variable) and the affine-in-u_xx criterion is reported
    instead; for n >= 2 both the literal minor-affinity test and the
    traceless-residue test run.  A singular symbol at the reference jet is
    reported as a flag, not an error.

    For a nonsingular g the harmonic split q = H4 + sigma H2 + sigma^2 H0
    is unique, so q0 = H4 vanishes exactly when sigma divides q, and the
    verdict is that division (:func:`_divides`) on the integral forms of
    :func:`_integral_forms`, with no split.  Pointwise, a strict symbol is
    nonsingular, since every pivot of its elimination is positive; any
    other symbol, and every symbol when ``symbolic``, runs
    :func:`_det_adjugate` to find whether det g vanishes.
    """
    q = eq.quartic
    minor = q.is_zero
    if eq.n == 1:
        # q = G_{u_xx u_xx} xi^4: affinity in u_xx is minor affinity
        return MAReport(minor, minor)
    _s, g, _s_q, qs, one = _integral_forms(eq, q, symbolic)
    if symbolic or eq.parabolicity is not Parabolicity.STRICT:
        try:
            _det_adjugate(g, one)
        except SingularSymbol:
            return MAReport(minor, None, singular_symbol=True)
    zero = one - one
    sigma = {m: g[i][j] if i == j else 2 * g[i][j]
             for i, j, _u, m in _hessian_directions(eq.n) if g[i][j] != zero}
    if symbolic:
        qs = Poly(qs).coefficients_in(frozenset(xi_symbols(eq.n)))
    return MAReport(minor, None, residue_vanishes=_divides(sigma, qs, zero))
