"""Symbol extraction, parabolicity, and the two Monge-Ampere tests.

Both forms of u_t = G(x, t, u, grad u, Hess u) that the classification
reads come from one derivation, D_xi = sum_{i <= j} xi_i xi_j d/du_ij, the
derivative of G(..., u_ij + e xi_i xi_j) in e at e = 0, which walks each
monomial's fields once: the symbol is the quadratic form sigma = D_xi G
and the quartic form is q = D_xi sigma, each one quotient rule
(expr._derived) away from G.  The symbol matrix g, with g^ii the xi_i^2
coefficient of sigma and g^ij half its xi_i xi_j coefficient, is read off
sigma.

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

Both verdicts read integral forms.  At the reference jet sigma and q are
each evaluated in one pass, with the reference values over one common
denominator, into ``int`` terms with a positive scale (_integral_at);
symbolically their coefficient denominators are cleared.  Parabolicity is
one symmetric elimination without fractions on the integral symbol
matrix.  The pointwise class settles what it can about det g: a strict
symbol has every pivot positive, so det g > 0 at the reference jet and
det g is not 0 in the jet either; a weak one has a zero pivot, so
det g = 0 there.  Faddeev-LeVerrier (_det_adjugate, whose division by k is
exact over Z) runs only where the class leaves det g open: on a pointwise
symbol that is not parabolic, and, symbolically, where the pointwise class
is not strict or cannot be computed.  q0 itself, N / (c det(g)^2) for the
N of the split (_scaled_split), is computed only by ma_traceless_residue,
and only at the reference jet; no report needs it.

Parabolicity and the residue are certified at a user-supplied reference
2-jet; global positivity of a symbolic matrix is not decided here.  The
symbol and its integral form at the reference jet are built once per
EvolutionEquation and shared by both, as is the quartic form, which the
law search reads too.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Mapping, Sequence
from functools import cached_property, lru_cache
from fractions import Fraction

from .expr import (
    AUX, BASE, JET, MAX_TERMS, DivisionByZeroExpr, Expr, FrozenValue, Monomial, Poly, Rationalish,
    Symbol, _add_terms, _cleared, _derived, _fields, aux_var, jet_var, mono_divides,
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
    def symbol_at_reference(self) -> tuple[int, dict[Monomial, int]]:
        """(s, sigma): the symbol at the reference jet, evaluated once as the
        xi-monomial -> ``int`` terms of s sigma with a scale s > 0
        (:func:`_integral_at`).  sigma's denominator is the lcm of those of
        the entries of g, since distinct xi-coefficients cannot cancel, so
        it vanishes where one of theirs does."""
        try:
            s, sigma = _integral_at(self.symbol, self.reference_jet)
        except DivisionByZeroExpr:
            point = ", ".join(f"{s} = {self.reference_jet[s]}"
                              for s in sorted(self.G.symbols()))
            raise DivisionByZeroExpr(
                f"a denominator of the symbol vanishes at the reference jet "
                f"{point}; choose another with a ref clause") from None
        return s, sigma

    @cached_property
    def parabolicity(self) -> Parabolicity:
        """The symbol at the reference jet classified once, exactly, by one
        symmetric (LDL^T) elimination on the integral matrix 2 s g of
        :attr:`symbol_at_reference`, free of fractions: each row it updates
        is multiplied by the pivot, which is positive there, so every row
        stays a positive multiple of its row of the Schur complement and
        every pivot keeps its sign.  A negative pivot, or a zero pivot
        whose row is not zero, is not parabolic; all pivots positive is
        strict (det g > 0); else weak, with a zero pivot, so det g = 0."""
        n = self.n
        g = _matrix(self.symbol_at_reference[1], n, 0)
        strict = True
        for k in range(n):
            pivot = g[k][k]
            if pivot < 0 or (pivot == 0 and any(g[k][k + 1:])):
                return Parabolicity.NOT_PARABOLIC
            strict = strict and pivot > 0
            for i in range(k + 1, n):
                factor = g[i][k]
                if factor:  # never under a zero pivot, whose row is zero
                    row, above = g[i], g[k]
                    for j in range(k + 1, n):
                        row[j] = pivot * row[j] - factor * above[j]
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
    dimensions: the derivative of p(..., u_ij + e xi_i xi_j) in e at e = 0.
    One walk over each monomial's fields: a factor u_ij^e gives e times the
    monomial with u_ij lowered once and xi_i xi_j raised.  That step is
    injective, so the terms of one u_ij do not meet; the parts of the u_ij
    are summed by _add_terms, as terms of p with other xi can meet."""
    steps = {u_ij.slot: m - u_ij.unit for _i, _j, u_ij, m in _hessian_directions(n)}

    def derive(p: Poly) -> Poly:
        parts = {slot: (step, {}) for slot, step in steps.items()}
        for m, c in p.terms.items():
            for slot, e in _fields(m):
                part = parts.get(slot)
                if part is not None:
                    part[1][m + part[0]] = c if e == 1 else c * e
        out: dict = {}
        for _step, terms in parts.values():
            _add_terms(out, terms)
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
# of g, det g, adj g, L(L(q))) is an ``int`` at the reference jet, and in
# Faddeev-LeVerrier under ma_classify(symbolic=True) a Poly with ``int``
# coefficients in the jet; a form in xi is a Poly.  An int scalar is written
# on the left of a product, so int * Poly runs Poly.__rmul__.

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


def _evaluated(p: Poly, d: int, point: Mapping[int, tuple[int, Monomial]]) -> tuple:
    """(s, terms): s > 0 and the terms of s p at the point, which binds the
    symbol of each slot in it to a / d for its (a, unit); the terms are
    over the monomials in the symbols left free, with ``int``
    coefficients.  A term of degree k in the bound symbols is scaled by
    d^(top - k), top the largest such degree."""
    c_den = math.lcm(*[c.denominator for c in p.terms.values()])
    found, top = [], 0
    for m, c in p.terms.items():
        v, free, degree = c.numerator * (c_den // c.denominator), m, 0
        for slot, k in _fields(m):
            bound = point.get(slot)
            if bound is not None:
                a, unit = bound
                v *= a if k == 1 else a ** k
                free -= k * unit
                degree += k
        if v:
            found.append((free, v, degree))
            top = max(top, degree)
    terms = {}
    for free, v, degree in found:
        terms[free] = terms.get(free, 0) + v * d ** (top - degree)
    return c_den * d ** top, {m: c for m, c in terms.items() if c}


def _integral_at(e: Expr, ref: Mapping[Symbol, Fraction]) -> tuple:
    """(s, terms): s > 0 and the xi-monomial -> ``int`` terms of s e, for
    the symbol or quartic form e at the jet ``ref``, in one pass over e's
    numerator: each factor of a monomial is a xi, since G holds no
    auxiliary symbol, or is bound in ref (a binding of a xi is ignored),
    and ref's values are put over one common denominator.  The
    denominator, free of xi, is evaluated the same way where e is not a
    polynomial, raises DivisionByZeroExpr where it vanishes, and otherwise
    has its sign folded into the terms."""
    d = math.lcm(*[v.denominator for v in ref.values()])
    point = {s.slot: (v.numerator * (d // v.denominator), s.unit)
             for s, v in ref.items() if s.kind != AUX}
    s, terms = _evaluated(e.num, d, point)
    if not e.is_polynomial:
        s_den, den = _evaluated(e.den, d, point)
        den = den.get(0)
        if den is None:
            raise DivisionByZeroExpr("denominator vanishes at evaluation point")
        s *= abs(den)
        factor = s_den if den > 0 else -s_den
        terms = {m: factor * c for m, c in terms.items()}
    return s, terms


def _matrix(sigma: Mapping[Monomial, object], n: int, zero) -> list[list]:
    """The matrix 2 g of the quadratic form sigma = sum g^ij xi_i xi_j,
    given by its terms, with ``zero`` their 0: 2 g^ii is twice the xi_i^2
    coefficient and 2 g^ij the xi_i xi_j coefficient."""
    g = [[None] * n for _ in range(n)]
    for i, j, _u, m in _hessian_directions(n):
        c = sigma.get(m, zero)
        g[i][j] = g[j][i] = 2 * c if i == j else c
    return g


def _integral_forms(eq: EvolutionEquation, q: Expr, symbolic: bool) -> tuple:
    """(c, sigma, c_q, q_s, one): the xi-monomial -> coefficient terms
    sigma of s sigma and q_s of s_q q, each integral with s and s_q
    nonzero, with ``one`` the unit of their coefficients.  At the
    reference jet, unless ``symbolic``, s = c and s_q = c_q are the
    positive scales of :func:`_integral_at`.  Symbolically the
    coefficients are int-coefficient polynomials in the jet: c is the lcm
    of the coefficient denominators of sigma.num, s = c sigma.den and
    sigma is the xi-coefficients of c sigma.num; c_q, s_q = c_q q.den and
    q_s are alike."""
    if eq.n < 2:
        raise PreconditionSpatialDim("traceless residue needs n >= 2")
    if not symbolic:
        s, sigma = eq.symbol_at_reference
        return (s, sigma, *_integral_at(q, eq.reference_jet), 1)
    xi = frozenset(xi_symbols(eq.n))
    c, (sigma,) = _cleared([eq.symbol.num.terms])
    c_q, (qs,) = _cleared([q.num.terms])
    return c, Poly(sigma).coefficients_in(xi), c_q, Poly(qs).coefficients_in(xi), Poly({0: 1})


def _scaled_split(eq: EvolutionEquation) -> tuple:
    """The harmonic split of the quartic form q of ``eq`` at the reference
    jet: the pairs (integral numerator, scale) of N, D, P and sigma, each
    the quotient of its pair, with q = q0 + sigma * P / D, tr_g(q0) = 0 and
    D q0 = N: a polynomial identity, so q0 vanishes iff N does.

    L = sum adj(g)_ij d_xi_i d_xi_j is det(g) tr_g, and tr_g(sigma p) =
    sigma tr_g(p) + (2n + 4 deg p) p.  On the harmonic split
    q = H4 + sigma H2 + sigma^2 H0 (tr_g H4 = tr_g H2 = 0) this gives
    L(q) = det ((2n+8) H2 + (4n+8) sigma H0) and L(L(q)) = det^2 2n(4n+8) H0,
    so with c = (2n+8)(4n+8), D = c det^2 and P = (4n+8) det L(q) -
    sigma L(L(q)), h = H2 + sigma H0 is P / D and N = D q - sigma P is D H4.

    All of it runs on the integral g_s = s g, with s twice the scale of
    sigma, and q_s = s_q q of :func:`_integral_forms`.  With det, adj and
    sigma of g_s, N, D and P come out scaled by s^(2n) s_q, s^(2n) and
    s^(2n-1) s_q, the scales returned."""
    s, sigma, s_q, qs, _one = _integral_forms(eq, eq.quartic, False)
    n = eq.n
    g = _matrix(sigma, n, 0)
    qs = Poly(qs)
    s = 2 * s
    xi = xi_symbols(n)
    det, adj = _det_adjugate(g, 1)
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


def ma_traceless_residue(eq: EvolutionEquation) -> Expr:
    """The g-traceless part q0 of the quartic form at the reference jet:
    q = q0 + sigma * h with tr_g(q0) = 0, so q0 vanishes iff q is divisible
    by sigma.  SingularSymbol is raised when det(g) vanishes there.

    q0 is N / D of :func:`_scaled_split`, with D an ``int``: N scaled by
    one rational, over the denominator 1, so no gcd runs.  There is no
    symbolic mode: over the rational functions of the jet, normalizing
    N / D takes gcds whose work is not bounded, and the symbolic verdict,
    whether sigma divides q, is :func:`ma_classify`'s with no split.
    """
    (N, s_N), (D, s_D), _P, _sigma = _scaled_split(eq)
    return Expr._make(N.scale(Fraction(s_D, D * s_N)), Poly.one())


class MAReport(FrozenValue):
    """Both Monge-Ampere verdicts, reported without collapsing them.

    For n >= 2 and a nonsingular symbol, ``residue_vanishes`` is whether
    sigma divides q, which for a nonsingular g is whether the traceless
    residue q0 vanishes (see :func:`ma_classify`); else it is None.  Both
    verdicts read integral forms of sigma and q, and ``singular_symbol``
    comes from the pointwise class where that settles det g, else from
    Faddeev-LeVerrier.
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
    :func:`_integral_forms`, with no split.  The pointwise class of the
    symbol settles what it can about det g: strict gives det g > 0 at the
    reference jet, so g is nonsingular, pointwise and symbolically alike,
    and weak has a zero pivot, so det g = 0 there.  :func:`_det_adjugate`
    finds whether det g vanishes only on a pointwise symbol that is not
    parabolic, and when ``symbolic`` on one whose pointwise class is not
    strict or cannot be computed, as its denominator vanishes at the
    reference jet.
    """
    q = eq.quartic
    minor = q.is_zero
    if eq.n == 1:
        # q = G_{u_xx u_xx} xi^4: affinity in u_xx is minor affinity
        return MAReport(minor, minor)
    try:
        verdict = eq.parabolicity
    except DivisionByZeroExpr:
        if not symbolic:
            raise
        verdict = None
    if verdict is Parabolicity.WEAK and not symbolic:
        return MAReport(minor, None, singular_symbol=True)
    _s, sigma, _s_q, qs, one = _integral_forms(eq, q, symbolic)
    zero = one - one
    if verdict is not Parabolicity.STRICT:
        try:
            _det_adjugate(_matrix(sigma, eq.n, zero), one)
        except SingularSymbol:
            return MAReport(minor, None, singular_symbol=True)
    return MAReport(minor, None, residue_vanishes=_divides(sigma, qs, zero))
