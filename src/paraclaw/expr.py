"""Exact symbolic kernel: sparse multivariate rational functions.

An :class:`Expr` is a quotient of multivariate polynomials over
arbitrary-precision rationals, kept in canonical form: numerator and
denominator coprime, denominator monic under the graded-lexicographic
monomial order induced by the global symbol order.  Two expressions are
equal as rational functions iff their canonical forms are identical, so
the zero test is simply ``numerator == 0``.

Symbols come in four kinds, totally ordered as

    base coordinates (t = x^0, then x^1..x^n)
  < jet coordinates u_{I,t}, ordered by (|I|+t, t, index word)
  < ansatz unknowns c_k
  < auxiliary indeterminates (quartic-form xi's, flux unknowns)

Only +, -, *, / and integer powers are supported; no radicals or
transcendental functions.  That restriction is what keeps equality (and
hence every downstream linear-algebra step) decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "BASE", "JET", "ANSATZ", "AUX",
    "DivisionByZeroExpr", "NotPolynomialIn", "MAX_TERMS",
    "MultiIndex", "Symbol",
    "base_var", "jet_var", "jet_symbol", "ansatz_unknown", "aux_var",
    "TIME", "U",
    "Monomial", "mono_mul", "mono_degree", "mono_cmp", "mono_sort_key",
    "Poly", "poly_gcd", "divexact",
    "Expr", "ZERO", "ONE",
    "diff", "substitute", "poly_coefficients", "monomial_expr",
    "format_poly", "format_expr",
]

Rationalish = Union[int, Fraction]

# The one size budget: the term-pair products a parse may perform, and the
# monomials a density ansatz may have.
MAX_TERMS = 20000


class DivisionByZeroExpr(ZeroDivisionError):
    """A denominator normalized to the zero polynomial."""


class NotPolynomialIn(ValueError):
    """An expression was required to be polynomial in some symbols but is not."""

    def __init__(self, vars_: Iterable["Symbol"]):
        self.vars = tuple(sorted(vars_))
        names = ", ".join(str(s) for s in self.vars)
        super().__init__(f"expression is not polynomial in {{{names}}}")


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

BASE = "base"
JET = "jet"
ANSATZ = "ansatz"
AUX = "aux"

_KIND_RANK = {BASE: 0, JET: 1, ANSATZ: 2, AUX: 3}


@dataclass(frozen=True)
class MultiIndex:
    """Symmetric spatial multi-index plus a time power.

    ``spatial`` is the index word as a sorted tuple -- only multiplicities
    matter, e.g. (1, 1, 2) is two derivatives in x^1 and one in x^2.
    ``time_power`` counts derivatives in t.
    """

    spatial: tuple[int, ...] = ()
    time_power: int = 0

    def __post_init__(self) -> None:
        spat = tuple(sorted(self.spatial))
        if any(i < 1 for i in spat):
            raise ValueError("spatial indices are 1-based")
        if self.time_power < 0:
            raise ValueError("time_power must be non-negative")
        object.__setattr__(self, "spatial", spat)

    @property
    def order(self) -> int:
        return len(self.spatial) + self.time_power

    def append(self, a: int) -> "MultiIndex":
        """The multi-index Ia: one more derivative in direction a (0 = time)."""
        if a == 0:
            return MultiIndex(self.spatial, self.time_power + 1)
        return MultiIndex(self.spatial + (a,), self.time_power)

    def __str__(self) -> str:
        return "".join(map(str, self.spatial)) + "t" * self.time_power or "()"


class Symbol(tuple):
    """A coordinate in the global symbol order.

    The value of a symbol is its order key: ``(1, order, time_power,
    spatial)`` for a jet, ``(kind rank, index)`` for every other kind.  So
    hashing, equality and ordering are those of a tuple of ints, run in C
    and free of the hash seed, and the display ``name`` is not part of
    identity.  ``kind``, ``index``, ``jet``, ``name`` and ``_rkey`` (the
    key reversed, for :func:`mono_sort_key`) are read-only attributes.
    """

    def __new__(cls, kind: str, index: int = 0, jet: MultiIndex | None = None,
                name: str = "") -> "Symbol":
        if kind == JET:
            if jet is None:
                raise ValueError("jet symbol needs a MultiIndex")
            key = (1, jet.order, jet.time_power, jet.spatial)
            # equal order and time power imply equal spatial length, so
            # negating elementwise reverses the order of the keys
            rkey = (-1, -jet.order, -jet.time_power, tuple(-i for i in jet.spatial))
        else:
            key = (_KIND_RANK[kind], index)
            rkey = (-key[0], -index)
        self = super().__new__(cls, key)
        attrs = vars(self)
        attrs.update(kind=kind, index=index, jet=jet, _rkey=rkey)
        attrs["name"] = name or self._default_name()
        return self

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"cannot assign to {attr!r}: symbols are immutable")

    def __reduce__(self):
        # rebuilt from the constructor arguments, not from the key tuple
        return Symbol, (self.kind, self.index, self.jet, self.name)

    @property
    def key(self) -> tuple:
        """The order key as a plain tuple."""
        return tuple(self)

    def _default_name(self) -> str:
        if self.kind == BASE:
            return "t" if self.index == 0 else f"x{self.index}"
        if self.kind == JET:
            mi = self.jet
            if mi.order == 0:
                return "u"
            return "u_" + "".join(map(str, mi.spatial)) + "t" * mi.time_power
        if self.kind == ANSATZ:
            return f"c{self.index}"
        return f"w{self.index}"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


def base_var(a: int) -> Symbol:
    """Base coordinate x^a; a = 0 is time."""
    if a < 0:
        raise ValueError("base index must be >= 0")
    return Symbol(BASE, a)


_JET_VARS: dict[tuple, Symbol] = {}


def jet_var(spatial: Iterable[int] = (), time_power: int = 0) -> Symbol:
    """Jet coordinate u_{I,t}; ``jet_var()`` is u itself.  Interned: equal
    arguments return the same symbol."""
    key = (tuple(spatial), time_power)
    s = _JET_VARS.get(key)
    if s is None:
        s = _JET_VARS[key] = Symbol(JET, 0, MultiIndex(*key))
    return s


def jet_symbol(mi: MultiIndex) -> Symbol:
    return Symbol(JET, 0, mi)


def ansatz_unknown(k: int) -> Symbol:
    return Symbol(ANSATZ, k)


def aux_var(k: int, name: str = "") -> Symbol:
    return Symbol(AUX, k, None, name)


TIME = base_var(0)
U = jet_var()


# ---------------------------------------------------------------------------
# Monomials: sorted tuples of (Symbol, positive exponent)
# ---------------------------------------------------------------------------

Monomial = tuple  # tuple[tuple[Symbol, int], ...], sorted by symbol

_ONE_MONO: Monomial = ()


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1 == s2:
            out.append((s1, e1 + e2))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    """True iff m1 divides m2."""
    d2 = dict((s, e) for s, e in m2)
    return all(d2.get(s, 0) >= e for s, e in m1)


def mono_div(m2: Monomial, m1: Monomial) -> Monomial:
    """m2 / m1, assuming m1 divides m2."""
    d = dict((s, e) for s, e in m2)
    for s, e in m1:
        d[s] -= e
    return tuple(sorted((s, e) for s, e in d.items() if e))


def mono_gcd(m1: Monomial, m2: Monomial) -> Monomial:
    d2 = dict((s, e) for s, e in m2)
    out = [(s, min(e, d2[s])) for s, e in m1 if s in d2]
    return tuple((s, e) for s, e in out if e)


def mono_cmp(m1: Monomial, m2: Monomial) -> int:
    """Graded lexicographic order: total degree first, then the earlier
    symbol with the larger exponent wins."""
    d1, d2 = mono_degree(m1), mono_degree(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1 == s2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif s1 < s2:
            return 1
        else:
            return -1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


def mono_sort_key(m: Monomial) -> list:
    """Sort key of the order :func:`mono_cmp` defines: [degree, reversed
    key of the first symbol, its exponent, ...].  The symbol keys are
    reversed, so the earlier symbol and then the larger exponent sort
    higher."""
    key = [0]
    degree = 0
    for s, e in m:
        degree += e
        key += (s._rkey, e)
    key[0] = degree
    return key


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)


class Poly:
    """Sparse multivariate polynomial: dict monomial -> nonzero coefficient.

    A coefficient is a nonzero ``int`` or ``Fraction``.  Ring arithmetic,
    :meth:`diff` and the total derivatives of :mod:`paraclaw.jets` keep
    ``int`` coefficients ``int``; every division returns a ``Fraction``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({_ONE_MONO: _F1})

    @staticmethod
    def const(c: Rationalish) -> "Poly":
        c = Fraction(c)
        return Poly({_ONE_MONO: c}) if c else Poly()

    @staticmethod
    def variable(s: Symbol) -> "Poly":
        return Poly({((s, 1),): _F1})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    __hash__ = None  # mutable dict inside

    def symbols(self) -> set[Symbol]:
        out: set[Symbol] = set()
        for m in self.terms:
            for s, _ in m:
                out.add(s)
        return out

    def degree_of(self, s: Symbol) -> int:
        best = 0
        for m in self.terms:
            for sym, e in m:
                if sym == s and e > best:
                    best = e
        return best

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under the graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=mono_sort_key)
        return m, self.terms[m]

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Monomial, Fraction]]:
        return [(m, self.terms[m]) for m in
                sorted(self.terms, key=mono_sort_key, reverse=reverse)]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        """self - other in one pass over other's terms (no negated copy)."""
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            if acc is None:
                out[m] = -c
            else:
                acc = acc - c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly()
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                acc = out.get(m)
                if acc is None:
                    out[m] = c
                else:
                    acc = acc + c
                    if acc:
                        out[m] = acc
                    else:
                        del out[m]
        return Poly(out)

    def scale(self, c: Rationalish) -> "Poly":
        if not c:
            return Poly()
        return Poly({m: k * c for m, k in self.terms.items()})

    def mono_shift(self, m: Monomial) -> "Poly":
        if not m:
            return self
        return Poly({mono_mul(k, m): c for k, c in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("Poly power must be non-negative")
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus / evaluation ------------------------------------------------

    def diff(self, s: Symbol) -> "Poly":
        out: dict = {}
        for m, c in self.terms.items():
            for idx, (sym, e) in enumerate(m):
                if sym == s:
                    if e == 1:
                        nm = m[:idx] + m[idx + 1:]
                    else:
                        nm = m[:idx] + ((sym, e - 1),) + m[idx + 1:]
                    nc = c * e
                    acc = out.get(nm)
                    if acc is None:
                        out[nm] = nc
                    else:
                        acc = acc + nc
                        if acc:
                            out[nm] = acc
                        else:
                            del out[nm]
                    break
        return Poly(out)

    def eval_fraction(self, bindings: Mapping[Symbol, Rationalish]) -> Fraction:
        total = _F0
        for m, c in self.terms.items():
            v = c
            for s, e in m:
                if s not in bindings:
                    raise KeyError(f"no value bound for symbol {s}")
                v *= bindings[s] if e == 1 else bindings[s] ** e
            total += v
        return total

    def substitute(self, bindings: Mapping[Symbol, "Expr"]) -> "Expr":
        """Simultaneous substitution; unbound symbols map to themselves."""
        cache: dict[tuple[Symbol, int], Expr] = {}

        def power(s: Symbol, e: int) -> Expr:
            key = (s, e)
            got = cache.get(key)
            if got is None:
                base = bindings.get(s)
                if base is None:
                    base = Expr.symbol(s)
                got = base ** e
                cache[key] = got
            return got

        total = ZERO
        for m, c in self.terms.items():
            term = Expr.const(c)
            for s, e in m:
                term = term * power(s, e)
            total = total + term
        return total

    def coefficients_in(self, varset: frozenset) -> dict[Monomial, "Poly"]:
        out: dict[Monomial, dict] = {}
        for m, c in self.terms.items():
            inside = tuple(p for p in m if p[0] in varset)
            out.setdefault(inside, {})[tuple(p for p in m if p[0] not in varset)] = c
        return {k: Poly(v) for k, v in out.items()}

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


_ONE_POLY = Poly.one()


# ---------------------------------------------------------------------------
# Polynomial gcd (content + primitive pseudo-remainder sequence over Z)
# ---------------------------------------------------------------------------

def divexact(p: Poly, q: Poly) -> Poly:
    """Exact division p / q; raises ValueError if the division is not exact."""
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return Poly()
    qm, qc = q.leading()
    rest = dict(p.terms)
    out: dict = {}
    while rest:
        r = Poly(rest)
        pm, pc = r.leading()
        if not mono_divides(qm, pm):
            raise ValueError("inexact polynomial division")
        m = mono_div(pm, qm)
        c = Fraction(pc, qc) if type(pc) is type(qc) is int else pc / qc
        out[m] = c
        rest = (r - q.mono_shift(m).scale(c)).terms
    return Poly(out)


def _mono_content(p: Poly) -> Monomial:
    it = iter(p.terms)
    g = next(it)
    for m in it:
        if not g:
            break
        g = mono_gcd(g, m)
    return g


def _monic(p: Poly) -> Poly:
    if p.is_zero:
        return p
    _, c = p.leading()
    return p if c == 1 else p.scale(_F1 / c)


def _univariate_view(p: Poly, v: Symbol) -> dict[int, Poly]:
    out: dict[int, dict] = {}
    for m, c in p.terms.items():
        deg = 0
        rest = m
        for idx, (s, e) in enumerate(m):
            if s == v:
                deg = e
                rest = m[:idx] + m[idx + 1:]
                break
        out.setdefault(deg, {})[rest] = c
    return {d: Poly(t) for d, t in out.items()}


def _content_pp(p: Poly, v: Symbol) -> tuple[Poly, Poly]:
    view = _univariate_view(p, v)
    coeffs = sorted(view.values(), key=lambda q: len(q.terms))
    cont = coeffs[0]
    for q in coeffs[1:]:
        cont = poly_gcd(cont, q)
        if cont == _ONE_POLY:
            break
    if cont == _ONE_POLY:
        return cont, p
    return cont, divexact(p, cont)


def _prem(a: Poly, b: Poly, v: Symbol) -> Poly:
    """Pseudo-remainder of a by b in the variable v (up to lc(b) powers)."""
    bview = _univariate_view(b, v)
    db = max(bview)
    lcb = bview[db]
    r = a
    while not r.is_zero:
        rview = _univariate_view(r, v)
        dr = max(rview)
        if dr < db:
            break
        lcr = rview[dr]
        shift = Poly({((v, dr - db),): _F1}) if dr > db else _ONE_POLY
        r = r * lcb - b * lcr * shift
    return r


def _rational_primitive(p: Poly) -> Poly:
    """p divided by its rational content (gcd of the numerators over the lcm
    of the denominators): coprime integer coefficients."""
    num, den = 0, 1
    for c in p.terms.values():
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    if num == den == 1:
        return p
    return Poly({m: c.numerator * (den // c.denominator) // num
                 for m, c in p.terms.items()})


def _gcd_with_coefficients(p: Poly, q: Poly, v: Symbol) -> Poly:
    """gcd(p, q) for p free of v: p folded through q's coefficients in v,
    smallest first, so every gcd taken has an operand that divides p."""
    g = p
    for c in sorted(_univariate_view(q, v).values(), key=lambda c: len(c.terms)):
        g = poly_gcd(g, c)
        if g == _ONE_POLY:
            break
    return g


def _gcd_primitive(p: Poly, q: Poly) -> Poly:
    vars_ = p.symbols() | q.symbols()
    if not vars_:
        return Poly.one()
    v = max(vars_)
    dp, dq = p.degree_of(v), q.degree_of(v)
    if dp == 0:
        return _gcd_with_coefficients(p, q, v)
    if dq == 0:
        return _gcd_with_coefficients(q, p, v)
    cp, pp_p = _content_pp(p, v)
    cq, pp_q = _content_pp(q, v)
    c = poly_gcd(cp, cq)
    a, b = (pp_p, pp_q) if dp >= dq else (pp_q, pp_p)
    while not b.is_zero and b.degree_of(v) > 0:
        r = _prem(a, b, v)
        a, b = b, (r if r.is_zero else _rational_primitive(_content_pp(r, v)[1]))
    if b.is_zero:
        g = a
    else:
        g = Poly.one()
    return c * g


def _is_nonzero_const(p: Poly) -> bool:
    return len(p.terms) == 1 and _ONE_MONO in p.terms


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals; gcd(0, 0) = 0."""
    if _is_nonzero_const(p) or _is_nonzero_const(q):
        return Poly.one()
    if p.is_zero:
        return _monic(q)
    if q.is_zero:
        return _monic(p)
    mp, mq = _mono_content(p), _mono_content(q)
    common = mono_gcd(mp, mq)
    p1 = Poly({mono_div(m, mp): c for m, c in p.terms.items()}) if mp else p
    q1 = Poly({mono_div(m, mq): c for m, c in q.terms.items()}) if mq else q
    g = _gcd_primitive(p1, q1)
    if common:
        g = g.mono_shift(common)
    return _monic(g)


# ---------------------------------------------------------------------------
# Canonical rational functions
# ---------------------------------------------------------------------------

class Expr:
    """Canonical rational function (coprime parts, monic denominator).

    Construction *is* normalization: every arithmetic operation returns a
    canonical result, so semantically equal inputs always yield identical
    objects and ``is_zero`` is a complete zero test on this fragment.
    Instances are immutable and safe to share.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _raw: bool = False):
        if not _raw:
            raise TypeError("use Expr.const / Expr.symbol / arithmetic")
        self.num = num
        self.den = den

    # -- construction ---------------------------------------------------------

    @staticmethod
    def _make(num: Poly, den: Poly) -> "Expr":
        if den.is_zero:
            raise DivisionByZeroExpr("denominator is identically zero")
        if num.is_zero:
            return ZERO
        if den.terms != _ONE_POLY.terms:
            g = poly_gcd(num, den)
            if g.terms != _ONE_POLY.terms:
                num, den = divexact(num, g), divexact(den, g)
            if den.terms != _ONE_POLY.terms:
                _, lc = den.leading()
                if lc != 1:
                    num, den = num.scale(_F1 / lc), den.scale(_F1 / lc)
        return Expr(num, den, _raw=True)

    @staticmethod
    def const(c: Rationalish) -> "Expr":
        c = Fraction(c)
        if not c:
            return ZERO
        return Expr(Poly.const(c), Poly.one(), _raw=True)

    @staticmethod
    def symbol(s: Symbol) -> "Expr":
        return Expr(Poly.variable(s), Poly.one(), _raw=True)

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.terms == _ONE_POLY.terms

    def symbols(self) -> set[Symbol]:
        return self.num.symbols() | self.den.symbols()

    def canonical_key(self) -> tuple:
        """Hashable canonical fingerprint (for dedup tables)."""
        return (tuple(self.num.sorted_terms()), tuple(self.den.sorted_terms()))

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_polynomial and other.is_polynomial:
            return Expr._make(self.num + other.num, _ONE_POLY)
        return Expr._make(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        if self.is_zero:
            return self
        return Expr(-self.num, self.den, _raw=True)

    def __sub__(self, other) -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_polynomial and other.is_polynomial:
            return Expr._make(self.num - other.num, _ONE_POLY)
        return self + (-other)

    def __rsub__(self, other) -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_polynomial and other.is_polynomial:
            return Expr._make(self.num * other.num, _ONE_POLY)
        return Expr._make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr._make(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return ONE
        if k > 0:
            # coprime parts stay coprime under powers, so no re-reduction
            if self.is_zero:
                return ZERO
            return Expr(self.num ** k, self.den ** k, _raw=True)
        return Expr._make(self.den ** (-k), self.num ** (-k))

    # -- calculus ------------------------------------------------------------------

    def diff(self, s: Symbol) -> "Expr":
        """Formal partial derivative with respect to one symbol."""
        if self.is_polynomial:
            return Expr._make(self.num.diff(s), _ONE_POLY)
        n, d = self.num, self.den
        return Expr._make(n.diff(s) * d - n * d.diff(s), d * d)

    def substitute(self, bindings: Mapping[Symbol, "Expr | Rationalish"]) -> "Expr":
        """Simultaneous substitution of symbols by expressions."""
        norm: dict[Symbol, Expr] = {}
        for s, v in bindings.items():
            norm[s] = v if isinstance(v, Expr) else Expr.const(v)
        if not (self.symbols() & norm.keys()):
            return self
        num = self.num.substitute(norm)
        if self.is_polynomial:
            return num
        return num / self.den.substitute(norm)

    def eval_fraction(self, bindings: Mapping[Symbol, Rationalish]) -> Fraction:
        if self.is_polynomial:
            return self.num.eval_fraction(bindings)
        d = self.den.eval_fraction(bindings)
        if not d:
            raise DivisionByZeroExpr("denominator vanishes at evaluation point")
        return self.num.eval_fraction(bindings) / d

    def poly_coefficients(self, vars_: Iterable[Symbol]) -> dict[Monomial, "Expr"]:
        """Coefficient map over monomials in ``vars_``; see :func:`poly_coefficients`."""
        varset = frozenset(vars_)
        bad = self.den.symbols() & varset
        if bad:
            raise NotPolynomialIn(bad)
        out: dict[Monomial, Expr] = {}
        for m, p in self.num.coefficients_in(varset).items():
            out[m] = Expr._make(p, self.den)
        return out

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        return f"Expr({format_expr(self)})"


ZERO = Expr(Poly.zero(), Poly.one(), _raw=True)
ONE = Expr(Poly.one(), Poly.one(), _raw=True)


def _coerce(x) -> Expr | None:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.const(x)
    return None


# ---------------------------------------------------------------------------
# Functional surface
# ---------------------------------------------------------------------------

def diff(e: Expr, s: Symbol) -> Expr:
    """Partial derivative of e with respect to symbol s (all others constant)."""
    return e.diff(s)


def substitute(e: Expr, bindings: Mapping[Symbol, Expr | Rationalish]) -> Expr:
    """Simultaneous substitution; raises DivisionByZeroExpr on vanishing denominators."""
    return e.substitute(bindings)


def poly_coefficients(e: Expr, vars_: Iterable[Symbol]) -> dict[Monomial, Expr]:
    """Decompose e = sum(coefficient * monomial) over monomials in ``vars_``.

    The coefficients contain no symbol from ``vars_``; raises NotPolynomialIn
    when the denominator of e involves any of them.  The zero expression
    yields an empty map.
    """
    return e.poly_coefficients(vars_)


def monomial_expr(m: Monomial) -> Expr:
    """The monomial m as an expression (for reassembling coefficient maps)."""
    out = ONE
    for s, e in m:
        out = out * Expr.symbol(s) ** e
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _format_mono(m: Monomial, name: Callable[[Symbol], str]) -> str:
    return "*".join(f"{name(s)}^{e}" if e > 1 else name(s) for s, e in m)


def format_poly(p: Poly, name: Callable[[Symbol], str] = str) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for m, c in p.sorted_terms():
        if not m:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(_format_mono(m, name))
        elif c == -1:
            pieces.append("-" + _format_mono(m, name))
        else:
            pieces.append(f"{c}*{_format_mono(m, name)}")
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def format_expr(e: Expr, name: Callable[[Symbol], str] = str) -> str:
    if e.is_polynomial:
        return format_poly(e.num, name)
    return f"({format_poly(e.num, name)})/({format_poly(e.den, name)})"
