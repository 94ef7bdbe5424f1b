"""Exact symbolic kernel: sparse multivariate rational functions.

An :class:`Expr` is a quotient of multivariate polynomials over
arbitrary-precision rationals, kept in canonical form: numerator and
denominator coprime, denominator monic under the graded-lexicographic
monomial order induced by the global symbol order.  Two expressions are
equal as rational functions iff their canonical forms are identical, so
the zero test is simply ``numerator == 0``.

Symbols come in three kinds, totally ordered as

    base coordinates (t = x^0, then x^1..x^n)
  < jet coordinates u_{I,t}, ordered by (|I|+t, t, index word)
  < auxiliary indeterminates (the quartic form's xi's)

A monomial is one int, its exponent vector packed as sum e_s 2^(32 slot(s)),
where a symbol takes the next slot when it is interned: a product of
monomials is one integer add.  Slots follow the order in which the process
interns its symbols, so no order is read off the int: every walk over a
monomial's symbols decodes it (:func:`mono_decode`), and the graded order
(:func:`mono_sort_key`) compares the decoded symbols.

Only +, -, *, / and integer powers are supported; no radicals or
transcendental functions.  That restriction is what keeps equality (and
hence every downstream linear-algebra step) decidable.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence, Union

__all__ = [
    "BASE", "JET", "AUX",
    "DivisionByZeroExpr", "NotPolynomialIn", "MAX_TERMS",
    "Symbol",
    "base_var", "jet_var", "aux_var",
    "TIME",
    "MAX_EXPONENT", "ExponentOverflow",
    "Monomial", "mono_encode", "mono_decode", "mono_sort_key",
    "Poly", "poly_gcd", "divexact",
    "Expr", "ZERO", "ONE",
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
AUX = "aux"

_KIND_RANK = {BASE: 0, JET: 1, AUX: 2}

# A monomial packs the exponent of each symbol into a field of _WIDTH bits
# at the symbol's slot (see below).  A field's top bit is its guard, so an
# exponent is at most MAX_EXPONENT.
_WIDTH = 32
_TOP = 1 << (_WIDTH - 1)
_FIELD = (1 << _WIDTH) - 1
MAX_EXPONENT = _TOP - 1

# The slot registry.  Every symbol is interned, on its order key (jets and
# base coordinates) or on its index and name (auxiliary symbols), and takes
# the next slot when it is, under one lock: _SYMBOLS[slot] is the symbol,
# and _GUARD has the guard bit of every slot taken so far.  Slots follow
# the order in which a process interns its symbols, so no order is read
# off them.
_INTERNED: dict[tuple, "Symbol"] = {}
_SYMBOLS: list["Symbol"] = []
_GUARD = 0
_INTERNING = threading.Lock()


class Symbol(tuple):
    """A coordinate in the global symbol order.

    The value of a symbol is its order key: ``(1, order, time_power,
    spatial)`` for a jet, ``(kind rank, index)`` for every other kind.  So
    hashing, equality and ordering are those of a tuple of ints, run in C
    and free of the hash seed, and the display ``name`` is not part of
    identity.  ``kind``, ``index``, ``name``, ``_rkey`` (the key reversed,
    for :func:`mono_sort_key`), ``slot`` and ``unit`` (the monomial of the
    symbol itself, 2^(32 slot)) are read-only attributes; a jet symbol,
    made only by :func:`jet_var`, also has ``order``, ``time_power`` and
    ``spatial`` (the sorted index word), read off its key.  Every symbol is
    interned: the constructor returns the one symbol of a kind, index and
    name.
    """

    def __new__(cls, kind: str, index: int = 0, name: str = "") -> "Symbol":
        if kind == JET:
            raise ValueError("jet symbols are made by jet_var")
        name = name or (f"w{index}" if kind == AUX else f"x{index}" if index else "t")
        s = _INTERNED.get((kind, index, name))
        if s is None:
            key = (_KIND_RANK[kind], index)
            s = _intern((kind, index, name), key, (-key[0], -index),
                        kind=kind, index=index, name=name)
        return s

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"cannot assign to {attr!r}: symbols are immutable")

    def __reduce__(self):
        # rebuilt by a constructor, not from the key tuple, so it comes back
        # as the interned symbol
        if self.kind == JET:
            return jet_var, (self.spatial, self.time_power)
        return Symbol, (self.kind, self.index, self.name)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


def _intern(ident: tuple, key: tuple, rkey: tuple, **attrs) -> Symbol:
    """The symbol interned on ident, built with this order key and these
    attributes, and given the next slot, if it is not interned yet."""
    global _GUARD
    with _INTERNING:
        s = _INTERNED.get(ident)
        if s is None:
            slot = len(_SYMBOLS)
            s = tuple.__new__(Symbol, key)
            vars(s).update(attrs, _rkey=rkey, slot=slot, unit=1 << (_WIDTH * slot))
            _SYMBOLS.append(s)
            _GUARD |= _TOP << (_WIDTH * slot)
            _INTERNED[ident] = s
    return s


def base_var(a: int) -> Symbol:
    """Base coordinate x^a; a = 0 is time."""
    if a < 0:
        raise ValueError("base index must be >= 0")
    return Symbol(BASE, a)


def jet_var(spatial: Iterable[int] = (), time_power: int = 0) -> Symbol:
    """Jet coordinate u_{I,t} for D_I D_t^time_power u; ``jet_var()`` is u
    itself.  Only multiplicities matter in the index word I, e.g. (1, 1, 2)
    is two derivatives in x^1 and one in x^2: it is sorted, and the symbol
    interned on the sorted word, so equal words in any order return the
    same symbol."""
    word = tuple(sorted(spatial))
    s = _INTERNED.get((word, time_power))
    if s is None:
        if word and word[0] < 1:
            raise ValueError("spatial indices are 1-based")
        if time_power < 0:
            raise ValueError("time_power must be non-negative")
        order = len(word) + time_power
        name = "u_" + "".join(map(str, word)) + "t" * time_power if order else "u"
        # equal order and time power imply equal word length, so negating
        # elementwise reverses the order of the keys
        s = _intern((word, time_power), (1, order, time_power, word),
                    (-1, -order, -time_power, tuple(-i for i in word)),
                    kind=JET, index=0, name=name, order=order, time_power=time_power,
                    spatial=word)
    return s


def aux_var(k: int, name: str = "") -> Symbol:
    """Auxiliary indeterminate k, printed as ``name`` (default w<k>);
    interned on k and the name."""
    return Symbol(AUX, k, name)


TIME = base_var(0)


# ---------------------------------------------------------------------------
# Monomials: packed exponent vectors, one int each
# ---------------------------------------------------------------------------

Monomial = int  # sum of e * s.unit over the factors s^e, so 0 is the monomial 1

_ONE_MONO: Monomial = 0


class ExponentOverflow(ValueError):
    """A monomial exponent would pass MAX_EXPONENT, into the guard bit of its
    field."""

    def __init__(self) -> None:
        super().__init__(f"a monomial exponent would pass {MAX_EXPONENT} = 2^31 - 1")


def mono_encode(factors: Iterable[tuple[Symbol, int]]) -> Monomial:
    """The monomial of these (symbol, exponent) factors, each exponent
    positive; a repeated symbol's exponents add, and a total past
    MAX_EXPONENT raises ExponentOverflow."""
    m = 0
    for s, e in factors:
        if e < 1:
            raise ValueError(f"exponent {e} of {s} is not positive")
        if e > MAX_EXPONENT:
            raise ExponentOverflow()
        m += e * s.unit
        if m & _GUARD:
            raise ExponentOverflow()
    return m


_FIELDS: dict[Monomial, tuple] = {}  # m -> _fields(m); emptied at MAX_TERMS entries


def _slot_fields(m: Monomial):
    """The (slot, exponent) pairs of the nonzero fields of m, lowest slot
    first."""
    rest = m
    while rest:  # the lowest nonzero field, one at a time
        slot = ((rest & -rest).bit_length() - 1) // _WIDTH
        e = rest >> (_WIDTH * slot) & _FIELD
        yield slot, e
        rest -= e << (_WIDTH * slot)


def _fields(m: Monomial) -> tuple[tuple[int, int], ...]:
    """The (slot, exponent) pairs of the factors of m, in the order of their
    symbols, not of the slots, which depends on the process: the one
    decoding of a monomial, which every walk over its symbols runs,
    memoized by m.  The pairs hold only ints, so the collector does not
    track them."""
    got = _FIELDS.get(m)
    if got is None:
        fields = list(_slot_fields(m))
        if len(fields) > 1:
            fields.sort(key=lambda field: _SYMBOLS[field[0]])
        got = tuple(fields)
        if len(_FIELDS) >= MAX_TERMS:
            _FIELDS.clear()
        _FIELDS[m] = got
    return got


def mono_decode(m: Monomial) -> tuple[tuple[Symbol, int], ...]:
    """The (symbol, exponent) factors of m, in symbol order: the inverse of
    :func:`mono_encode`."""
    return tuple([(_SYMBOLS[slot], e) for slot, e in _fields(m)])


def _exponent(m: Monomial, s: Symbol) -> int:
    """The exponent of s in m."""
    return m >> (_WIDTH * s.slot) & _FIELD


def _shifted(terms: dict, m: Monomial) -> dict:
    """The terms of m p, for the polynomial p with these terms: a new dict.
    Raises ExponentOverflow rather than carry into the next field."""
    out = {}
    for k, c in terms.items():
        k += m
        if k & _GUARD:
            raise ExponentOverflow()
        out[k] = c
    return out


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    """True iff m1 divides m2."""
    return all(m2 >> (_WIDTH * slot) & _FIELD >= e for slot, e in _fields(m1))


def mono_gcd(m1: Monomial, m2: Monomial) -> Monomial:
    return sum(min(e, m2 >> (_WIDTH * slot) & _FIELD) << (_WIDTH * slot)
               for slot, e in _fields(m1))


_PRINTED: dict[tuple, tuple] = {}  # (m, name) -> _printed(m, name); emptied at MAX_TERMS


def _printed(m: Monomial, name: Callable[[Symbol], str] = str) -> tuple:
    """The graded lexicographic sort key of m, (degree, reversed key of the
    first symbol, its exponent, ...) over the decoded factors, so free of
    the slots, with m's text under the namer appended; memoized by m and
    the namer.  Distinct monomials of one degree differ before either key
    ends, so the text never decides.  A symbol's text is that of its own
    monomial, so a namer names each symbol once; one that raises leaves no
    entry."""
    got = _PRINTED.get((m, name))
    if got is None:
        key, texts = [0], []
        for slot, e in _fields(m):
            s = _SYMBOLS[slot]
            key[0] += e
            key += (s._rkey, e)
            text = name(s) if m == s.unit else _printed(s.unit, name)[-1]
            texts.append(f"{text}^{e}" if e > 1 else text)
        key.append("*".join(texts))
        got = tuple(key)
        if len(_PRINTED) >= MAX_TERMS:
            _PRINTED.clear()
        _PRINTED[(m, name)] = got
    return got


def mono_sort_key(m: Monomial) -> tuple:
    """Sort key of the graded lexicographic order (see :func:`_printed`)."""
    return _printed(m)


# ---------------------------------------------------------------------------
# Raw terms: the dicts monomial -> nonzero coefficient that every layer
# accumulates into in place
# ---------------------------------------------------------------------------

def _add_terms(out: dict, terms: dict, factor=None) -> None:
    """out += p, or out += factor p, in place, for the polynomial p with
    these terms; a coefficient that sums to 0 is deleted.  With a factor
    every coefficient is multiplied, even by 1, so a ``Fraction`` factor
    gives ``Fraction`` coefficients."""
    for m, c in terms.items():
        if factor is not None:
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


def _add_product(out: dict, a: dict, b: dict) -> None:
    """out += p q in place, for the polynomials p and q with terms a and b.
    A product of monomials is the sum of their ints; a new key is checked
    against the guard bits, and raises ExponentOverflow rather than carry
    into the next field (a key already in out is guard-free)."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            c = c1 * c2
            acc = out.get(m)
            if acc is None:
                if m & _GUARD:
                    raise ExponentOverflow()
                out[m] = c
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]


def _cleared(polys: Sequence[dict]) -> tuple[int, list[dict]]:
    """(d, [the terms of d p for each p]) for the polynomials p with these
    terms, d > 0 the lcm of the denominators of all their coefficients, so
    each d p has ``int`` coefficients."""
    d = math.lcm(*(c.denominator for p in polys for c in p.values()))
    return d, [{m: c.numerator * (d // c.denominator) for m, c in p.items()}
               for p in polys]


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
    def one() -> "Poly":
        return Poly({_ONE_MONO: _F1})

    @staticmethod
    def const(c: Rationalish) -> "Poly":
        c = Fraction(c)
        return Poly({_ONE_MONO: c}) if c else Poly()

    @staticmethod
    def variable(s: Symbol) -> "Poly":
        return Poly({s.unit: _F1})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    __hash__ = None  # mutable dict inside

    def __reduce__(self):
        # an int monomial is read through the slots of this process, so a
        # polynomial is pickled by its decoded factors
        return _poly_of, ([(mono_decode(m), c) for m, c in self.terms.items()],)

    def symbols(self) -> set[Symbol]:
        # a field of the monomials' bitwise OR is nonzero iff one of them holds its symbol
        return {_SYMBOLS[slot] for slot, _ in _slot_fields(reduce(or_, self.terms, 0))}

    def degree_of(self, s: Symbol) -> int:
        return max((_exponent(m, s) for m in self.terms), default=0)

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under the graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=mono_sort_key)
        return m, self.terms[m]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return [(m, self.terms[m]) for m in
                sorted(self.terms, key=mono_sort_key, reverse=True)]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        """self - other in one pass over other's terms (no negated copy)."""
        if not other.terms:
            return self
        out = dict(self.terms)
        _add_terms(out, other.terms, -1)
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        _add_product(out, self.terms, other.terms)
        return Poly(out)

    def __rmul__(self, c: int) -> "Poly":
        """c p for an int c, which is written on the left."""
        return self.scale(c)

    def scale(self, c: Rationalish) -> "Poly":
        if not c:
            return Poly()
        return Poly({m: k * c for m, k in self.terms.items()})

    def mono_shift(self, m: Monomial) -> "Poly":
        if not m:
            return self
        return Poly(_shifted(self.terms, m))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("Poly power must be non-negative")
        result = Poly({_ONE_MONO: 1})  # an int unit keeps int coefficients int
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus / evaluation ------------------------------------------------

    def diff(self, s: Symbol) -> "Poly":
        """dp/ds; lowering the exponent of s is injective on the monomials
        that hold s, so no two terms collide."""
        out: dict = {}
        shift, unit = _WIDTH * s.slot, s.unit
        for m, c in self.terms.items():
            e = m >> shift & _FIELD
            if e:
                out[m - unit] = c * e
        return Poly(out)

    def eval_fraction(self, bindings: Mapping[Symbol, Rationalish]) -> Fraction:
        total = _F0
        for m, c in self.terms.items():
            v = c
            for s, e in mono_decode(m):
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
            for s, e in mono_decode(m):
                term = term * power(s, e)
            total = total + term
        return total

    def coefficients_in(self, varset: frozenset) -> dict[Monomial, "Poly"]:
        mask = sum(s.unit for s in varset) * _FIELD  # the fields of varset
        out: dict[Monomial, dict] = {}
        for m, c in self.terms.items():
            inside = m & mask
            out.setdefault(inside, {})[m - inside] = c
        return {k: Poly(v) for k, v in out.items()}

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _poly_of(items: list) -> Poly:
    """The Poly of (factors, coefficient) pairs: unpickling."""
    return Poly({mono_encode(factors): c for factors, c in items})


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
        m = pm - qm
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
        deg = _exponent(m, v)
        out.setdefault(deg, {})[m - deg * v.unit] = c
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
        shift = Poly({(dr - db) * v.unit: _F1}) if dr > db else _ONE_POLY
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
    if len(p.terms) == 1 or len(q.terms) == 1:  # a term shares only a monomial
        return Poly({mono_gcd(_mono_content(p), _mono_content(q)): _F1})
    mp, mq = _mono_content(p), _mono_content(q)
    common = mono_gcd(mp, mq)
    p1 = Poly({m - mp: c for m, c in p.terms.items()}) if mp else p
    q1 = Poly({m - mq: c for m, c in q.terms.items()}) if mq else q
    g = _gcd_primitive(p1, q1)
    if common:
        g = g.mono_shift(common)
    return _monic(g)


def _cancelled(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """p and q divided by their gcd, for a nonzero q; no gcd is taken when
    q is 1."""
    if q.terms != _ONE_POLY.terms:
        g = poly_gcd(p, q)
        if g.terms != _ONE_POLY.terms:
            return divexact(p, g), divexact(q, g)
    return p, q


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
        return Expr._canonical(*_cancelled(num, den))

    @staticmethod
    def _canonical(num: Poly, den: Poly) -> "Expr":
        """num / den for coprime parts, scaled to a monic denominator."""
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
        if self.is_zero or other.is_zero:
            return ZERO
        # (a/b)(c/d) with coprime parts: gcd(a c, b d) = gcd(a, d) gcd(c, b),
        # two smaller gcds, and none against a denominator 1
        a, d = _cancelled(self.num, other.den)
        c, b = _cancelled(other.num, self.den)
        return Expr._canonical(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZeroExpr("denominator is identically zero")
        # (a/b)/(c/d) = (a d)/(b c) with coprime parts: gcd(a d, b c) =
        # gcd(a, c) gcd(d, b), as in __mul__
        a, c = _cancelled(self.num, other.num)
        d, b = _cancelled(other.den, self.den)
        return Expr._canonical(a * d, b * c)

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
        return _derived(self, lambda p: p.diff(s))

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

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        return f"Expr({format_expr(self)})"


ZERO = Expr(Poly(), Poly.one(), _raw=True)
ONE = Expr(Poly.one(), Poly.one(), _raw=True)


def _derived(e: Expr, derive: Callable[[Poly], Poly]) -> Expr:
    """D e for the derivation D of polynomials that ``derive`` computes,
    extended to the quotient e by the quotient rule: the package's one
    quotient rule.  A denominator that D sends to 0 is kept as it is."""
    dn = derive(e.num)
    if e.is_polynomial:
        return Expr._make(dn, _ONE_POLY)
    num, den = e.num, e.den
    dd = derive(den)
    if dd.is_zero:
        return Expr._make(dn, den)
    return Expr._make(dn * den - num * dd, den * den)


def _coerce(x) -> Expr | None:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.const(x)
    return None


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_poly(p: Poly, name: Callable[[Symbol], str] = str) -> str:
    if p.is_zero:
        return "0"
    # distinct monomials have distinct keys, so the rows sort by key alone
    rows = [(_printed(m, name), c) for m, c in p.terms.items()]
    rows.sort(reverse=True)
    out = []
    for key, c in rows:
        text, coeff = key[-1], str(c)  # "1" and "-1" exactly for an int or Fraction 1, -1
        piece = (coeff if not key[0] else text if coeff == "1"
                 else "-" + text if coeff == "-1" else f"{coeff}*{text}")
        if out:
            piece = " - " + piece[1:] if piece[:1] == "-" else " + " + piece
        out.append(piece)
    return "".join(out)


def format_expr(e: Expr, name: Callable[[Symbol], str] = str) -> str:
    if e.is_polynomial:
        return format_poly(e.num, name)
    return f"({format_poly(e.num, name)})/({format_poly(e.den, name)})"
