"""The problem-file format: lexer, parser and expression printer.

Input grammar (whitespace insignificant)::

    file     := "n" "=" INT ";" "u_t" "=" expr (";" option)*
    expr     := term (("+"|"-") term)*
    term     := operand (("*"|"/") operand)*
    operand  := ["-"] atom ["^" INT]
    atom     := RATIONAL | ident | "(" expr ")"
    ident    := "t" | "x" | "x"DIGIT | "u" | "u_" indices
    indices  := DIGIT+ | "x"+          # u_12 for n>=2; u_x, u_xx aliases for n=1
    option   := "ref" ident "=" RATIONAL
              | "jet_degree" "=" INT | "base_degree" "=" INT | "order" "=" INT

DIGIT is 0-9 and INT is DIGIT+; names are ASCII letters, digits and "_".
Whitespace is any character for which str.isspace() is true, and "\n" is
the one line break; any other character is a ParseError at its line and
column.  Implicit multiplication is not supported.  "p/q" rational
literals fold to exact fractions through the division operator.  Any
u_t-like token on the right-hand side is rejected with TimeDerivativeOnRHS.
Each option clause may appear once (a "ref" clause once per jet, whatever
alias names it); a repeated one is a ParseError at the repeated clause.
Parentheses nest at most MAX_NESTING deep: deeper input is a ParseError,
not a RecursionError.  Each "*", "/" and "^" is charged its term-pair
products before it runs ("^k" is k - 1 multiplications, and nothing on a
constant, whose power the digit limit bounds); a parse whose running total
would pass expr.MAX_TERMS is a ParseError, so no input expands without
bound.  So is a number literal longer than the digit
limit sys.get_int_max_str_digits(), and one digit-limit rule bounds
coefficients: each "*", "/", "^", "+" and "-" builds its result, and a
numerator or denominator of it at or past 10^limit is a ParseError at that
operator, on polynomials and rational functions alike.  So, at the default
limit of 4300 digits, "(u + 10^2200)*10^2200*2" is refused at its first
"*", and "(u + 10^2200)*10^2200/10^2200" too, although the division would
bring the coefficient back.  Every operand is already within the limit, so
nothing is built with much more than twice its digits; only a power, whose
size grows with its exponent, is refused before it is built when its bit
lengths alone pass the limit.  Exponents are bounded by the monomial
fields of paraclaw.expr: an exponent past expr.MAX_EXPONENT = 2^31 - 1 is a
ParseError at the operator that would build it, so "((u^99)^99)^99" is
u^970299 but "((u^2048)^1024)^1024" is refused at its last "^".

A polynomial is read straight into raw terms, and an integral coefficient
is an ``int`` (any other a ``Fraction``), so ``ProblemFile.G`` may hold
``int`` coefficients.  Term dicts multiply as raw terms, one operator at a
time; Expr arithmetic runs only from a division by a non-constant on.

A valid input pays only for building its value: a token keeps its offset,
and a ParseError finds its line and column from it only when raised; a
name is resolved once per (name, n) per process, by one memo bounded by
expr.MAX_TERMS, which keeps no illegal name.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .expr import (
    BASE, JET, MAX_EXPONENT, MAX_TERMS, ExponentOverflow, Expr, Poly, Symbol, _add_product,
    _add_terms, _fields, _shifted, base_var, format_expr, jet_var,
)
from .parabolic import EvolutionEquation

__all__ = [
    "MAX_NESTING", "ParseError", "IndexOutOfRange", "TimeDerivativeOnRHS",
    "ProblemFile", "parse", "parse_expression", "expr_to_source",
]

MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0,
                 expected: tuple[str, ...] = ()):
        self.message, self.line, self.col, self.expected = message, line, col, expected
        where = f" at {line}:{col}" if line else ""
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message}{where}{hint}")


class IndexOutOfRange(ParseError):
    """A spatial index digit outside 1..n."""


class TimeDerivativeOnRHS(ParseError):
    """A u_t-like jet token appeared on the right-hand side."""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One match is the whitespace (\s: exactly the str.isspace() characters) and
# the token: an operator, a name, a number, or another character, refused.
# Trailing whitespace is not searched: each start in it would scan the rest
# of the run, so a long run would take quadratic time.
_TOKEN = re.compile(r"\s*(?:([-+*/^()=;])|([A-Za-z][A-Za-z0-9_]*)|([0-9]+)|(\S))")
_KINDS = (None, None, "name", "num")


def _position(source: str, offset: int) -> tuple[int, int]:
    """The line and column of an offset into the source ("\\n" breaks lines)."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens, the last one "end" at the end of the
    source; the kind is "num", "name", "end" or the operator character."""
    tokens = []
    for match in _TOKEN.finditer(source, 0, len(source.rstrip())):
        group = match.lastindex
        text, offset = match[group], match.start(group)
        if group == 4:
            raise ParseError(f"unexpected character {text!r}", *_position(source, offset))
        tokens.append((text if group == 1 else _KINDS[group], text, offset))
    tokens.append(("end", "", len(source)))
    return tokens


@lru_cache(maxsize=MAX_TERMS)
def _symbol(text: str, n: int | None) -> Symbol:
    """The symbol that a name denotes in dimension n, resolved once per
    (text, n) per process.  An illegal name raises a ParseError with no
    position, which is not cached; the parser raises it again at the name."""
    if text == "t":
        return base_var(0)
    if text == "x":
        if n != 1:
            raise ParseError("'x' alone is legal only when n = 1")
        return base_var(1)
    if text.startswith("x") and len(text) == 2 and text[1].isdigit():
        idx = int(text[1])
        if not 1 <= idx <= n:
            raise IndexOutOfRange(f"spatial index {idx} out of range 1..{n}")
        return base_var(idx)
    if text == "u":
        return jet_var()
    if text.startswith("u_"):
        suffix = text[2:]
        if "t" in suffix:
            raise TimeDerivativeOnRHS(f"time derivative {text!r} is not allowed here")
        if suffix and all(c == "x" for c in suffix):
            if n != 1:
                raise ParseError("u_x... aliases are legal only when n = 1")
            return jet_var((1,) * len(suffix))
        if suffix.isdigit():
            for i in map(int, suffix):
                if not 1 <= i <= n:
                    raise IndexOutOfRange(f"spatial index {i} out of range 1..{n}")
            return jet_var(map(int, suffix))
    raise ParseError(f"unknown identifier {text!r}", expected=("t", "x", "u", "u_<indices>"))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# A parsed value is a polynomial, as a dict of raw terms {monomial: nonzero
# int or Fraction} that the parser owns and may change in place, or else a
# rational function, as an Expr.

def _too_long(value) -> bool:
    """Some numerator or denominator in the value -- a coefficient, a term
    dict or an Expr -- is at least 10^limit, for the digit limit
    sys.get_int_max_str_digits() (0 is no limit), so Python would refuse
    to print it.  A coefficient of at most 3 * limit bits is short, since
    2^(3 limit) <= 10^limit, so 10^limit is built only for a longer one."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return False
    if type(value) is dict:
        coefficients = value.values()
    elif type(value) is Expr:
        coefficients = (*value.num.terms.values(), *value.den.terms.values())
    else:
        coefficients = (value,)
    cap = 3 * limit
    for c in coefficients:
        if type(c) is int:
            if c.bit_length() > cap:
                break
        elif c.numerator.bit_length() > cap or c.denominator.bit_length() > cap:
            break
    else:
        return False
    bound = 10 ** limit
    return any(abs(c.numerator) >= bound or c.denominator >= bound for c in coefficients)


def _power_too_long(c, k: int) -> bool:
    """The coefficient c^k is too long by bit lengths alone, decided before
    it is built: with b > 1 the bit length of the longer of c's numerator
    and denominator, that part of c^k is at least 2^(k(b-1)).  A power that
    passes has k(b-1) below the bit length of 10^limit, so k b is at most
    twice that, and _too_long decides it once built."""
    limit = sys.get_int_max_str_digits()
    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
    return bool(limit) and bits > 1 and k * (bits - 1) >= (10 ** limit).bit_length()


def _as_expr(value: dict | Expr) -> Expr:
    """The value as an Expr; an integral coefficient becomes an int."""
    if type(value) is not dict:
        return value
    return Expr(Poly({m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for m, c in value.items()}), Poly.one(), _raw=True)


def _sizes(value: dict | Expr) -> tuple[int, int]:
    """The terms of the numerator and of the denominator."""
    if type(value) is dict:
        return len(value), 1
    return len(value.num.terms), len(value.den.terms)


class _Parser:
    def __init__(self, source: str, n: int | None = None):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = n
        self.depth = 0
        self.work = 0  # term-pair products so far, bounded by MAX_TERMS

    def fail(self, message: str, tok: tuple, expected: tuple[str, ...] = (),
             error: type = ParseError):
        """Raise the error at the token's line:col, found from its offset only here."""
        raise error(message, *_position(self.source, tok[2]), expected) from None

    def expect(self, kind: str, text: str | None = None) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind.upper()
            self.fail(f"unexpected {tok[1]!r}", tok, (want,))
        self.pos += 1
        return tok

    def number(self, tok: tuple) -> int:
        try:
            return int(tok[1])
        except ValueError:  # past sys.get_int_max_str_digits
            self.fail(f"number literal longer than {sys.get_int_max_str_digits()} digits", tok)

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> "ProblemFile":
        self.expect("name", "n")
        self.expect("=")
        ntok = self.expect("num")
        n = self.number(ntok)
        if not 1 <= n <= 9:
            self.fail("n must be between 1 and 9", ntok)
        self.n = n
        self.expect(";")
        lhs = self.expect("name")
        if lhs[1] != "u_t":
            self.fail(f"unexpected {lhs[1]!r}", lhs, ("u_t",))
        self.expect("=")
        G = _as_expr(self.parse_expr())
        ref: dict[Symbol, Fraction] = {}
        options: dict[str, int] = {}
        while self.tokens[self.pos][0] == ";":
            self.pos += 1
            self.parse_option(ref, options)
        self.expect("end")
        return ProblemFile(n=n, G=G, reference_jet=ref,
                           jet_degree=options.get("jet_degree"),
                           base_degree=options.get("base_degree"),
                           max_jet_order=options.get("order"))

    def parse_option(self, ref: dict, options: dict) -> None:
        tok = self.expect("name")
        if tok[1] == "ref":
            ident = self.expect("name")
            sym = self.symbol_from_name(ident)
            if sym in ref:
                self.fail(f"repeated clause 'ref {ident[1]}'", tok)
            self.expect("=")
            ref[sym] = self.parse_rational()
        elif tok[1] in ("jet_degree", "base_degree", "order"):
            if tok[1] in options:
                self.fail(f"repeated clause {tok[1]!r}", tok)
            self.expect("=")
            val = self.expect("num")
            options[tok[1]] = self.number(val)
        else:
            self.fail(f"unknown option {tok[1]!r}", tok,
                      ("ref", "jet_degree", "base_degree", "order"))

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            sign = -1
        p = self.number(self.expect("num"))
        if self.tokens[self.pos][0] == "/":
            self.pos += 1
            qtok = self.expect("num")
            q = self.number(qtok)
            if q == 0:
                self.fail("zero denominator", qtok)
            return Fraction(sign * p, q)
        return Fraction(sign * p)

    def parse_expr(self) -> dict | Expr:
        """A sum; polynomial terms are added into the first one in place.
        Each "+" and "-" is checked by the digit-limit rule once built; on
        terms only the keys it added into, since a new key keeps the right-
        hand term's checked coefficient, so a long sum stays linear."""
        acc = self.parse_term()
        tokens = self.tokens
        while (op := tokens[self.pos])[0] == "+" or op[0] == "-":
            self.pos += 1
            rhs = self.parse_term()
            if type(acc) is dict and type(rhs) is dict:
                merged = [m for m in rhs if m in acc]
                _add_terms(acc, rhs, None if op[0] == "+" else -1)
                long = merged and _too_long({m: acc[m] for m in merged if m in acc})
            else:
                try:  # a sum of quotients multiplies their parts
                    acc = _as_expr(acc) + _as_expr(rhs) if op[0] == "+" else \
                        _as_expr(acc) - _as_expr(rhs)
                except ExponentOverflow:
                    self.exponent_too_large("sum", op)
                long = _too_long(acc)
            if long:
                self.too_long("sum", op)
        return acc

    def parse_term(self) -> dict | Expr:
        """A product, built at each "*" and "/" in turn: a one-term constant
        factor or divisor scales the coefficients, a monomial factor shifts
        the keys, two term dicts multiply as raw terms, and any other pair
        multiplies or divides as Expr.  Each operator is charged the term
        pairs of its Poly products before it runs, and its built result is
        checked by the digit-limit rule (a shift keeps checked coefficients)."""
        acc = self.parse_operand()
        tokens = self.tokens
        while (op := tokens[self.pos])[0] == "*" or op[0] == "/":
            self.pos += 1
            f = self.parse_operand()
            times = op[0] == "*"
            acc_num, acc_den = _sizes(acc)
            f_num, f_den = _sizes(f)
            if times:
                self.charge(op, acc_num * f_num + acc_den * f_den)
            elif f_num:
                self.charge(op, acc_num * f_den + acc_den * f_num)
            else:
                self.fail("division by zero", op)
            m, q = next(iter(f.items())) if f_num == 1 and type(f) is dict else (None, None)
            try:
                if m == 0:  # c * q keeps an Expr's parts coprime and its denominator monic
                    if type(acc) is not dict:
                        acc = Expr(acc.num.scale(q if times else Fraction(1, q)), acc.den,
                                   _raw=True)
                    else:
                        acc = {k: c * q if times else Fraction(c, q) for k, c in acc.items()}
                elif times and type(acc) is dict and type(f) is dict:
                    if type(q) is int and q == 1:  # m p keeps p's checked coefficients
                        acc = _shifted(acc, m)
                        continue
                    product = {}
                    _add_product(product, acc, f)
                    acc = product
                else:
                    acc = _as_expr(acc) * _as_expr(f) if times else _as_expr(acc) / _as_expr(f)
            except ExponentOverflow:
                self.exponent_too_large("product" if times else "quotient", op)
            if _too_long(acc):
                self.too_long("product" if times else "quotient", op)
        return acc

    def charge(self, op: tuple, pairs: int) -> None:
        """Add the term pairs of the polynomial products about to run to the
        parse's running count; past MAX_TERMS the input is a ParseError."""
        self.work += pairs
        if self.work > MAX_TERMS:
            self.fail(f"expression expands past MAX_TERMS = {MAX_TERMS} "
                      "term products", op)

    def too_long(self, what: str, op: tuple) -> None:
        self.fail(f"{what} has a coefficient longer than "
                  f"{sys.get_int_max_str_digits()} digits", op)

    def exponent_too_large(self, what: str, op: tuple) -> None:
        self.fail(f"{what} has an exponent past {MAX_EXPONENT} = 2^31 - 1", op)

    def parse_operand(self) -> dict | Expr:
        """["-"] atom ["^" INT], in one routine: the atom is a number, a name
        or a sum in parentheses, and its power is taken before the sign."""
        tokens = self.tokens
        tok = tokens[self.pos]
        negative = tok[0] == "-"
        if negative:
            self.pos += 1
            tok = tokens[self.pos]
        kind = tok[0]
        self.pos += 1  # an error raises at tok, and the parse ends there
        if kind == "name":
            value = {self.symbol_from_name(tok).unit: 1}
        elif kind == "num":
            c = self.number(tok)
            value = {0: c} if c else {}
        elif kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}", tok)
            self.depth += 1
            value = self.parse_expr()
            self.depth -= 1
            self.expect(")")
        else:
            self.fail(f"unexpected {tok[1] or 'end of input'!r}", tok,
                      ("RATIONAL", "ident", "("))
        if tokens[self.pos][0] == "^":
            value = self.power(value)
        if negative:
            return {m: -c for m, c in value.items()} if type(value) is dict else -value
        return value

    def power(self, atom: dict | Expr) -> dict | Expr:
        """The atom to the power INT, read from the "^" on."""
        op = self.tokens[self.pos]
        self.pos += 1
        k = self.number(self.expect("num"))
        if not k:
            return {0: 1}
        if type(atom) is Expr and atom.is_polynomial and len(atom.num.terms) <= 1:
            atom = atom.num.terms  # a single term, such as (u^2/u), has a closed-form power
        if type(atom) is dict and len(atom) <= 1:
            # each of the k - 1 products pairs the numerators' one term and
            # the denominators' one term; a constant's power is bounded by
            # the digit-limit rule instead
            if any(atom):
                self.charge(op, 2 * (k - 1))
            power = {}
            for am, ac in atom.items():
                # k times each exponent, each field checked before any carries
                if any(e * k > MAX_EXPONENT for _, e in _fields(am)):
                    self.exponent_too_large("power", op)
                if ac == 1 or ac == -1:
                    ac **= k
                elif _power_too_long(ac, k) or _too_long(ac := ac ** k):
                    self.too_long("power", op)
                power[am * k] = ac
            return power
        num, den = (Poly(atom), None) if type(atom) is dict else (atom.num, atom.den)
        p, q = num, den
        for _ in range(k - 1):
            self.charge(op, len(p.terms) * len(num.terms)
                        + (1 if den is None else len(q.terms) * len(den.terms)))
            try:
                p = p * num
                if den is not None:
                    q = q * den
            except ExponentOverflow:
                self.exponent_too_large("power", op)
            if _too_long(p.terms) or den is not None and _too_long(q.terms):
                self.too_long("power", op)
        # coprime parts stay coprime under powers, so no re-reduction
        return p.terms if den is None else Expr(p, q, _raw=True)

    def symbol_from_name(self, tok: tuple) -> Symbol:
        try:
            return _symbol(tok[1], self.n)
        except ParseError as exc:
            self.fail(exc.message, tok, exc.expected, type(exc))


@dataclass
class ProblemFile:
    """Parsed problem: dimension, right-hand side, reference jet, bounds."""

    n: int
    G: Expr
    reference_jet: dict[Symbol, Fraction] = field(default_factory=dict)
    jet_degree: int | None = None
    base_degree: int | None = None
    max_jet_order: int | None = None

    def equation(self) -> EvolutionEquation:
        return EvolutionEquation(self.n, self.G, self.reference_jet)

    def equation_text(self) -> str:
        return f"u_t = {expr_to_source(self.G, self.n)}"


def parse(source: str) -> ProblemFile:
    """Parse a problem file; raises ParseError (or a subclass) with position."""
    return _Parser(source).parse_file()


def parse_expression(source: str, n: int) -> Expr:
    """Parse a bare expression in the file grammar (for verify inputs, tests)."""
    p = _Parser(source, n)
    e = _as_expr(p.parse_expr())
    p.expect("end")
    return e


# ---------------------------------------------------------------------------
# Printing (grammar-conformant)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MAX_TERMS)
def _source_name(n: int):
    """The namer of the file grammar in dimension n: one object per n, so
    the printed monomials of expr are memoized per n."""
    def name(s: Symbol) -> str:
        if s.kind == BASE:
            if s.index == 0:
                return "t"
            return "x" if n == 1 else f"x{s.index}"
        if s.kind == JET:
            if s.time_power:
                raise ValueError(f"cannot print time jet {s} in the file grammar")
            if s.order == 0:
                return "u"
            if n == 1:
                return "u_" + "x" * len(s.spatial)
            return "u_" + "".join(map(str, s.spatial))
        raise ValueError(f"cannot print {s.kind} symbol {s} in the file grammar")
    return name


def expr_to_source(e: Expr, n: int) -> str:
    """Render an expression so that parse_expression re-reads it verbatim."""
    return format_expr(e, _source_name(n))

