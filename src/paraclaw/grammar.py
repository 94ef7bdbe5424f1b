"""The problem-file format: lexer, parser and expression printer.

Input grammar (whitespace insignificant)::

    file     := "n" "=" INT ";" "u_t" "=" expr (";" option)*
    expr     := term (("+"|"-") term)*
    term     := unary (("*"|"/") unary)*
    unary    := ["-"] factor
    factor   := atom ["^" INT]
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
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .expr import (
    BASE, JET, MAX_EXPONENT, MAX_TERMS, ExponentOverflow, Expr, Poly, Symbol, _add_product,
    _add_terms, _fields, base_var, format_expr, jet_var,
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
        self.line, self.col, self.expected = line, col, expected
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

# \s matches exactly the characters for which str.isspace() is true.
_TOKEN = re.compile(r"(\s+)|([0-9]+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()=;])|(.)",
                    re.DOTALL)
_KINDS = (None, None, "num", "name", None)


def _tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """The tokens as (kind, text, line, column) tuples.  The kind is "num",
    "name", "end", or the operator character itself."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        group, text = match.lastindex, match.group()
        if group == 1:
            newline = text.rfind("\n")
            if newline >= 0:
                line += text.count("\n")
                line_start = match.start() + newline + 1
            continue
        col = match.start() - line_start + 1
        if group == 5:
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append((_KINDS[group] or text, text, line, col))
    tokens.append(("end", "", line, len(source) - line_start + 1))
    return tokens


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
    long = [c for c in coefficients
            if c.numerator.bit_length() > cap or c.denominator.bit_length() > cap]
    if not long:
        return False
    bound = 10 ** limit
    return any(abs(c.numerator) >= bound or c.denominator >= bound for c in long)


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
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = n
        self.depth = 0
        self.work = 0  # term-pair products so far, bounded by MAX_TERMS

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind.upper()
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], tok[3], (want,))
        self.pos += 1
        return tok

    def number(self, tok: tuple) -> int:
        try:
            return int(tok[1])
        except ValueError:  # past sys.get_int_max_str_digits
            raise ParseError(f"number literal longer than {sys.get_int_max_str_digits()} "
                             "digits", tok[2], tok[3]) from None

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> "ProblemFile":
        self.expect("name", "n")
        self.expect("=")
        ntok = self.expect("num")
        n = self.number(ntok)
        if not 1 <= n <= 9:
            raise ParseError("n must be between 1 and 9", ntok[2], ntok[3])
        self.n = n
        self.expect(";")
        lhs = self.expect("name")
        if lhs[1] != "u_t":
            raise ParseError(f"unexpected {lhs[1]!r}", lhs[2], lhs[3], ("u_t",))
        self.expect("=")
        G = _as_expr(self.parse_expr())
        ref: dict[Symbol, Fraction] = {}
        options: dict[str, int] = {}
        while self.peek()[0] == ";":
            self.advance()
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
                raise ParseError(f"repeated clause 'ref {ident[1]}'", tok[2], tok[3])
            self.expect("=")
            ref[sym] = self.parse_rational()
        elif tok[1] in ("jet_degree", "base_degree", "order"):
            if tok[1] in options:
                raise ParseError(f"repeated clause {tok[1]!r}", tok[2], tok[3])
            self.expect("=")
            val = self.expect("num")
            options[tok[1]] = self.number(val)
        else:
            raise ParseError(f"unknown option {tok[1]!r}", tok[2], tok[3],
                             ("ref", "jet_degree", "base_degree", "order"))

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        p = self.number(self.expect("num"))
        if self.peek()[0] == "/":
            self.advance()
            qtok = self.expect("num")
            q = self.number(qtok)
            if q == 0:
                raise ParseError("zero denominator", qtok[2], qtok[3])
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
        factor or divisor scales the coefficients, two term dicts multiply
        as raw terms, and any other pair multiplies or divides as Expr.
        Each operator is charged the term pairs of its Poly products before
        it runs, and its built result is checked by the digit-limit rule."""
        acc = self.parse_unary()
        tokens = self.tokens
        while (op := tokens[self.pos])[0] == "*" or op[0] == "/":
            self.pos += 1
            f = self.parse_unary()
            acc_num, acc_den = _sizes(acc)
            f_num, f_den = _sizes(f)
            if op[0] == "*":
                self.charge(op, acc_num * f_num + acc_den * f_den)
            elif f_num:
                self.charge(op, acc_num * f_den + acc_den * f_num)
            else:
                raise ParseError("division by zero", op[2], op[3])
            if f_num == 1 and type(f) is dict and 0 in f:
                # c * q keeps an Expr's parts coprime and its denominator monic
                q = f[0] if op[0] == "*" else Fraction(1, f[0])
                acc = {m: c * q for m, c in acc.items()} if type(acc) is dict \
                    else Expr(acc.num.scale(q), acc.den, _raw=True)
            else:
                try:
                    if op[0] == "/":
                        acc = _as_expr(acc) / _as_expr(f)
                    elif type(acc) is dict and type(f) is dict:
                        product = {}
                        _add_product(product, acc, f)
                        acc = product
                    else:
                        acc = _as_expr(acc) * _as_expr(f)
                except ExponentOverflow:
                    self.exponent_too_large("product" if op[0] == "*" else "quotient", op)
            if _too_long(acc):
                self.too_long("product" if op[0] == "*" else "quotient", op)
        return acc

    def charge(self, op: tuple, pairs: int) -> None:
        """Add the term pairs of the polynomial products about to run to the
        parse's running count; past MAX_TERMS the input is a ParseError."""
        self.work += pairs
        if self.work > MAX_TERMS:
            raise ParseError(f"expression expands past MAX_TERMS = {MAX_TERMS} "
                             "term products", op[2], op[3])

    def too_long(self, what: str, op: tuple) -> None:
        raise ParseError(f"{what} has a coefficient longer than "
                         f"{sys.get_int_max_str_digits()} digits", op[2], op[3])

    def exponent_too_large(self, what: str, op: tuple) -> None:
        raise ParseError(f"{what} has an exponent past {MAX_EXPONENT} = 2^31 - 1",
                         op[2], op[3]) from None

    def parse_unary(self) -> dict | Expr:
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            f = self.parse_factor()
            return {m: -c for m, c in f.items()} if type(f) is dict else -f
        return self.parse_factor()

    def parse_factor(self) -> dict | Expr:
        atom = self.parse_atom()
        op = self.tokens[self.pos]
        if op[0] != "^":
            return atom
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

    def parse_atom(self) -> dict | Expr:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "num":
            self.pos += 1
            c = self.number(tok)
            return {0: c} if c else {}
        if kind == "name":
            self.pos += 1
            return {self.symbol_from_name(tok).unit: 1}
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok[2], tok[3])
            self.pos += 1
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {tok[1] or 'end of input'!r}",
                         tok[2], tok[3], ("RATIONAL", "ident", "("))

    def symbol_from_name(self, tok: tuple) -> Symbol:
        n = self.n
        _, text, line, col = tok
        if text == "t":
            return base_var(0)
        if text == "x":
            if n != 1:
                raise ParseError("'x' alone is legal only when n = 1", line, col)
            return base_var(1)
        if text.startswith("x") and len(text) == 2 and text[1].isdigit():
            idx = int(text[1])
            if not 1 <= idx <= n:
                raise IndexOutOfRange(f"spatial index {idx} out of range 1..{n}",
                                      line, col)
            return base_var(idx)
        if text == "u":
            return jet_var()
        if text.startswith("u_"):
            suffix = text[2:]
            if "t" in suffix:
                raise TimeDerivativeOnRHS(
                    f"time derivative {text!r} is not allowed here", line, col)
            if suffix and all(c == "x" for c in suffix):
                if n != 1:
                    raise ParseError("u_x... aliases are legal only when n = 1",
                                     line, col)
                return jet_var((1,) * len(suffix))
            if suffix.isdigit():
                indices = tuple(int(c) for c in suffix)
                bad = [i for i in indices if not 1 <= i <= n]
                if bad:
                    raise IndexOutOfRange(
                        f"spatial index {bad[0]} out of range 1..{n}", line, col)
                return jet_var(indices)
        raise ParseError(f"unknown identifier {text!r}", line, col,
                         ("t", "x", "u", "u_<indices>"))


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

def _source_name(n: int):
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

