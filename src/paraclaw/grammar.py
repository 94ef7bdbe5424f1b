"""The problem-file format: lexer, parser and printer.

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
Parentheses nest at most MAX_NESTING deep: deeper input is a ParseError,
not a RecursionError.  Each "*", "/" and "^" is charged its term-pair
products before it runs ("^k" is k - 1 multiplications); a parse whose
running total would pass expr.MAX_TERMS is a ParseError, so no input
expands without bound; so is a number literal longer than
sys.get_int_max_str_digits.

A polynomial is read straight into raw terms, and an integral coefficient
is an ``int`` (any other a ``Fraction``), so ``ProblemFile.G`` may hold
``int`` coefficients.  Multi-term factors multiply as Poly; Expr
arithmetic runs only from a division by a non-constant on.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .expr import (
    BASE, JET, MAX_TERMS, Expr, Monomial, Poly, Symbol, base_var, format_expr,
    jet_var, mono_mul,
)
from .parabolic import EvolutionEquation

__all__ = [
    "MAX_NESTING", "ParseError", "IndexOutOfRange", "TimeDerivativeOnRHS",
    "ProblemFile", "parse", "parse_expression", "print_problem", "expr_to_source",
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

def _as_expr(value: dict | Expr) -> Expr:
    """The value as an Expr; an integral coefficient becomes an int."""
    if type(value) is not dict:
        return value
    return Expr(Poly({m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for m, c in value.items()}), Poly.one(), _raw=True)


def _sizes(value: dict | Expr | None) -> tuple[int, int]:
    """The terms of the numerator and of the denominator; None is 1."""
    if value is None:
        return 1, 1
    if type(value) is dict:
        return len(value), 1
    return len(value.num.terms), len(value.den.terms)


def _product(c, m: Monomial, rest: dict | Expr | None) -> dict | Expr:
    """c * m * rest, for a coefficient c, a monomial m and rest None (1), a
    term dict or an Expr."""
    if not c:
        return {}
    if rest is None:
        return {m: c}
    if c == 1 and not m:
        return rest
    if type(rest) is dict:
        return {mono_mul(k, m): v * c for k, v in rest.items()}
    return rest * Expr(Poly({m: c}), Poly.one(), _raw=True)


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
            self.expect("=")
            ref[sym] = self.parse_rational()
        elif tok[1] in ("jet_degree", "base_degree", "order"):
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
        """A sum; polynomial terms are added into the first one in place."""
        acc = self.parse_term()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) == "+" or op == "-":
            self.pos += 1
            rhs = self.parse_term()
            if type(acc) is dict and type(rhs) is dict:
                for m, c in rhs.items():
                    c = acc.get(m, 0) + c if op == "+" else acc.get(m, 0) - c
                    if c:
                        acc[m] = c
                    else:
                        del acc[m]
            else:
                acc = _as_expr(acc) + _as_expr(rhs) if op == "+" else \
                    _as_expr(acc) - _as_expr(rhs)
        return acc

    def parse_term(self) -> dict | Expr:
        """A product, kept as c * m * rest: the single-term factors multiply
        into the coefficient c and the monomial m as they come, and the
        product is built once.  rest is the product of the other factors
        (multi-term polynomials, rational functions), or of everything up
        to a non-constant divisor.  Each operator is charged the term pairs
        of the Poly products that multiplying out left to right would run."""
        c, m, rest = 1, (), None
        op = None
        tokens = self.tokens
        while True:
            f = self.parse_unary()
            single = type(f) is dict and len(f) <= 1
            if op is not None:
                acc_num, acc_den = _sizes(rest) if c else (0, 1)
                f_num, f_den = _sizes(f)
                if op[0] == "/":
                    if not f_num:
                        raise ParseError("division by zero", op[2], op[3])
                    self.charge(op, acc_num * f_den + acc_den * f_num)
                else:
                    self.charge(op, acc_num * f_num + acc_den * f_den)
            if op is None or op[0] == "*":
                if single:
                    for fm, fc in f.items():
                        c *= fc
                        m = mono_mul(m, fm)
                    if not f:
                        c = 0
                elif c:  # a zero product absorbs every factor after it
                    if rest is None:
                        rest = f
                    elif type(rest) is dict and type(f) is dict:
                        rest = (Poly(rest) * Poly(f)).terms
                    else:
                        rest = _as_expr(rest) * _as_expr(f)
            elif single and () in f:
                c = Fraction(c, f[()])
            elif c:
                rest = _as_expr(_product(c, m, rest)) / _as_expr(f)
                c, m = 1, ()
            op = tokens[self.pos]
            if op[0] != "*" and op[0] != "/":
                return _product(c, m, rest)
            self.pos += 1

    def charge(self, op: tuple, pairs: int) -> None:
        """Add the term pairs of the polynomial products about to run to the
        parse's running count; past MAX_TERMS the input is a ParseError."""
        self.work += pairs
        if self.work > MAX_TERMS:
            raise ParseError(f"expression expands past MAX_TERMS = {MAX_TERMS} "
                             "term products", op[2], op[3])

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
            return {(): 1}
        if type(atom) is dict and len(atom) <= 1:
            # each of the k - 1 products pairs the numerators' one term (none
            # for 0) and the denominators' one term
            self.charge(op, (k - 1) * (len(atom) + 1))
            return {tuple((s, e * k) for s, e in am): ac ** k for am, ac in atom.items()}
        num, den = (Poly(atom), None) if type(atom) is dict else (atom.num, atom.den)
        p, q = num, den
        for _ in range(k - 1):
            self.charge(op, len(p.terms) * len(num.terms)
                        + (1 if den is None else len(q.terms) * len(den.terms)))
            p = p * num
            if den is not None:
                q = q * den
        # coprime parts stay coprime under powers, so no re-reduction
        return p.terms if den is None else Expr(p, q, _raw=True)

    def parse_atom(self) -> dict | Expr:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "num":
            self.pos += 1
            c = self.number(tok)
            return {(): c} if c else {}
        if kind == "name":
            self.pos += 1
            return {((self.symbol_from_name(tok), 1),): 1}
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
    source: str = field(default="", compare=False)

    def equation(self) -> EvolutionEquation:
        return EvolutionEquation(self.n, self.G, self.reference_jet)

    def equation_text(self) -> str:
        return f"u_t = {expr_to_source(self.G, self.n)}"


def parse(source: str) -> ProblemFile:
    """Parse a problem file; raises ParseError (or a subclass) with position."""
    pf = _Parser(source).parse_file()
    pf.source = source
    return pf


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
            mi = s.jet
            if mi.time_power:
                raise ValueError(f"cannot print time jet {s} in the file grammar")
            if mi.order == 0:
                return "u"
            if n == 1:
                return "u_" + "x" * len(mi.spatial)
            return "u_" + "".join(map(str, mi.spatial))
        raise ValueError(f"cannot print {s.kind} symbol {s} in the file grammar")
    return name


def expr_to_source(e: Expr, n: int) -> str:
    """Render an expression so that parse_expression re-reads it verbatim."""
    return format_expr(e, _source_name(n))


def print_problem(pf: ProblemFile) -> str:
    """Canonical problem-file text; parse(print_problem(pf)) == pf."""
    parts = [f"n={pf.n}", f"u_t = {expr_to_source(pf.G, pf.n)}"]
    name = _source_name(pf.n)
    for sym in sorted(pf.reference_jet):
        parts.append(f"ref {name(sym)} = {pf.reference_jet[sym]}")
    if pf.jet_degree is not None:
        parts.append(f"jet_degree = {pf.jet_degree}")
    if pf.base_degree is not None:
        parts.append(f"base_degree = {pf.base_degree}")
    if pf.max_jet_order is not None:
        parts.append(f"order = {pf.max_jet_order}")
    return "; ".join(parts)
