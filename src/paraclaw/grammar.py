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

Implicit multiplication is not supported.  "p/q" rational literals fold to
exact fractions through the division operator.  Any u_t-like token on the
right-hand side is rejected with TimeDerivativeOnRHS.  Parentheses nest at
most MAX_NESTING deep: deeper input is a ParseError, not a RecursionError.
Each "*", "/" and "^" is charged its term-pair products before it runs
("^k" is k - 1 multiplications); a parse whose running total would pass
expr.MAX_TERMS is a ParseError, so no input expands without bound; so is
a number literal longer than sys.get_int_max_str_digits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .expr import (
    BASE, JET, MAX_TERMS, Expr, Poly, Symbol, base_var, format_expr, jet_var,
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

@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    line: int
    col: int


_OPS = set("+-*/^()=;")


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(_Token("num", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str, n: int | None = None):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = n
        self.depth = 0
        self.work = 0  # term-pair products so far, bounded by MAX_TERMS

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind.upper()
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col, (want,))
        return self.advance()

    def number(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # past sys.get_int_max_str_digits
            raise ParseError(f"number literal longer than {sys.get_int_max_str_digits()} "
                             "digits", tok.line, tok.col) from None

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> "ProblemFile":
        self.expect("name", "n")
        self.expect("op", "=")
        ntok = self.expect("num")
        n = self.number(ntok)
        if not 1 <= n <= 9:
            raise ParseError("n must be between 1 and 9", ntok.line, ntok.col)
        self.n = n
        self.expect("op", ";")
        lhs = self.expect("name")
        if lhs.text != "u_t":
            raise ParseError(f"unexpected {lhs.text!r}", lhs.line, lhs.col, ("u_t",))
        self.expect("op", "=")
        G = self.parse_expr()
        ref: dict[Symbol, Fraction] = {}
        options: dict[str, int] = {}
        while self.peek().kind == "op" and self.peek().text == ";":
            self.advance()
            self.parse_option(ref, options)
        self.expect("end")
        return ProblemFile(n=n, G=G, reference_jet=ref,
                           jet_degree=options.get("jet_degree"),
                           base_degree=options.get("base_degree"),
                           max_jet_order=options.get("order"))

    def parse_option(self, ref: dict, options: dict) -> None:
        tok = self.expect("name")
        if tok.text == "ref":
            ident = self.expect("name")
            sym = self.symbol_from_name(ident)
            self.expect("op", "=")
            ref[sym] = self.parse_rational()
        elif tok.text in ("jet_degree", "base_degree", "order"):
            self.expect("op", "=")
            val = self.expect("num")
            options[tok.text] = self.number(val)
        else:
            raise ParseError(f"unknown option {tok.text!r}", tok.line, tok.col,
                             ("ref", "jet_degree", "base_degree", "order"))

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            sign = -1
        p = self.number(self.expect("num"))
        if self.peek().kind == "op" and self.peek().text == "/":
            self.advance()
            qtok = self.expect("num")
            q = self.number(qtok)
            if q == 0:
                raise ParseError("zero denominator", qtok.line, qtok.col)
            return Fraction(sign * p, q)
        return Fraction(sign * p)

    def parse_expr(self) -> Expr:
        acc = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> Expr:
        acc = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.parse_unary()
            if op.text == "*":
                self.charge(op, (acc.num, rhs.num), (acc.den, rhs.den))
                acc = acc * rhs
            else:
                if rhs.is_zero:
                    raise ParseError("division by zero", op.line, op.col)
                self.charge(op, (acc.num, rhs.den), (acc.den, rhs.num))
                acc = acc / rhs
        return acc

    def charge(self, op: _Token, *products: tuple[Poly, Poly]) -> None:
        """Add the term pairs of the polynomial products about to run to the
        parse's running count; past MAX_TERMS the input is a ParseError."""
        self.work += sum(len(p.terms) * len(q.terms) for p, q in products)
        if self.work > MAX_TERMS:
            raise ParseError(f"expression expands past MAX_TERMS = {MAX_TERMS} "
                             "term products", op.line, op.col)

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return -self.parse_factor()
        return self.parse_factor()

    def parse_factor(self) -> Expr:
        atom = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            op = self.advance()
            k = self.number(self.expect("num"))
            num, den = (atom.num, atom.den) if k else (Poly.one(), Poly.one())
            for _ in range(k - 1):
                self.charge(op, (num, atom.num), (den, atom.den))
                num, den = num * atom.num, den * atom.den
            # coprime parts stay coprime under powers, so no re-reduction
            return Expr(num, den, _raw=True)
        return atom

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Expr.const(self.number(tok))
        if tok.kind == "name":
            self.advance()
            return Expr.symbol(self.symbol_from_name(tok))
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.col)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect("op", ")")
            return inner
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.line, tok.col, ("RATIONAL", "ident", "("))

    def symbol_from_name(self, tok: _Token) -> Symbol:
        n = self.n
        text = tok.text
        if text == "t":
            return base_var(0)
        if text == "x":
            if n != 1:
                raise ParseError("'x' alone is legal only when n = 1",
                                 tok.line, tok.col)
            return base_var(1)
        if text.startswith("x") and len(text) == 2 and text[1].isdigit():
            idx = int(text[1])
            if not 1 <= idx <= n:
                raise IndexOutOfRange(f"spatial index {idx} out of range 1..{n}",
                                      tok.line, tok.col)
            return base_var(idx)
        if text == "u":
            return jet_var()
        if text.startswith("u_"):
            suffix = text[2:]
            if "t" in suffix:
                raise TimeDerivativeOnRHS(
                    f"time derivative {text!r} is not allowed here",
                    tok.line, tok.col)
            if suffix and all(c == "x" for c in suffix):
                if n != 1:
                    raise ParseError("u_x... aliases are legal only when n = 1",
                                     tok.line, tok.col)
                return jet_var((1,) * len(suffix))
            if suffix.isdigit():
                indices = tuple(int(c) for c in suffix)
                bad = [i for i in indices if not 1 <= i <= n]
                if bad:
                    raise IndexOutOfRange(
                        f"spatial index {bad[0]} out of range 1..{n}",
                        tok.line, tok.col)
                return jet_var(indices)
        raise ParseError(f"unknown identifier {text!r}", tok.line, tok.col,
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
    e = p.parse_expr()
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
