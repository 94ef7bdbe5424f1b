"""Problem-file parser, command dispatch, and machine-readable reports.

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
expr.MAX_TERMS is a ParseError, so no input expands without bound.

JSON reports follow a fixed schema (see README) and are byte-stable for
identical inputs; elapsed time appears only in --text output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .claws import (
    AnsatzSpec, ConservationLaw, InvariantViolation, NotParabolicEquation,
    cross_validate_ma, find_conservation_laws, jacobi_potential_order, verify,
)
from .expr import (
    BASE, JET, MAX_TERMS, DivisionByZeroExpr, Expr, NotPolynomialIn, Poly,
    Symbol, base_var, format_expr, jet_var,
)
from .jets import (
    NotInDivergenceImage, OrderOverflow, TimeJetPresent, deprolongation_dimension,
    euler_operator, parabolic_system_dimension, spatial_jet_order,
    tableau_dimension,
)
from .parabolic import EvolutionEquation, Parabolicity, ma_classify, \
    parabolicity_check

__all__ = [
    "ParseError", "IndexOutOfRange", "TimeDerivativeOnRHS",
    "ProblemFile", "parse", "parse_expression", "print_problem",
    "expr_to_source",
    "cmd_classify", "cmd_claws", "cmd_verify", "cmd_dims",
    "main", "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1
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

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> "ProblemFile":
        self.expect("name", "n")
        self.expect("op", "=")
        ntok = self.expect("num")
        n = int(ntok.text)
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
            options[tok.text] = int(val.text)
        else:
            raise ParseError(f"unknown option {tok.text!r}", tok.line, tok.col,
                             ("ref", "jet_degree", "base_degree", "order"))

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            sign = -1
        p = int(self.expect("num").text)
        if self.peek().kind == "op" and self.peek().text == "/":
            self.advance()
            qtok = self.expect("num")
            q = int(qtok.text)
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
            k = int(self.expect("num").text)
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
            return Expr.const(int(tok.text))
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


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _ma_section(report) -> dict:
    return {
        "minor_affine": report.minor_affine,
        "residue_vanishes": report.residue_vanishes,
        "n1_affine": report.n1_affine,
    }


def _law_section(law: ConservationLaw, n: int) -> dict:
    return {
        "density": expr_to_source(law.T, n),
        "flux": [expr_to_source(x, n) for x in law.X],
        "characteristic": expr_to_source(law.Q, n),
        "order": jacobi_potential_order(law),
    }


def _report_skeleton(pf: ProblemFile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": pf.n,
        "equation": pf.equation_text(),
    }


def cmd_classify(pf: ProblemFile, symbolic: bool = False) -> dict:
    eq = pf.equation()
    report = _report_skeleton(pf)
    warnings: list[str] = []
    verdict = parabolicity_check(eq)
    if verdict is Parabolicity.WEAK:
        warnings.append("weakly parabolic symbol at the reference jet")
    ma = ma_classify(eq, symbolic=symbolic)
    if ma.singular_symbol:
        warnings.append("singular symbol at the reference jet; residue test skipped")
    report["parabolicity"] = verdict.value
    report["ma"] = _ma_section(ma)
    report["laws"] = []
    report["warnings"] = warnings
    return report


def cmd_claws(pf: ProblemFile, spec: AnsatzSpec, symbolic: bool = False,
              force: bool = False) -> dict:
    eq = pf.equation()
    report = _report_skeleton(pf)
    warnings: list[str] = []
    verdict = parabolicity_check(eq)
    if verdict is Parabolicity.WEAK:
        warnings.append("weakly parabolic symbol at the reference jet")
    if verdict is Parabolicity.NOT_PARABOLIC:
        if not force:
            raise NotParabolicEquation(
                "symbol is not parabolic at the reference jet; pass force=True to proceed")
        warnings.append("not parabolic at the reference jet; proceeding (--force)")
    ma = ma_classify(eq, symbolic=symbolic)
    if ma.singular_symbol:
        warnings.append("singular symbol at the reference jet; residue test skipped")
    laws = find_conservation_laws(eq, spec, force=True)
    # the cross-check uses the pointwise verdict, so a --symbolic one is not reused
    validation = cross_validate_ma(eq, laws, None if symbolic else ma)
    if not validation.consistent:
        raise InvariantViolation(f"MA cross-validation violated: {validation.detail}")
    report["parabolicity"] = verdict.value
    report["ma"] = _ma_section(ma)
    report["laws"] = [_law_section(law, eq.n) for law in laws]
    report["warnings"] = warnings
    return report


def cmd_verify(pf: ProblemFile, density: str, fluxes: list[str]) -> dict:
    eq = pf.equation()
    if len(fluxes) != eq.n:
        raise ValueError(f"expected {eq.n} flux expression(s), got {len(fluxes)}")
    T = parse_expression(density, eq.n)
    X = tuple(parse_expression(f, eq.n) for f in fluxes)
    Q = euler_operator(T)
    law = ConservationLaw(T, X, Q)
    report = _report_skeleton(pf)
    report["density"] = expr_to_source(T, eq.n)
    report["flux"] = [expr_to_source(x, eq.n) for x in X]
    report["verified"] = verify(eq, law)
    report["characteristic"] = expr_to_source(Q, eq.n)
    report["order"] = spatial_jet_order(Q)
    report["warnings"] = []
    return report


def cmd_dims(n: int, r: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "r": r,
        "tableau_dim": tableau_dimension(n, r),
        "system_dim": parabolic_system_dimension(n),
        "deprolongation_dim": deprolongation_dimension(n),
    }


# ---------------------------------------------------------------------------
# Rendering and entry point
# ---------------------------------------------------------------------------

def _render_text(report: dict, elapsed: float) -> str:
    lines = []
    if "equation" in report:
        lines.append(f"{report['equation']}   (n = {report['n']})")
    if "parabolicity" in report:
        lines.append(f"parabolicity: {report['parabolicity']}")
    if "ma" in report:
        ma = report["ma"]
        flags = ", ".join(f"{k} = {'n/a' if v is None else v}" for k, v in ma.items())
        lines.append(f"monge-ampere: {flags}")
    if "verified" in report:
        lines.append(f"density: {report['density']}")
        lines.append(f"flux: {report['flux']}")
        lines.append(f"verified: {report['verified']}")
        lines.append(f"characteristic: {report['characteristic']} "
                     f"(order {report['order']})")
    if "laws" in report:
        lines.append(f"laws: {len(report['laws'])}")
        for k, law in enumerate(report["laws"], start=1):
            lines.append(f"  [{k}] Q = {law['characteristic']} (order {law['order']})")
            lines.append(f"      T = {law['density']}")
            lines.append(f"      X = [{', '.join(law['flux'])}]")
    if "tableau_dim" in report:
        lines.append(f"tableau_dim(n={report['n']}, r={report['r']}) = "
                     f"{report['tableau_dim']}")
        lines.append(f"system_dim = {report['system_dim']}")
        lines.append(f"deprolongation_dim = {report['deprolongation_dim']}")
    for w in report.get("warnings", []):
        lines.append(f"warning: {w}")
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def _read_problem(path: str) -> ProblemFile:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _ansatz_spec(pf: ProblemFile, args: argparse.Namespace) -> AnsatzSpec:
    def pick(flag, file_value, default):
        return flag if flag is not None else (
            file_value if file_value is not None else default)

    order = pick(args.order, pf.max_jet_order, 2)
    return AnsatzSpec(
        max_jet_order=order,
        jet_degree=pick(args.jet_degree, pf.jet_degree, 1),
        base_degree=pick(args.base_degree, pf.base_degree, 0),
        unsafe_order=args.unsafe_order,
    )


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    does not change it."""
    ap = argparse.ArgumentParser(
        prog="paraclaw",
        description="Conservation laws and Monge-Ampere classification for "
                    "evolutionary parabolic equations u_t = G(x, t, u, Du, Hess u).")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="as_json", action="store_true", default=True,
                         help="machine-readable report (default)")
        fmt.add_argument("--text", dest="as_json", action="store_false",
                         help="human-readable report with timing")

    p_classify = sub.add_parser("classify", help="parabolicity and Monge-Ampere tests")
    p_classify.add_argument("file", help="problem file, or - for stdin")
    p_classify.add_argument("--symbolic", action="store_true",
                            help="compute the traceless residue over the rational "
                                 "functions of the jet, not at the reference jet")
    add_output_flags(p_classify)

    p_claws = sub.add_parser("claws", help="find conservation laws")
    p_claws.add_argument("file", help="problem file, or - for stdin")
    p_claws.add_argument("--jet-degree", type=int, default=None)
    p_claws.add_argument("--base-degree", type=int, default=None)
    p_claws.add_argument("--order", type=int, default=None,
                         help="max jet order of the density ansatz (capped at 2)")
    p_claws.add_argument("--unsafe-order", action="store_true",
                         help="allow --order above the proven bound of 2")
    p_claws.add_argument("--symbolic", action="store_true",
                         help="report the traceless residue computed over the "
                              "rational functions of the jet, not at the reference jet")
    p_claws.add_argument("--force", action="store_true",
                         help="proceed despite a non-parabolic symbol")
    add_output_flags(p_claws)

    p_verify = sub.add_parser("verify", help="check D_t T + Div X = 0 exactly")
    p_verify.add_argument("file", help="problem file, or - for stdin")
    p_verify.add_argument("--density", required=True)
    p_verify.add_argument("--flux", action="append", required=True,
                          help="repeat n times, one expression per direction")
    add_output_flags(p_verify)

    p_dims = sub.add_parser("dims", help="tableau and system dimensions")
    p_dims.add_argument("-n", type=int, required=True, dest="n")
    p_dims.add_argument("-r", type=int, default=0, dest="r")
    add_output_flags(p_dims)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "classify":
            report = cmd_classify(_read_problem(args.file), symbolic=args.symbolic)
        elif args.command == "claws":
            pf = _read_problem(args.file)
            report = cmd_claws(pf, _ansatz_spec(pf, args),
                               symbolic=args.symbolic, force=args.force)
        elif args.command == "verify":
            report = cmd_verify(_read_problem(args.file), args.density, args.flux)
        else:
            report = cmd_dims(args.n, args.r)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (NotParabolicEquation, DivisionByZeroExpr, NotPolynomialIn,
            TimeJetPresent, NotInDivergenceImage, OrderOverflow,
            ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "as_json", True):
        print(json.dumps(report, indent=2))
    else:
        print(_render_text(report, time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
